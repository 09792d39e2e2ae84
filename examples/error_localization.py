#!/usr/bin/env python3
"""Error localization at two code granularities (paper Section VI).

The paper's future-work sketch: run the detector at different code
granularities and use where the error is (and is not) detected as a
guide to its location.  This example trains a binary IR2vec model on the
MBI-style suite and applies both granularities the library implements to
a multi-function program with a recv/recv deadlock hidden in one helper:

* function level  — each function embedded as its own compilation unit,
* call-site level — occlusion over individual MPI call instructions.

Run:  python examples/error_localization.py
"""

import numpy as np

from repro.core import localize_call_sites, localize_error
from repro.datasets import load_mbi
from repro.models import IR2vecModel, featurize_dataset
from repro.pipeline import IR2VecFeaturizer

BUGGY = """
#include <mpi.h>

int checksum(int x) {
  return x * 31 + 7;
}

void halo_exchange(int rank) {
  int buf[16];
  MPI_Status st;
  int peer = (rank == 0) ? 1 : 0;
  /* BUG: both ranks receive first -> deadlock */
  MPI_Recv(buf, 16, MPI_INT, peer, 9, MPI_COMM_WORLD, &st);
  MPI_Send(buf, 16, MPI_INT, peer, 9, MPI_COMM_WORLD);
}

int main(int argc, char** argv) {
  int rank;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  int v = checksum(rank);
  if (v >= 0) { halo_exchange(rank); }
  MPI_Finalize();
  return 0;
}
"""


def main() -> None:
    print("training binary IR2vec model on the MBI-style suite ...")
    dataset = load_mbi(subsample=300)
    X = featurize_dataset(IR2VecFeaturizer(opt_level="Os"), dataset)
    y = np.array([s.binary for s in dataset])
    model = IR2vecModel(use_ga=False)
    model.fit(X, y)

    print("\nfunction-level suspects (isolated compilation units):")
    for suspect in localize_error(BUGGY, model):
        print(f"  #{suspect.rank} {suspect.name:<16} "
              f"isolated={suspect.isolated_verdict:<10} "
              f"influence={suspect.influence:.3f}")

    print("\ncall-site-level suspects (occlusion over MPI calls):")
    for suspect in localize_call_sites(BUGGY, model):
        print(f"  {suspect}")

    print("\nThe deadlocked exchange should rank above the pure helper —"
          "\nthe granularity signal the paper proposes for localization.")


if __name__ == "__main__":
    main()
