"""Error localization (Section VI extension)."""

import numpy as np
import pytest

from repro.core.localize import localize_error
from repro.datasets import load_mbi
from repro.models import IR2vecModel, featurize_dataset
from repro.pipeline import IR2VecFeaturizer

BUGGY_MULTIFUNCTION = """
#include <mpi.h>
int compute(int x) {
  return x * x + 1;
}
void broken_exchange(int rank) {
  int buf[4];
  MPI_Status st;
  int peer = (rank == 0) ? 1 : 0;
  /* recv-recv deadlock lives in this function */
  MPI_Recv(buf, 4, MPI_INT, peer, 0, MPI_COMM_WORLD, &st);
  MPI_Send(buf, 4, MPI_INT, peer, 0, MPI_COMM_WORLD);
}
int main(int argc, char** argv) {
  int rank;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  int v = compute(rank);
  if (v >= 0) { broken_exchange(rank); }
  MPI_Finalize();
  return 0;
}
"""


@pytest.fixture(scope="module")
def model():
    ds = load_mbi(subsample=300)
    X = featurize_dataset(IR2VecFeaturizer(opt_level="Os"), ds)
    y = np.array([s.binary for s in ds])
    m = IR2vecModel(use_ga=False)
    m.fit(X, y)
    return m


def test_localize_returns_ranked_functions(model):
    suspects = localize_error(BUGGY_MULTIFUNCTION, model)
    names = [s.name for s in suspects]
    assert set(names) == {"compute", "broken_exchange", "main"}
    assert [s.rank for s in suspects] == [1, 2, 3]


def test_localize_influence_nonnegative(model):
    suspects = localize_error(BUGGY_MULTIFUNCTION, model)
    assert all(s.influence >= 0.0 for s in suspects)


def test_localize_pure_compute_not_top(model):
    suspects = localize_error(BUGGY_MULTIFUNCTION, model)
    # The MPI-free helper should not be the top suspect.
    assert suspects[0].name != "compute"


def test_localize_empty_module(model):
    suspects = localize_error("int main() { return 0; }", model)
    assert len(suspects) == 1 and suspects[0].name == "main"


def test_call_site_localization_targets_exchange(model):
    from repro.core.localize import localize_call_sites

    suspects = localize_call_sites(BUGGY_MULTIFUNCTION, model)
    # Only the Recv and Send are candidates: Init/Finalize/Comm_rank are
    # boilerplate-excluded and compute() has no MPI calls.
    assert {s.callee for s in suspects} == {"MPI_Recv", "MPI_Send"}
    assert all(s.function == "broken_exchange" for s in suspects)
    assert [s.rank for s in suspects] == [1, 2]


def test_call_site_influence_and_top(model):
    from repro.core.localize import localize_call_sites

    all_suspects = localize_call_sites(BUGGY_MULTIFUNCTION, model)
    top1 = localize_call_sites(BUGGY_MULTIFUNCTION, model, top=1)
    assert len(top1) == 1
    assert top1[0].callee == all_suspects[0].callee
    assert all(s.influence >= 0.0 for s in all_suspects)


def test_call_site_indexes_follow_source_order(model):
    from repro.core.localize import localize_call_sites

    suspects = localize_call_sites(BUGGY_MULTIFUNCTION, model)
    by_index = sorted(suspects, key=lambda s: s.index)
    assert [s.callee for s in by_index] == ["MPI_Recv", "MPI_Send"]


def test_call_site_deterministic(model):
    from repro.core.localize import localize_call_sites

    a = localize_call_sites(BUGGY_MULTIFUNCTION, model)
    b = localize_call_sites(BUGGY_MULTIFUNCTION, model)
    assert [(s.callee, s.rank, s.influence) for s in a] == \
           [(s.callee, s.rank, s.influence) for s in b]


def test_call_site_empty_for_mpi_free_code(model):
    from repro.core.localize import localize_call_sites

    assert localize_call_sites("int main() { return 0; }", model) == []
