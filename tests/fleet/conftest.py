"""Shared fixtures for the fleet tests.

Same session-scoped smoke model as ``tests/serve`` (trained once, saved
as an ``.rpd`` artifact that replica subprocesses load at startup), plus
one module-scoped two-replica fleet: spawning replicas is the expensive
part, so every e2e test drives the same fleet, ordered so destructive
tests (replica kill) run last.  ``cold_corpus`` hands the e2e tests
never-seen sources, so every request pays a cold compile somewhere in
the fleet.
"""

import pytest

from repro.datasets import load_corrbench
from repro.ml import GAConfig
from repro.pipeline import DecisionTreeStageConfig, DetectionPipeline


@pytest.fixture(scope="session")
def artifact(tmp_path_factory):
    corpus = load_corrbench(subsample=40)
    pipeline = DetectionPipeline.from_names(
        "ir2vec", "decision-tree",
        classifier_config=DecisionTreeStageConfig(
            ga=GAConfig(population_size=20, generations=2)),
        method="ir2vec").fit(corpus)
    path = str(tmp_path_factory.mktemp("fleet-artifacts") / "model.rpd")
    pipeline.save(path)
    pipeline.close()
    return path


_COLD_TEMPLATE = """#include <mpi.h>
/* {tag} */
int main(int argc, char** argv) {{
  int rank; int buf[{width}]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) {{ MPI_Send(buf, {width}, MPI_INT, 1, {tagno},
                             MPI_COMM_WORLD); }}
  if (rank == 1) {{ MPI_Recv(buf, {width}, MPI_INT, 0, {tagno},
                             MPI_COMM_WORLD, &st); }}
  MPI_Finalize();
  return 0;
}}
"""


def _cold_corpus(count, label):
    """``count`` never-before-seen sources: every one is a distinct
    digest (unique tag comment *and* buffer width / message tag, so the
    IR differs too) → a guaranteed cold compile somewhere in the fleet.
    """
    jobs = []
    for i in range(count):
        tag = f"{label}-cold-{i}"
        jobs.append((f"{tag}.c",
                     _COLD_TEMPLATE.format(tag=tag, width=4 + (i % 13),
                                           tagno=5 + i)))
    return jobs


@pytest.fixture(scope="session")
def cold_corpus():
    """``cold_corpus(count, label)`` → ``[(name, source)]``."""
    return _cold_corpus
