"""The paper's two methods through the public DetectionPipeline API."""

import pytest

from repro.datasets import load_mbi
from repro.ml import GAConfig
from repro.pipeline import DetectionPipeline

CORRECT_SRC = """
#include <mpi.h>
int main(int argc, char** argv) {
  int rank; int buf[4]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) MPI_Send(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD);
  if (rank == 1) MPI_Recv(buf, 4, MPI_INT, 0, 0, MPI_COMM_WORLD, &st);
  MPI_Finalize();
  return 0;
}
"""


@pytest.fixture(scope="module")
def trained():
    pipeline = DetectionPipeline.from_method(
        "ir2vec", ga_config=GAConfig(population_size=40, generations=3))
    return pipeline.fit(load_mbi(subsample=200), labels="binary")


def test_check_returns_result(trained):
    result = trained.predict_source(CORRECT_SRC)
    assert result.label in ("Correct", "Incorrect")
    assert result.method == "ir2vec"
    assert result.is_correct == (result.label == "Correct")


def test_untrained_raises():
    with pytest.raises(RuntimeError):
        DetectionPipeline.from_method("ir2vec").predict_source(CORRECT_SRC)


def test_invalid_method_rejected():
    with pytest.raises(ValueError):
        DetectionPipeline.from_method("transformer")


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        DetectionPipeline.from_method("ir2vec").fit(
            load_mbi(subsample=100), labels="wrong")


def test_type_label_mode():
    pipeline = DetectionPipeline.from_method("ir2vec", use_ga=False)
    pipeline.fit(load_mbi(subsample=200), labels="type")
    result = pipeline.predict_source(CORRECT_SRC)
    from repro.datasets.labels import CORRECT, MBI_LABELS

    assert result.label in set(MBI_LABELS) | {CORRECT}


def test_gnn_detector_smoke():
    pipeline = DetectionPipeline.from_method("gnn", epochs=2, lr=3e-3)
    pipeline.fit(load_mbi(subsample=120))
    assert pipeline.frontend.opt_level == "O0"   # paper default for GNN
    result = pipeline.predict_source(CORRECT_SRC)
    assert result.label in ("Correct", "Incorrect")


def test_defaults_match_paper():
    ir2 = DetectionPipeline.from_method("ir2vec")
    gnn = DetectionPipeline.from_method("gnn")
    assert ir2.frontend.opt_level == "Os"
    assert gnn.frontend.opt_level == "O0"
