"""Experiment harness: paper drivers plus the evaluation-matrix gate."""

from repro.eval.config import ReproConfig
from repro.eval.scenarios import (
    run_pair_ablation,
    run_single_ablation,
    stage_specs,
)
from repro.eval.matrix import (
    CellSpec,
    MatrixSpec,
    cell_report,
    load_matrix_artifact,
    run_matrix,
    save_matrix_artifact,
)
from repro.eval.compare import (
    CompareResult,
    CompareThresholds,
    compare_artifacts,
)
from repro.schema import SchemaError

__all__ = [
    "ReproConfig", "stage_specs",
    "run_single_ablation", "run_pair_ablation",
    # evaluation matrix
    "MatrixSpec", "CellSpec", "run_matrix", "cell_report",
    "save_matrix_artifact", "load_matrix_artifact",
    "CompareThresholds", "CompareResult", "compare_artifacts",
    "SchemaError",
]
