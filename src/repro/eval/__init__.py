"""Experiment harness: paper drivers plus the evaluation-matrix gate."""

from repro.eval.config import ReproConfig
from repro.eval.scenarios import (
    run_cross,
    run_intra_cv,
    run_pair_ablation,
    run_per_label_with_support,
    run_single_ablation,
    stage_specs,
)
from repro.eval.matrix import (
    CellSpec,
    MatrixSpec,
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
    "ReproConfig",
    "run_intra_cv", "run_cross",
    "run_per_label_with_support", "stage_specs",
    "run_single_ablation", "run_pair_ablation",
    # evaluation matrix
    "MatrixSpec", "CellSpec", "run_matrix",
    "save_matrix_artifact", "load_matrix_artifact",
    "CompareThresholds", "CompareResult", "compare_artifacts",
    "SchemaError",
]
