"""Intra / Mix / Cross evaluation scenarios (paper Section V).

Intra and Mix use 10-fold cross-validation with predictions aggregated
over all validation folds; Cross trains on one full suite and validates
on the other with binary labels (the suites' error taxonomies differ).

Both scenarios are method-agnostic: stages come from the pipeline
registries via :func:`repro.pipeline.method_stage_specs`, features from
:func:`~repro.models.features.featurize_dataset`, and fold selection
uses :func:`repro.pipeline.take` — one code path for matrices and graph
lists alike.  Feature extraction runs on the config's execution engine
(``ReproConfig.workers`` / ``cache_dir``), so scenario sweeps fan out
across processes and the engine's store (memory, then disk) skips the
compile/featurize work for anything seen before.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.loader import Dataset
from repro.eval.config import ReproConfig
from repro.ml.crossval import stratified_kfold_indices
from repro.ml.metrics import (
    MetricReport,
    compute_metrics,
    confusion_from_predictions,
    per_label_accuracy,
    per_label_support,
)
from repro.models.features import featurize_dataset
from repro.pipeline import CLASSIFIERS, FEATURIZERS, method_stage_specs, take


def _binary_labels(dataset: Dataset) -> np.ndarray:
    return np.array([s.binary for s in dataset.samples])


def stage_specs(method: str, config: ReproConfig, *, use_ga: bool = True,
                normalization: Optional[str] = None,
                opt_level: Optional[str] = None) -> Tuple[str, Any, str, Any]:
    """(featurizer name, config, classifier name, config) for a method.

    The single place a :class:`ReproConfig` is lowered onto pipeline
    stage specs — scenarios, the evaluation matrix, and the CLI all
    resolve methods through here so their cells are comparable.
    """
    if opt_level is None:
        opt_level = config.ir2vec_opt if method == "ir2vec" else config.gnn_opt
    return method_stage_specs(
        method, opt_level=opt_level,
        embedding_seed=config.embedding_seed,
        normalization=normalization or config.normalization,
        use_ga=use_ga, ga_config=config.ga,
        epochs=config.gnn_epochs, lr=config.gnn_lr,
        batch_size=config.gnn_batch_size, seed=config.seed)


_stage_specs = stage_specs            # internal alias (pre-matrix name)


def run_intra_cv(method: str, dataset: Dataset, config: ReproConfig, *,
                 labels: Optional[np.ndarray] = None, use_ga: bool = True,
                 normalization: Optional[str] = None,
                 opt_level: Optional[str] = None,
                 ) -> Tuple[MetricReport, np.ndarray, np.ndarray]:
    """K-fold CV; returns (metrics, y_true, y_pred) aggregated over folds.

    ``labels`` defaults to binary correct/incorrect; pass error-type
    labels for the multi-class experiments (Fig. 6).
    """
    feat_name, feat_cfg, clf_name, clf_cfg = _stage_specs(
        method, config, use_ga=use_ga, normalization=normalization,
        opt_level=opt_level)
    y = labels if labels is not None else _binary_labels(dataset)
    features = featurize_dataset(FEATURIZERS.create(feat_name, feat_cfg),
                                 dataset, engine=config.engine())
    y_true: List[str] = []
    y_pred: List[str] = []
    for train_idx, val_idx in stratified_kfold_indices(
            [s.label for s in dataset.samples], config.folds, config.seed):
        model = CLASSIFIERS.create(clf_name, clf_cfg)
        model.fit(take(features, train_idx), y[train_idx])
        pred = model.predict(take(features, val_idx))
        y_true.extend(y[val_idx])
        y_pred.extend(pred)
    counts = confusion_from_predictions(y_true, y_pred)
    return compute_metrics(counts), np.array(y_true), np.array(y_pred)


def run_cross_predictions(
        method: str, train_ds: Dataset, val_ds: Dataset,
        config: ReproConfig, *, use_ga: bool = True,
        normalization: Optional[str] = None,
        ) -> Tuple[MetricReport, np.ndarray, np.ndarray]:
    """Cross scenario returning (metrics, y_true, y_pred).

    The prediction arrays let callers derive per-error-class reports via
    :func:`repro.ml.metrics.per_class_binary_report` — the evaluation
    matrix scores its cross cells exactly this way.
    """
    feat_name, feat_cfg, clf_name, clf_cfg = _stage_specs(
        method, config, use_ga=use_ga, normalization=normalization)
    featurizer = FEATURIZERS.create(feat_name, feat_cfg)
    X_train = featurize_dataset(featurizer, train_ds, engine=config.engine())
    X_val = featurize_dataset(featurizer, val_ds, engine=config.engine())
    model = CLASSIFIERS.create(clf_name, clf_cfg)
    model.fit(X_train, _binary_labels(train_ds))
    y_true = _binary_labels(val_ds)
    y_pred = np.asarray(model.predict(X_val))
    counts = confusion_from_predictions(list(y_true), list(y_pred))
    return compute_metrics(counts), y_true, y_pred


def run_cross(method: str, train_ds: Dataset, val_ds: Dataset,
              config: ReproConfig, *, use_ga: bool = True,
              normalization: Optional[str] = None) -> MetricReport:
    """Train on one suite, validate on the other (binary labels)."""
    report, _, _ = run_cross_predictions(
        method, train_ds, val_ds, config, use_ga=use_ga,
        normalization=normalization)
    return report


def run_per_label(dataset: Dataset, config: ReproConfig,
                  method: str = "ir2vec") -> Dict[str, float]:
    """Multi-class CV; per-label accuracy (paper Fig. 6 protocol)."""
    acc, _ = run_per_label_with_support(dataset, config, method)
    return acc


def run_per_label_with_support(
        dataset: Dataset, config: ReproConfig, method: str = "ir2vec",
        ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-label accuracy plus validation support counts.

    Support matters when shape-checking the series: a subsampled profile
    can leave a rare label (Resource Leak has 14 instances even at paper
    scale) with one or two validation samples, where accuracy is noise.
    """
    type_labels = np.array([s.label for s in dataset.samples])
    _, y_true, y_pred = run_intra_cv(method, dataset, config, labels=type_labels)
    all_labels = sorted(set(type_labels))
    return (per_label_accuracy(all_labels, y_true, y_pred),
            per_label_support(all_labels, y_true))
