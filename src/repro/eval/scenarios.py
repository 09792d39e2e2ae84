"""The paper's evaluation protocols (Section V) over one fold loop.

Intra and Mix use k-fold cross-validation with predictions aggregated
over all validation folds; Cross trains on one full suite and validates
on the other with binary labels (the suites' error taxonomies differ).
The label ablations of Figs. 8 and 9 rerun the Intra folds with every
sample of the held-out labels removed from training.

Every protocol is built from the same three pieces:

* :func:`stage_specs` — the single lowering of a :class:`ReproConfig`
  onto pipeline stage specs.  A driver that needs a variant (another
  embedding seed, fixed GA features, a GNN without attention) calls
  :func:`dataclasses.replace` on the config it returns.
* :func:`folds` — the one stratified k-fold split.
* :func:`fit_predict` — build a classifier from its spec, fit, predict.

Features come from :func:`featurize`, which runs on the process default
execution engine (:func:`~repro.engine.set_default_engine`; the CLI's
``--workers`` / ``--cache-dir``), so sweeps fan out across processes and
the engine's store (memory, then disk) skips the compile/featurize work
for anything seen before.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

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


def binary_labels(dataset: Dataset) -> np.ndarray:
    return np.array([s.binary for s in dataset.samples])


def stage_specs(method: str, config: ReproConfig, *, use_ga: bool = True,
                normalization: Optional[str] = None,
                opt_level: Optional[str] = None) -> Tuple[str, Any, str, Any]:
    """(featurizer name, config, classifier name, config) for a method.

    The single place a :class:`ReproConfig` is lowered onto pipeline
    stage specs — the paper drivers, the evaluation matrix, and the CLI
    all resolve methods through here so their cells are comparable.
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


def featurize(feat_name: str, feat_cfg: Any, dataset: Dataset):
    """Features of ``dataset`` under one featurizer spec, on the process
    default engine."""
    return featurize_dataset(FEATURIZERS.create(feat_name, feat_cfg),
                             dataset)


def folds(dataset: Dataset, config: ReproConfig
          ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The k-fold split every CV protocol uses: stratified on the error
    labels, ``config.folds`` folds, seeded by ``config.seed``."""
    return stratified_kfold_indices([s.label for s in dataset.samples],
                                    config.folds, config.seed)


def fit_predict(clf_name: str, clf_cfg: Any, X_train, y_train,
                X_test) -> Tuple[Any, np.ndarray]:
    """Fit a fresh classifier from its spec; return (model, predictions)."""
    model = CLASSIFIERS.create(clf_name, clf_cfg)
    model.fit(X_train, np.asarray(y_train))
    return model, np.asarray(model.predict(X_test))


def cv_predict(dataset: Dataset, config: ReproConfig, features,
               y: np.ndarray, clf_name: str, clf_cfg: Any
               ) -> Tuple[np.ndarray, np.ndarray]:
    """(y_true, y_pred) over all validation folds, in fold order."""
    y_true: List[str] = []
    y_pred: List[str] = []
    for train_idx, val_idx in folds(dataset, config):
        _, pred = fit_predict(clf_name, clf_cfg, take(features, train_idx),
                              y[train_idx], take(features, val_idx))
        y_true.extend(y[val_idx])
        y_pred.extend(pred)
    return np.array(y_true), np.array(y_pred)


def accuracy(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    return int(np.sum(np.asarray(y_true) == np.asarray(y_pred))) / len(y_true)


def run_intra_cv(method: str, dataset: Dataset, config: ReproConfig, *,
                 labels: Optional[np.ndarray] = None, use_ga: bool = True,
                 normalization: Optional[str] = None,
                 opt_level: Optional[str] = None,
                 ) -> Tuple[MetricReport, np.ndarray, np.ndarray]:
    """K-fold CV; returns (metrics, y_true, y_pred) aggregated over folds.

    ``labels`` defaults to binary correct/incorrect; pass error-type
    labels for the multi-class experiments (Fig. 6).
    """
    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs(
        method, config, use_ga=use_ga, normalization=normalization,
        opt_level=opt_level)
    y = labels if labels is not None else binary_labels(dataset)
    y_true, y_pred = cv_predict(
        dataset, config, featurize(feat_name, feat_cfg, dataset), y,
        clf_name, clf_cfg)
    counts = confusion_from_predictions(y_true, y_pred)
    return compute_metrics(counts), y_true, y_pred


def run_cross(method: str, train_ds: Dataset, val_ds: Dataset,
              config: ReproConfig, *, use_ga: bool = True,
              normalization: Optional[str] = None) -> MetricReport:
    """Train on one suite, validate on the other (binary labels)."""
    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs(
        method, config, use_ga=use_ga, normalization=normalization)
    _, y_pred = fit_predict(
        clf_name, clf_cfg, featurize(feat_name, feat_cfg, train_ds),
        binary_labels(train_ds),
        featurize(feat_name, feat_cfg, val_ds))
    return compute_metrics(
        confusion_from_predictions(binary_labels(val_ds), y_pred))


def run_per_label_with_support(
        dataset: Dataset, config: ReproConfig, method: str = "ir2vec",
        ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Multi-class CV (paper Fig. 6): per-label accuracy plus validation
    support counts, both keyed by the plain-``str`` label.

    Support matters when shape-checking the series: a subsampled profile
    can leave a rare label (Resource Leak has 14 instances even at paper
    scale) with one or two validation samples, where accuracy is noise.
    """
    type_labels = np.array([s.label for s in dataset.samples])
    _, y_true, y_pred = run_intra_cv(method, dataset, config, labels=type_labels)
    all_labels = sorted({s.label for s in dataset.samples})
    return (per_label_accuracy(all_labels, y_true, y_pred),
            per_label_support(all_labels, y_true))


# ---------------------------------------------------------------------------
# Label ablations (Section V-E, Figs. 8 and 9)
# ---------------------------------------------------------------------------

def _ablation_accuracy(dataset: Dataset, excluded: Sequence[str],
                       config: ReproConfig) -> Dict[str, float]:
    """Share of each excluded label's samples still predicted Incorrect
    when no sample of any excluded label is in the training folds."""
    labels = np.array([s.label for s in dataset.samples])
    present = set(labels)
    absent = [lbl for lbl in excluded if lbl not in present]
    if absent:
        raise ValueError(f"no sample of {dataset.name} carries the ablated "
                         f"label(s) {', '.join(map(repr, absent))}")
    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs("ir2vec", config)
    X = featurize(feat_name, feat_cfg, dataset)
    binary = binary_labels(dataset)
    held_out = np.isin(labels, list(excluded))

    hits = {lbl: 0 for lbl in excluded}
    totals = {lbl: 0 for lbl in excluded}
    for train_idx, val_idx in folds(dataset, config):
        targets = val_idx[held_out[val_idx]]
        if not len(targets):
            continue
        kept = train_idx[~held_out[train_idx]]
        _, pred = fit_predict(clf_name, clf_cfg, X[kept], binary[kept],
                              X[targets])
        for i, p in zip(targets, pred):
            totals[labels[i]] += 1
            if p == "Incorrect":
                hits[labels[i]] += 1
    return {lbl: hits[lbl] / totals[lbl] for lbl in excluded}


def run_single_ablation(dataset: Dataset, config: ReproConfig,
                        labels: Sequence[str]) -> Dict[str, float]:
    """Fig. 8: leave-one-label-out detection accuracy per error label."""
    return {label: _ablation_accuracy(dataset, [label], config)[label]
            for label in labels}


def run_pair_ablation(dataset: Dataset, config: ReproConfig,
                      pairs: Sequence[Tuple[str, str]]
                      ) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Fig. 9: leave-two-labels-out; accuracy of (first, second) label."""
    results: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for first, second in pairs:
        acc = _ablation_accuracy(dataset, [first, second], config)
        results[(first, second)] = (acc[first], acc[second])
    return results
