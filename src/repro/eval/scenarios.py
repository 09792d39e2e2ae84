"""The paper's evaluation protocols (Section V) over one fit job.

Intra and Mix use k-fold cross-validation with predictions pooled over
all validation folds; Cross trains on one full suite and validates on
the other with binary labels (the suites' error taxonomies differ).
The label ablations of Figs. 8 and 9 rerun the Intra folds with every
sample of the held-out labels removed from training.

Every protocol is built from the same pieces:

* :func:`stage_specs` — the single lowering of a :class:`ReproConfig`
  onto pipeline stage specs.  A driver that needs a variant (another
  embedding seed, fixed GA features, a GNN without attention) calls
  :func:`dataclasses.replace` on the config it returns.
* :func:`folds` — the one stratified k-fold split.
* :class:`FitJob` and :func:`fit_all` — every classifier fit of
  :mod:`repro.eval` is one :func:`fit_job`, and a driver hands all its
  jobs to one ``engine.map`` of the process default engine.

Features come from :func:`featurize`, which runs on the process default
execution engine (:func:`~repro.engine.set_default_engine`; the CLI's
``--workers`` / ``--cache-dir``), and the engine's store (memory, then
disk) skips the compile/featurize work for anything seen before.
"""

from __future__ import annotations

from typing import (
    Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.datasets.loader import Dataset
from repro.engine import default_engine
from repro.eval.config import ReproConfig
from repro.ml.crossval import stratified_kfold_indices
from repro.models.features import featurize_dataset
from repro.pipeline import CLASSIFIERS, FEATURIZERS, method_stage_specs, take


def binary_labels(dataset: Dataset) -> np.ndarray:
    return np.array([s.binary for s in dataset.samples])


def stage_specs(method: str, config: ReproConfig) -> Tuple[str, Any, str, Any]:
    """(featurizer name, config, classifier name, config) for a method.

    The single place a :class:`ReproConfig` is lowered onto pipeline
    stage specs — the paper drivers, the evaluation matrix, and the CLI
    all resolve methods through here so their cells are comparable.
    """
    return method_stage_specs(
        method,
        opt_level=config.ir2vec_opt if method == "ir2vec" else config.gnn_opt,
        embedding_seed=config.embedding_seed,
        normalization=config.normalization, ga_config=config.ga,
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


class FitJob(NamedTuple):
    """One classifier fit: train on one partition, predict another."""

    clf_name: str
    clf_cfg: Any
    X_train: Any
    y_train: Any
    X_test: Any


def fit_job(job: FitJob) -> Tuple[np.ndarray, Optional[Tuple[int, ...]]]:
    """Fit a fresh classifier from its spec and predict: the body of
    every fit in :mod:`repro.eval`.  Returns the predictions and the
    feature coordinates the model selected (``None`` for the GNN)."""
    model = CLASSIFIERS.create(job.clf_name, job.clf_cfg)
    model.fit(job.X_train, np.asarray(job.y_train))
    return (np.asarray(model.predict(job.X_test)),
            getattr(model, "selected", None))


def fit_all(jobs: Sequence[FitJob]
            ) -> List[Tuple[np.ndarray, Optional[Tuple[int, ...]]]]:
    """Run every job on the process default engine, in job order."""
    return default_engine().map(fit_job, jobs)


def cross_validate(config: ReproConfig,
                   runs: Sequence[Tuple[Dataset, Any, np.ndarray, str, Any]]
                   ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """K-fold CV of every ``(dataset, features, labels, clf name, clf
    config)`` run in one :func:`fit_all`; per run, ``(y_true, y_pred)``
    pooled over the validation folds in fold order."""
    plans = [(y, list(folds(dataset, config)))
             for dataset, _, y, _, _ in runs]
    jobs = [FitJob(clf_name, clf_cfg, take(X, tr), y[tr], take(X, va))
            for (_, X, y, clf_name, clf_cfg), (_, parts) in zip(runs, plans)
            for tr, va in parts]
    results = iter(fit_all(jobs))
    return [(np.concatenate([y[va] for _, va in parts]),
             np.concatenate([next(results)[0] for _ in parts]))
            for y, parts in plans]


def accuracy(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    return int(np.sum(np.asarray(y_true) == np.asarray(y_pred))) / len(y_true)


# ---------------------------------------------------------------------------
# Label ablations (Section V-E, Figs. 8 and 9)
# ---------------------------------------------------------------------------

def _ablation_accuracies(dataset: Dataset, config: ReproConfig,
                         excluded_sets: Sequence[Sequence[str]]
                         ) -> List[Dict[str, float]]:
    """Per excluded set: the share of each excluded label's samples
    still predicted Incorrect when no sample of any label in the set is
    in the training folds."""
    labels = np.array([s.label for s in dataset.samples])
    present = set(labels)
    for excluded in excluded_sets:
        absent = [lbl for lbl in excluded if lbl not in present]
        if absent:
            raise ValueError(
                f"no sample of {dataset.name} carries the ablated "
                f"label(s) {', '.join(map(repr, absent))}")
    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs("ir2vec", config)
    X = featurize(feat_name, feat_cfg, dataset)
    binary = binary_labels(dataset)
    parts = list(folds(dataset, config))

    jobs: List[FitJob] = []
    scored: List[Tuple[int, np.ndarray]] = []
    for n, excluded in enumerate(excluded_sets):
        held_out = np.isin(labels, list(excluded))
        for train_idx, val_idx in parts:
            targets = val_idx[held_out[val_idx]]
            if len(targets):
                kept = train_idx[~held_out[train_idx]]
                jobs.append(FitJob(clf_name, clf_cfg, X[kept], binary[kept],
                                   X[targets]))
                scored.append((n, labels[targets]))
    # Every sample of an excluded label is scored in its validation fold.
    hits = [dict.fromkeys(excluded, 0) for excluded in excluded_sets]
    for (n, truth), (pred, _) in zip(scored, fit_all(jobs)):
        for lbl in hits[n]:
            hits[n][lbl] += int(np.sum(pred[truth == lbl] == "Incorrect"))
    return [{lbl: hit / int(np.sum(labels == lbl)) for lbl, hit in h.items()}
            for h in hits]


def run_single_ablation(dataset: Dataset, config: ReproConfig,
                        labels: Sequence[str]) -> Dict[str, float]:
    """Fig. 8: leave-one-label-out detection accuracy per error label."""
    accs = _ablation_accuracies(dataset, config, [[lbl] for lbl in labels])
    return {label: acc[label] for label, acc in zip(labels, accs)}


def run_pair_ablation(dataset: Dataset, config: ReproConfig,
                      pairs: Sequence[Tuple[str, str]]
                      ) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Fig. 9: leave-two-labels-out; accuracy of (first, second) label."""
    accs = _ablation_accuracies(dataset, config, [list(p) for p in pairs])
    return {(first, second): (acc[first], acc[second])
            for (first, second), acc in zip(pairs, accs)}
