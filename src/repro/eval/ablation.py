"""Label-ablation studies (paper Section V-E, Figs. 8 and 9).

Single ablation: for each error label, train binary models on folds with
*every sample of that label removed from training*, then measure how
often held-out samples of the removed label are still predicted
Incorrect — the model's generalization to unseen error types.

Pair ablation: remove two labels simultaneously and measure each
(quantifies shared code patterns between error types).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.loader import Dataset
from repro.eval.config import ReproConfig
from repro.ml.crossval import stratified_kfold_indices
from repro.pipeline import make_classifier


def _ablation_accuracy(dataset: Dataset, excluded: Sequence[str],
                       config: ReproConfig) -> Dict[str, float]:
    """Detection accuracy of each excluded label when absent in training."""
    X = config.ir2vec_features(dataset)
    labels = np.array([s.label for s in dataset.samples])
    binary = np.array([s.binary for s in dataset.samples])
    excluded_set = set(excluded)

    hits = {lbl: 0 for lbl in excluded}
    totals = {lbl: 0 for lbl in excluded}
    for train_idx, val_idx in stratified_kfold_indices(
            list(labels), config.folds, config.seed):
        keep = np.array([labels[i] not in excluded_set for i in train_idx])
        train_kept = train_idx[keep]
        model = make_classifier("decision-tree",
                                normalization=config.normalization,
                                use_ga=True, ga=config.ga)
        model.fit(X[train_kept], binary[train_kept])
        targets = [i for i in val_idx if labels[i] in excluded_set]
        if not targets:
            continue
        pred = model.predict(X[targets])
        for i, p in zip(targets, pred):
            totals[labels[i]] += 1
            if p == "Incorrect":
                hits[labels[i]] += 1
    return {lbl: (hits[lbl] / totals[lbl] if totals[lbl] else 0.0)
            for lbl in excluded}


def run_single_ablation(dataset: Dataset, config: ReproConfig,
                        labels: Sequence[str]) -> Dict[str, float]:
    """Fig. 8: leave-one-label-out detection accuracy per error label."""
    results: Dict[str, float] = {}
    for label in labels:
        results[label] = _ablation_accuracy(dataset, [label], config)[label]
    return results


def run_pair_ablation(dataset: Dataset, config: ReproConfig,
                      pairs: Sequence[Tuple[str, str]]
                      ) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Fig. 9: leave-two-labels-out; accuracy of (first, second) label."""
    results: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for first, second in pairs:
        acc = _ablation_accuracy(dataset, [first, second], config)
        results[(first, second)] = (acc[first], acc[second])
    return results
