"""CART decision tree with gini impurity (scikit-learn 1.0 defaults).

The paper's IR2vec model feeds its selected embedding coordinates to a
``sklearn.tree.DecisionTreeClassifier`` with default parameters: best-split
strategy, gini criterion, grown until pure.  This is that algorithm, with
vectorized split search (sort once per feature, evaluate every threshold
from cumulative class counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    prediction: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeClassifier:
    def __init__(self, max_depth: Optional[int] = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, random_state: int = 0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.root: Optional[_Node] = None
        self.classes_: Optional[np.ndarray] = None
        self.n_nodes = 0

    # ------------------------------------------------------------------ fit
    def fit(self, X: np.ndarray, y) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_nodes = 0
        self.root = self._grow(X, y_enc.astype(np.int64), depth=0)
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        self.n_nodes += 1
        node = _Node(prediction=int(np.bincount(y, minlength=len(self.classes_)).argmax()))
        if (len(y) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or len(np.unique(y)) == 1):
            return node
        feature, threshold = self._best_split(X, y)
        if feature < 0:
            return node
        mask = X[:, feature] <= threshold
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        n, d = X.shape
        k = len(self.classes_)
        # Like sklearn's default (min_impurity_decrease=0), zero-gain splits
        # are allowed: impure nodes keep splitting until pure (XOR etc.).
        best_gain = -1e-9
        best = (-1, 0.0)
        counts_total = np.bincount(y, minlength=k).astype(np.float64)
        gini_parent = 1.0 - ((counts_total / n) ** 2).sum()
        onehot = np.eye(k)[y]
        for j in range(d):
            order = np.argsort(X[:, j], kind="stable")
            xs = X[order, j]
            # Cumulative class counts for the left side of each threshold.
            left_counts = np.cumsum(onehot[order], axis=0)          # (n, k)
            valid = xs[:-1] < xs[1:]                                # distinct values
            if not valid.any():
                continue
            nl = np.arange(1, n, dtype=np.float64)
            lc = left_counts[:-1]
            rc = counts_total - lc
            nr = n - nl
            gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
            gini_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
            weighted = (nl * gini_l + nr * gini_r) / n
            gains = np.where(valid, gini_parent - weighted, -np.inf)
            idx = int(gains.argmax())
            if gains[idx] > best_gain:
                best_gain = float(gains[idx])
                best = (j, float((xs[idx] + xs[idx + 1]) / 2.0))
        return best

    # ------------------------------------------------------------------ predict
    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        assert self.root is not None and self.classes_ is not None, "not fitted"
        out = np.empty(len(X), dtype=np.int64)
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return self.classes_[out]

    def score(self, X: np.ndarray, y) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y)))
