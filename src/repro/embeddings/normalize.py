"""Feature-vector normalization strategies from the paper (Section V-A).

* ``none``   — raw vectors (size-correlated magnitudes; the bias source),
* ``vector`` — each vector scaled into [0, 1] by its own max |coordinate|
               (the strategy the paper adopts: every code's vector is
               bounded independently of its size),
* ``index``  — each coordinate scaled by its max across the dataset.
"""

from __future__ import annotations

import numpy as np

NORMALIZATIONS = ("none", "vector", "index")


def normalize_features(features: np.ndarray, strategy: str = "vector",
                       reference: np.ndarray | None = None) -> np.ndarray:
    """Normalize a (n_samples, n_features) matrix.

    ``index`` normalization of a validation set must reuse the training
    set's per-coordinate maxima — pass them via ``reference``.
    """
    features = np.asarray(features, dtype=np.float64)
    if strategy == "none":
        return features
    if strategy == "vector":
        denom = np.max(np.abs(features), axis=1, keepdims=True)
        denom[denom == 0] = 1.0
        return features / denom
    if strategy == "index":
        basis = features if reference is None else reference
        denom = np.max(np.abs(basis), axis=0, keepdims=True)
        denom = np.where(denom == 0, 1.0, denom)
        return features / denom
    raise ValueError(f"unknown normalization {strategy!r}")
