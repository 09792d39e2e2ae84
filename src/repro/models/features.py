"""Dataset → feature batch on the execution engine.

The paper reuses one set of features across many scenarios (Intra, Mix
and Cross share vectors).  Reuse is the engine's job: its store caches
every compiled module and feature row by content, so featurizing the
same samples twice on one engine compiles nothing the second time.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.datasets.loader import Dataset
from repro.engine import ExecutionEngine, default_engine


def featurize_dataset(featurizer: Any, dataset: Dataset,
                      opt_level: Optional[str] = None,
                      engine: Optional[ExecutionEngine] = None) -> Any:
    """Feature batch for every sample of ``dataset``.

    ``featurizer`` is any :class:`~repro.pipeline.stages.Featurizer`;
    samples compile with the built-in frontend at ``opt_level`` (default:
    the featurizer's preferred IR level) on ``engine`` (default: the
    process-wide engine).
    """
    from repro.pipeline.stages import CFrontend

    level = opt_level or getattr(featurizer, "opt_level", "O0")
    eng = engine if engine is not None else default_engine()
    return eng.featurize_samples(CFrontend(opt_level=level), featurizer,
                                 dataset.samples)
