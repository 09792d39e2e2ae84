"""Parallel corpus execution engine with tiered content-addressed caching.

``repro.engine`` is the substrate every corpus-scale code path runs on:
:class:`ExecutionEngine` fans the frontend/featurizer stages out over a
worker pool (deterministic, order-preserving chunks; ``workers=0`` = the
serial fallback) and backs each stage with one
:class:`~repro.engine.cache.ContentStore` keyed on content digests of
(source, stage, stage config, code version) — a bounded memory tier,
then disk when a cache directory is set — so re-runs
of ``fit``, ``predict_batch``, eval scenarios, and benchmarks never
recompile or re-featurize anything whose inputs haven't changed.

The process-wide :func:`default_engine` is what
:class:`~repro.pipeline.DetectionPipeline` and the eval drivers use
unless handed an engine explicitly.  It starts serial with a memory
tier only; :func:`set_default_engine` replaces it for the process (the
CLI's ``--workers`` / ``--cache-dir`` flags do), with an
:class:`ExecutionEngine` built from an :class:`EngineConfig`.
"""

from repro.engine.cache import (
    COMPILE_STAGE,
    DEFAULT_MEMORY_ENTRIES,
    ENGINE_CACHE_VERSION,
    FEATURE_STAGE,
    MEMORY_ENTRIES,
    CacheStats,
    ContentStore,
    LRUCache,
    code_version,
    digest_parts,
)
from repro.engine.engine import (
    EngineConfig,
    ExecutionEngine,
    default_engine,
    set_default_engine,
    stage_identity,
)

__all__ = [
    "ExecutionEngine", "EngineConfig",
    "default_engine", "set_default_engine",
    "ContentStore", "CacheStats", "LRUCache",
    "COMPILE_STAGE", "FEATURE_STAGE", "MEMORY_ENTRIES",
    "DEFAULT_MEMORY_ENTRIES",
    "ENGINE_CACHE_VERSION", "code_version", "digest_parts",
    "stage_identity",
]
