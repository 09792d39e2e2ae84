"""Parallel corpus execution engine with tiered content-addressed caching.

``repro.engine`` is the substrate every corpus-scale code path runs on:
:class:`ExecutionEngine` fans the frontend/featurizer stages out over a
worker pool (deterministic, order-preserving chunks; ``workers=0`` = the
serial fallback) and backs each stage with one
:class:`~repro.engine.cache.ContentStore` keyed on content digests of
(source, stage, stage config, code version) — a bounded memory tier,
then disk when a cache directory is set, then the fleet CAS — so re-runs
of ``fit``, ``predict_batch``, eval scenarios, and benchmarks never
recompile or re-featurize anything whose inputs haven't changed.

The process-wide :func:`default_engine` is what
:class:`~repro.pipeline.DetectionPipeline` and the eval drivers use
unless handed an engine explicitly; :func:`configure` (or the
``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` environment variables, or the
CLI's ``--workers`` / ``--cache-dir`` flags) changes it for the process.
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
    configure,
    default_engine,
    set_default_engine,
    stage_identity,
)

__all__ = [
    "ExecutionEngine", "EngineConfig",
    "default_engine", "configure", "set_default_engine",
    "ContentStore", "CacheStats", "LRUCache",
    "COMPILE_STAGE", "FEATURE_STAGE", "MEMORY_ENTRIES",
    "DEFAULT_MEMORY_ENTRIES",
    "ENGINE_CACHE_VERSION", "code_version", "digest_parts",
    "stage_identity",
]
