"""Async micro-batching detection service with hot-reloadable artifacts.

``repro.serve`` is the online front door over the batch-first
:class:`~repro.pipeline.DetectionPipeline`: a stdlib-only asyncio HTTP
JSON service whose micro-batching scheduler coalesces concurrent
``POST /v1/check`` requests into the ``predict_batch`` calls the
embedding/classifier stages are optimized for, with bounded-queue
backpressure (429 + ``Retry-After``) and atomic hot reloads of
versioned pipeline artifacts (``POST /v1/reload`` or mtime polling)
that never drop in-flight requests.

Entry points: ``repro serve`` / ``repro bench-serve`` on the CLI,
:func:`serve` / :class:`BackgroundServer` from Python.  See
``docs/serving.md``.
"""

from repro.serve.batching import BatcherMetrics, MicroBatcher, QueueFullError
from repro.serve.config import ServeConfig
from repro.serve.http import error_response
from repro.serve.loadgen import (
    ServeClient,
    batching_delta,
    measure_regimes,
    run_load,
)
from repro.serve.registry import LoadedModel, ModelRegistry, artifact_mtime
from repro.serve.server import (
    BackgroundServer,
    DetectionServer,
    build_engine,
    serve,
)

__all__ = [
    "ServeConfig",
    "MicroBatcher", "BatcherMetrics", "QueueFullError",
    "ModelRegistry", "LoadedModel", "artifact_mtime",
    "DetectionServer", "BackgroundServer", "serve", "build_engine",
    "error_response",
    "ServeClient", "run_load", "batching_delta", "measure_regimes",
]
