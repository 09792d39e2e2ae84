"""Serving configuration.

Every knob of the detection service lives in one frozen dataclass so the
CLI, the tests, and the benchmark all configure servers the same way:
``repro serve`` sets a field from its flag when the flag is given, and
Python callers pass the fields they need.  Unset fields keep the
defaults below.

Engine sharing: ``workers`` / ``cache_dir`` configure the single
:class:`~repro.engine.ExecutionEngine` every loaded model runs on
(``None`` keeps the process default engine's setting, which comes from
``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``), so hot reloads keep the warm
worker pool and the persistent content-addressed cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the micro-batching detection service."""

    host: str = "127.0.0.1"
    port: int = 8321                 # 0 binds an ephemeral port
    max_batch: int = 16              # samples coalesced per predict_batch
    max_queue: int = 256             # queued samples before 429 backpressure
    poll_interval_s: float = 0.0     # artifact mtime polling; 0 disables
    max_body_bytes: int = 8 * 1024 * 1024
    workers: Optional[int] = None    # engine workers (None → $REPRO_WORKERS)
    cache_dir: Optional[str] = None  # engine cache (None → $REPRO_CACHE_DIR)
    trace: bool = True               # trace spans + metrics + /v1/trace ring
    trace_ring: int = 256            # completed traces kept in memory
    obs_log: Optional[str] = None    # event-log sink (None → $REPRO_OBS_LOG)

    def __post_init__(self):
        if self.port < 0 or self.port > 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.poll_interval_s < 0:
            raise ValueError("poll_interval_s must be >= 0")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        if self.trace_ring < 1:
            raise ValueError("trace_ring must be >= 1")
