"""Fleet configuration.

Same pattern as :class:`~repro.serve.ServeConfig`: one frozen dataclass
whose fields ``repro fleet`` sets from its flags, and Python callers
pass directly.  Values no deployment has needed to change are module
constants next to the code that reads them: the Retry-After the front
door advertises (:data:`repro.serve.http.RETRY_AFTER_S`), its replica
connect timeout and trace ring (:mod:`repro.fleet.frontdoor`), and the
replica startup deadline and restart backoff
(:mod:`repro.fleet.supervisor`).

``cache_dir`` is the *base* directory: the supervisor gives replica *i*
its own ``<cache_dir>/replica<i>`` subtree, which is what makes the
cross-replica CAS test honest — a warm hit on replica B can only have
come through the network tier, never a shared filesystem path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the replica fleet: front door, supervisor, shared CAS."""

    host: str = "127.0.0.1"
    port: int = 8320                   # 0 binds an ephemeral port
    replicas: int = 2                  # repro.serve subprocesses
    cas_max_bytes: int = 256 * 1024 * 1024
    request_timeout_s: float = 300.0   # cold GNN compiles are slow
    max_body_bytes: int = 8 * 1024 * 1024
    workers: Optional[int] = None      # per-replica engine workers
    cache_dir: Optional[str] = None    # base dir; replicas get subdirs

    def __post_init__(self):
        if self.port < 0 or self.port > 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.cas_max_bytes < 1:
            raise ValueError("cas_max_bytes must be positive")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
