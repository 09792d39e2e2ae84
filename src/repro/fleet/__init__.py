"""Replica fleet: N serve processes, one front door, one shared CAS.

``repro.serve`` scales a *single* process (micro-batching, a worker
pool); this package scales *out*:

* :mod:`repro.fleet.cas` — a length-prefixed network content-address
  store; replica engines mount it as the second tier of a
  :class:`~repro.fleet.cas.TieredStore` (local disk → fleet), so a
  compile paid once is warm fleet-wide;
* :mod:`repro.fleet.supervisor` — spawns/monitors the ``repro serve``
  subprocesses, each with a *private* local cache;
* :mod:`repro.fleet.frontdoor` — rendezvous-hashes request content
  digests onto replicas, fails over when one dies, propagates traces
  across the hop, and sheds load only when every replica sheds.

See ``docs/fleet.md``.
"""

from repro.fleet.cas import (
    BackgroundCAS,
    CASClient,
    CASServer,
    TieredStore,
    parse_addr,
    shared_client,
)
from repro.fleet.config import FleetConfig
from repro.fleet.frontdoor import (
    BackgroundFleet,
    FleetFrontDoor,
    rendezvous_order,
    routing_digest,
    serve_fleet,
)
from repro.fleet.supervisor import Replica, ReplicaSupervisor, free_port

__all__ = [
    "BackgroundCAS",
    "BackgroundFleet",
    "CASClient",
    "CASServer",
    "FleetConfig",
    "FleetFrontDoor",
    "Replica",
    "ReplicaSupervisor",
    "TieredStore",
    "free_port",
    "parse_addr",
    "rendezvous_order",
    "routing_digest",
    "serve_fleet",
    "shared_client",
]
