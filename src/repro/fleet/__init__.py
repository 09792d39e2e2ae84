"""Replica fleet: N serve processes, one front door, one shared cache.

``repro.serve`` scales a *single* process (micro-batching, a worker
pool); this package scales *out*:

* :mod:`repro.fleet.supervisor` — spawns/monitors the ``repro serve``
  subprocesses, all on one shared cache directory, so a compile paid
  once by any replica is a disk hit for every other;
* :mod:`repro.fleet.frontdoor` — rendezvous-hashes request content
  digests onto replicas, fails over when one dies, propagates traces
  across the hop, and sheds load only when every replica sheds.

See ``docs/fleet.md``.
"""

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
    "BackgroundFleet",
    "FleetConfig",
    "FleetFrontDoor",
    "Replica",
    "ReplicaSupervisor",
    "free_port",
    "rendezvous_order",
    "routing_digest",
    "serve_fleet",
]
