"""The fleet front door: consistent-hash routing over serve replicas.

One asyncio process that owns two things:

* the **router** — ``POST /v1/check`` / ``/v1/analyze`` are routed onto
  a replica by rendezvous-hashing the request's *content digest* (the
  sha256 of its source texts), so repeats of the same sources land on
  the same replica and its warm memory tier;
* the **supervisor** (:class:`~repro.fleet.supervisor.ReplicaSupervisor`)
  holding the ``repro serve`` subprocesses, which all cache in one
  shared directory — what makes even a *re-routed* digest warm: the
  first replica's compile is a disk hit for its successor.

Failure semantics: a dead replica is skipped at routing time (its
rendezvous successor takes the digest — ``rerouted`` counter); a
connection that drops mid-forward is retried on the next candidate
(``/v1/check`` is pure, so replays are safe); a replica answering 429
passes the request to the next candidate, and only when *every* live
replica sheds does the front door answer 429 + ``Retry-After``
(``shed``).  No client ever sees a 5xx for a replica death — only for
genuine server faults or an empty fleet.

Endpoints mirror the single-process service (``docs/fleet.md``):

==========================  ===============================================
``POST /v1/check``          routed by content digest
``POST /v1/analyze``        routed by content digest
``POST /v1/repair``         routed by content digest
``GET /healthz``            fleet liveness (alive/total replicas)
``GET /metrics``            JSON (or Prometheus text) incl. routing
``GET /v1/model``           forwarded to the first live replica
``GET /v1/fleet``           topology: replicas, cache dir, routing counters
``POST /v1/reload``         broadcast to every live replica
``GET /v1/trace/<id>``      front-door trace *merged* with replica spans
``GET /v1/traces``          front-door trace ring summaries
==========================  ===============================================

The front door speaks the same HTTP dialect as the replicas
(:mod:`repro.serve.http` owns it, its limits and the connection loop),
and relays a replica's reply body byte-for-byte.  Cross-hop tracing:
every forward carries ``X-Repro-Trace`` (the front door's trace id) and
``X-Repro-Parent`` (its root span id); replicas adopt both, so
``GET /v1/trace/<id>`` can stitch the full front-door → replica →
engine → worker span tree from the replicas' rings.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import enable_all
from repro.obs.log import EVENTS
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER, new_id
from repro.fleet.config import FleetConfig
from repro.fleet.supervisor import (
    STARTUP_TIMEOUT_S,
    Replica,
    ReplicaSupervisor,
)
from repro.serve.http import (
    PROM_CONTENT_TYPE,
    RETRY_AFTER_S,
    TRACE_PREFIX,
    HTTPService,
    RawResponse,
    Response,
    ServiceRunner,
    error_response,
    read_reply,
    wants_prometheus,
)
from repro.serve.server import named_sources, parse_json

#: path → allowed methods (front-door surface).
_ROUTES = {
    "/healthz": ("GET",),
    "/metrics": ("GET",),
    "/v1/model": ("GET",),
    "/v1/fleet": ("GET",),
    "/v1/check": ("POST",),
    "/v1/analyze": ("POST",),
    "/v1/repair": ("POST",),
    "/v1/reload": ("POST",),
    "/v1/traces": ("GET",),
}

#: Paths forwarded to a digest-routed replica.
_ROUTED_PATHS = ("/v1/check", "/v1/analyze", "/v1/repair")

#: Idle keep-alive connections retained per replica address.
_POOL_PER_REPLICA = 4

#: Seconds to open a connection to a replica before failing over.
CONNECT_TIMEOUT_S = 5.0

#: Completed front-door traces kept for ``GET /v1/trace/<id>``.
TRACE_RING = 256

#: Seconds between the supervision loop's checks for crashed replicas.
RESTART_POLL_S = 0.5

#: A replica that is dead, dying or garbled: fail over to the next one.
_FORWARD_ERRORS = (OSError, asyncio.TimeoutError,
                   asyncio.IncompleteReadError, ValueError)

_FLEET_REQ_TOTAL = METRICS.counter(
    "repro_fleet_requests_total",
    "Front-door requests by path and status.", labelnames=("path", "status"))
_FLEET_REQ_SECONDS = METRICS.histogram(
    "repro_fleet_request_seconds",
    "Front-door request latency by path.", labelnames=("path",))
_FLEET_REROUTED = METRICS.counter(
    "repro_fleet_rerouted_total",
    "Requests moved off their rendezvous-first replica.")
_FLEET_SHED = METRICS.counter(
    "repro_fleet_shed_total",
    "Requests shed with 429 because every live replica shed.")
_FLEET_REPLICAS_ALIVE = METRICS.gauge(
    "repro_fleet_replicas_alive", "Live replica subprocesses.")
_FLEET_CONNS_OPENED = METRICS.counter(
    "repro_fleet_connections_opened_total",
    "TCP connections the front door opened to replicas.")
_FLEET_CONNS_REUSED = METRICS.counter(
    "repro_fleet_connections_reused_total",
    "Forwards served over a pooled keep-alive connection.")
_FLEET_RESTARTS = METRICS.counter(
    "repro_fleet_restarts_total",
    "Replica subprocesses auto-restarted by the supervisor.")


def routing_digest(items: Sequence[Tuple[str, str]]) -> str:
    """Content digest of a request's source texts — the routing key.

    Names are deliberately excluded: the cache keys downstream hash the
    (name, source) pair, but routing only needs *stable placement* per
    content, and clients commonly resubmit the same source under
    autogenerated names.
    """
    h = hashlib.sha256()
    for _name, source in items:
        blob = source.encode("utf-8")
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def rendezvous_order(digest: str, replicas: Sequence[Replica],
                     ) -> List[Replica]:
    """Replicas by descending rendezvous weight for ``digest``.

    Highest-random-weight hashing: each replica's weight is
    ``sha256(digest | replica_index)``; the winner owns the digest, the
    runner-up inherits it if the winner dies — and *only* the keys the
    dead replica owned move (minimal disruption, no ring to rebalance).
    """
    def weight(replica: Replica) -> bytes:
        return hashlib.sha256(
            f"{digest}|{replica.index}".encode("utf-8")).digest()

    return sorted(replicas, key=weight, reverse=True)


class _ReplicaShed(Exception):
    """A replica answered 429 for this forward."""

    def __init__(self, retry_after: Optional[str]):
        self.retry_after = retry_after


class FleetFrontDoor(HTTPService):
    """Router + supervisor on one event loop."""

    ROUTES = _ROUTES
    REQUEST_SECONDS = _FLEET_REQ_SECONDS
    REQUESTS_TOTAL = _FLEET_REQ_TOTAL

    def __init__(self, model_path: str,
                 config: Optional[FleetConfig] = None):
        super().__init__()
        self.model_path = model_path
        self.config = config or FleetConfig()
        self.supervisor: Optional[ReplicaSupervisor] = None
        self.counters: Dict[str, int] = {
            "routed": 0, "rerouted": 0, "shed": 0, "forward_errors": 0,
            "broadcasts": 0, "conn_opened": 0, "conn_reused": 0,
        }
        # Idle keep-alive connections, keyed by replica address (not
        # index: a restarted replica gets a fresh port, so its dead
        # predecessor's sockets can never be confused with it).
        self._pool: Dict[Tuple[str, int],
                         List[Tuple[asyncio.StreamReader,
                                    asyncio.StreamWriter]]] = {}
        self._supervise_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        enable_all(ring_size=TRACE_RING)
        self.supervisor = ReplicaSupervisor(self.model_path, self.config)
        loop = asyncio.get_running_loop()
        # Readiness polling blocks; keep the loop free while replicas
        # warm up.
        await loop.run_in_executor(None, self.supervisor.start)
        await self._listen()
        self._supervise_task = asyncio.ensure_future(self._supervise())
        EVENTS.emit("fleet.start", port=self.port,
                    cache_dir=self.supervisor.cache_dir,
                    replicas=[r.port for r in self.supervisor.replicas])

    async def stop(self) -> None:
        EVENTS.emit("fleet.stop", port=self.port)
        if self._supervise_task is not None:
            self._supervise_task.cancel()
            try:
                await self._supervise_task
            except asyncio.CancelledError:
                pass
            self._supervise_task = None
        await self._close_listener()
        for host, port in list(self._pool):
            self._drop_pool(host, port)
        if self.supervisor is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.supervisor.stop)
        TRACER.disable()
        METRICS.enabled = False

    def _alive(self) -> List[Replica]:
        return self.supervisor.alive() if self.supervisor else []

    async def _supervise(self) -> None:
        """Bring crashed replicas back.

        Polls the supervisor; a replica that died *without* being
        decommissioned (``kill``) is respawned with exponential backoff.
        The restarted process listens on a fresh port, so idle pooled
        connections to the old address are dropped — they could never be
        confused with the new replica, only rot in the pool.
        """
        assert self.supervisor is not None
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(RESTART_POLL_S)
            try:
                restarted = await loop.run_in_executor(
                    None, self.supervisor.maybe_restart)
            except Exception as exc:       # a failed respawn retries later
                EVENTS.emit("fleet.restart_error", severity="error",
                            error=f"{type(exc).__name__}: {exc}")
                continue
            for index, old_port in restarted:
                if METRICS.enabled:
                    _FLEET_RESTARTS.inc()
                self._drop_pool(self.config.host, old_port)
                replica = self.supervisor.replicas[index]
                EVENTS.emit("fleet.restart", replica=index,
                            old_port=old_port, new_port=replica.port)

    # -- forwarding ---------------------------------------------------------
    def _discard(self, writer: asyncio.StreamWriter) -> None:
        """Close a connection we will not pool (best-effort, non-blocking
        — the transport finishes closing on the event loop)."""
        try:
            writer.close()
        except Exception:
            pass

    def _drop_pool(self, host: str, port: int) -> None:
        """Forget (and close) every idle connection to one address —
        called when a replica at that address is gone for good."""
        for _reader, writer in self._pool.pop((host, port), []):
            self._discard(writer)

    async def _acquire(self, replica: Replica,
                       ) -> Tuple[asyncio.StreamReader,
                                  asyncio.StreamWriter, bool]:
        """A connection to ``replica``: pooled keep-alive if one looks
        healthy, else fresh.  Returns (reader, writer, reused)."""
        idle = self._pool.get((replica.host, replica.port))
        while idle:
            reader, writer = idle.pop()
            if writer.is_closing() or reader.at_eof():
                self._discard(writer)
                continue
            return reader, writer, True
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(replica.host, replica.port),
            timeout=CONNECT_TIMEOUT_S)
        self.counters["conn_opened"] += 1
        if METRICS.enabled:
            _FLEET_CONNS_OPENED.inc()
        return reader, writer, False

    def _release(self, replica: Replica, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        """Return a healthy connection to the idle pool (bounded)."""
        if writer.is_closing() or reader.at_eof():
            self._discard(writer)
            return
        idle = self._pool.setdefault((replica.host, replica.port), [])
        if len(idle) >= _POOL_PER_REPLICA:
            self._discard(writer)
            return
        idle.append((reader, writer))

    async def _forward(self, replica: Replica, method: str, path: str,
                       body: bytes, trace_id: str, parent_id: str,
                       ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP exchange with one replica over a pooled keep-alive
        connection.

        A pooled connection can be stale (the replica restarted, or
        closed an idle socket); a failure on a *reused* connection is
        retried on the next connection — down the pool and finally a
        fresh one — so a rotten socket never masquerades as a replica
        death.  Only a fresh-connection failure propagates to the
        caller's failover logic.
        """
        while True:
            reader, writer, reused = await self._acquire(replica)
            try:
                head = (f"{method} {path} HTTP/1.1\r\n"
                        f"Host: {replica.addr}\r\n"
                        f"Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        f"Connection: keep-alive\r\n"
                        f"X-Repro-Trace: {trace_id}\r\n"
                        f"X-Repro-Parent: {parent_id}\r\n\r\n")
                writer.write(head.encode("latin-1") + body)
                await writer.drain()
                status, headers, payload = await asyncio.wait_for(
                    read_reply(reader),
                    timeout=self.config.request_timeout_s)
            except _FORWARD_ERRORS:
                self._discard(writer)
                if reused:
                    continue
                raise
            if reused:
                self.counters["conn_reused"] += 1
                if METRICS.enabled:
                    _FLEET_CONNS_REUSED.inc()
            if headers.get("connection", "").lower() == "close":
                self._discard(writer)
            else:
                self._release(replica, reader, writer)
            return status, headers, payload

    async def _route(self, method: str, path: str, body: bytes,
                     trace_id: str, parent_id: str) -> Response:
        """Digest-route one request, failing over down the rendezvous
        order; raises nothing — degradation is encoded in the status."""
        items = named_sources(parse_json(body))
        digest = routing_digest(items)
        # Rendezvous order over the *whole* fleet, dead replicas skipped
        # at forward time: a request served by anyone but the full-fleet
        # owner (position 0) counts as rerouted, including requests whose
        # owner just died.  (Restricting HRW to survivors yields the same
        # serving replica — subsetting preserves the sort order — but
        # would hide the reroute.)
        replicas = self.supervisor.replicas if self.supervisor else []
        order = rendezvous_order(digest, replicas)
        candidates = [(position, replica)
                      for position, replica in enumerate(order)
                      if replica.alive]
        if not candidates:
            return error_response(503, "no_replicas",
                                  "no live replicas in the fleet")
        shed_retry: Optional[str] = None
        for position, replica in candidates:
            started = time.time()
            try:
                status, headers, payload = await self._forward(
                    replica, method, path, body, trace_id, parent_id)
            except _FORWARD_ERRORS:
                # Dead or dying replica (killed mid-campaign, connection
                # refused/reset, garbled reply): fail over.  /v1/check
                # and /v1/analyze are pure, so a replay is safe.
                self.counters["forward_errors"] += 1
                TRACER.record("fleet.forward", kind="fleet",
                              start_s=started,
                              elapsed_s=time.time() - started,
                              attrs={"replica": replica.index,
                                     "outcome": "error"})
                continue
            if status == 429:
                shed_retry = headers.get("retry-after")
                TRACER.record("fleet.forward", kind="fleet",
                              start_s=started,
                              elapsed_s=time.time() - started,
                              attrs={"replica": replica.index,
                                     "outcome": "shed"})
                continue
            self.counters["routed"] += 1
            if position > 0:
                self.counters["rerouted"] += 1
                if METRICS.enabled:
                    _FLEET_REROUTED.inc()
            TRACER.record("fleet.forward", kind="fleet", start_s=started,
                          elapsed_s=time.time() - started,
                          attrs={"replica": replica.index,
                                 "status": status,
                                 "rerouted": position > 0})
            return status, _relay(headers, payload), {}
        if shed_retry is not None:
            # Every live replica shed: propagate backpressure, never
            # queue at the front door (unbounded fleet-level backlogs
            # are exactly what per-replica bounded queues prevent).
            self.counters["shed"] += 1
            if METRICS.enabled:
                _FLEET_SHED.inc()
            try:
                retry_after = int(shed_retry)
            except (TypeError, ValueError):
                retry_after = RETRY_AFTER_S
            return error_response(429, "fleet_saturated",
                                  "every live replica is shedding load",
                                  retry_after=retry_after)
        return error_response(503, "no_replicas",
                              "every live replica failed to answer")

    # -- endpoints ----------------------------------------------------------
    async def handle(self, method: str, path: str, body: bytes,
                     headers: Optional[Dict[str, str]] = None,
                     query: str = "") -> Response:
        """Route one request.  Forwards carry the ``x-repro-trace`` /
        ``x-repro-parent`` ids the connection loop put in ``headers``."""
        refused = self._route_error(method, path)
        if refused is not None:
            return refused
        headers = headers or {}
        trace_id = headers.get("x-repro-trace", "")
        parent_id = headers.get("x-repro-parent", "")
        try:
            if path in _ROUTED_PATHS:
                return await self._route(method, path, body, trace_id,
                                         parent_id)
            if path == "/healthz":
                return self._handle_health()
            if path == "/metrics":
                return self._handle_metrics(headers, query)
            if path == "/v1/model":
                return await self._handle_model(trace_id, parent_id)
            if path == "/v1/fleet":
                return self._handle_fleet()
            if path == "/v1/traces":
                return self._handle_traces()
            if path.startswith(TRACE_PREFIX):
                return await self._handle_trace(path[len(TRACE_PREFIX):])
            return await self._handle_reload(body, trace_id, parent_id)
        except ValueError as exc:
            # parse_json/named_sources raise _BadRequest (a ValueError).
            return error_response(400, "bad_request", str(exc))
        except Exception as exc:
            EVENTS.emit("fleet.error", severity="error", path=path,
                        error=f"{type(exc).__name__}: {exc}")
            return error_response(500, "internal",
                                  f"{type(exc).__name__}: {exc}")

    def _handle_health(self) -> Tuple[int, Any, Dict[str, str]]:
        alive = self._alive()
        total = len(self.supervisor.replicas) if self.supervisor else 0
        if not alive:
            return error_response(503, "no_replicas",
                                  "no live replicas in the fleet",
                                  replicas_alive=0, replicas_total=total)
        return 200, {"status": "ok", "replicas_alive": len(alive),
                     "replicas_total": total}, {}

    def _handle_metrics(self, headers: Dict[str, str],
                        query: str) -> Response:
        if wants_prometheus(headers, query):
            if METRICS.enabled:
                _FLEET_REPLICAS_ALIVE.set(len(self._alive()))
            body = METRICS.render_prometheus().encode("utf-8")
            return 200, RawResponse(PROM_CONTENT_TYPE, body), {}
        return 200, self.metrics(), {}

    def metrics(self) -> Dict[str, Any]:
        return {
            "uptime_s": round(time.time() - self.started_at, 3)
            if self.started_at else 0.0,
            "requests_by_status": {str(k): v for k, v in sorted(
                self.requests_by_status.items())},
            "fleet": self._routing(),
            "replicas": [r.as_dict() for r in
                         (self.supervisor.replicas if self.supervisor
                          else [])],
            "telemetry": METRICS.as_dict(),
            "tracing": TRACER.stats(),
        }

    def _routing(self) -> Dict[str, int]:
        """Routing counters plus the supervisor's restart count (kept
        there so it never lags the topology ``/healthz`` reports)."""
        restarts = self.supervisor.restarts if self.supervisor else 0
        return dict(self.counters, restarts=restarts)

    def _handle_fleet(self) -> Tuple[int, Any, Dict[str, str]]:
        return 200, {
            "model_path": self.model_path,
            "cache_dir": (self.supervisor.cache_dir if self.supervisor
                          else None),
            "replicas": [r.as_dict() for r in
                         (self.supervisor.replicas if self.supervisor
                          else [])],
            "routing": self._routing(),
        }, {}

    async def _handle_model(self, trace_id: str, parent_id: str,
                            ) -> Tuple[int, Any, Dict[str, str]]:
        for replica in self._alive():
            try:
                status, headers, payload = await self._forward(
                    replica, "GET", "/v1/model", b"", trace_id, parent_id)
                return status, _relay(headers, payload), {}
            except _FORWARD_ERRORS:
                self.counters["forward_errors"] += 1
                continue
        return error_response(503, "no_replicas",
                              "no live replicas in the fleet")

    async def _handle_reload(self, body: bytes, trace_id: str,
                             parent_id: str,
                             ) -> Tuple[int, Any, Dict[str, str]]:
        parse_json(body)                           # validate early → 400
        self.counters["broadcasts"] += 1
        outcomes: List[Dict[str, Any]] = []
        worst = 200
        for replica in self._alive():
            try:
                status, _headers, payload = await self._forward(
                    replica, "POST", "/v1/reload", body, trace_id,
                    parent_id)
                outcomes.append({"replica": replica.index,
                                 "status": status,
                                 "response": json.loads(payload)})
                worst = max(worst, status)
            except _FORWARD_ERRORS:
                self.counters["forward_errors"] += 1
                outcomes.append({"replica": replica.index,
                                 "status": None, "response": None})
                worst = max(worst, 503)
        if not outcomes:
            return error_response(503, "no_replicas",
                                  "no live replicas in the fleet")
        if worst >= 400:
            return error_response(worst, "reload_failed",
                                  "one or more replicas failed to reload",
                                  replicas=outcomes)
        return 200, {"reloaded": True, "replicas": outcomes}, {}

    async def _handle_trace(self, trace_id: str,
                            ) -> Tuple[int, Any, Dict[str, str]]:
        """The front door's trace for ``trace_id``, with every live
        replica's spans for the *same* id stitched in (replicas adopted
        the id at forward time)."""
        doc = TRACER.get_trace(trace_id)
        merged: List[Dict[str, Any]] = list(doc["spans"]) if doc else []
        replica_hits = 0
        for replica in self._alive():
            try:
                status, _headers, payload = await self._forward(
                    replica, "GET", TRACE_PREFIX + trace_id, b"",
                    new_id(), "")
            except _FORWARD_ERRORS:
                continue
            if status != 200:
                continue
            try:
                replica_doc = json.loads(payload.decode("utf-8"))
            except ValueError:
                continue
            replica_hits += 1
            merged.extend(replica_doc.get("spans") or [])
        if doc is None and replica_hits == 0:
            return error_response(404, "trace_not_found",
                                  f"no recent trace {trace_id!r}",
                                  tracing_enabled=TRACER.enabled)
        seen = set()
        spans = []
        for span in merged:
            key = span.get("span_id")
            if key in seen:
                continue
            seen.add(key)
            spans.append(span)
        out = dict(doc) if doc else {"trace_id": trace_id}
        out["spans"] = spans
        out["replica_rings_consulted"] = replica_hits
        return 200, out, {}


def _relay(headers: Dict[str, str], body: bytes) -> RawResponse:
    """A replica's reply body, passed to the client byte-for-byte."""
    return RawResponse(headers.get("content-type", "application/json"),
                       body)


# ---------------------------------------------------------------------------
# Running fleets: blocking (CLI) and background-thread (tests, bench)
# ---------------------------------------------------------------------------

def serve_fleet(model_path: str,
                config: Optional[FleetConfig] = None) -> None:
    """Blocking entry point: run the fleet until interrupted."""
    config = config or FleetConfig()
    door = FleetFrontDoor(model_path, config)

    def banner() -> str:
        return (f"fleet front door on http://{config.host}:{door.port} "
                f"({config.replicas} replicas, cache "
                f"{door.supervisor.cache_dir})")

    ServiceRunner(door, name="repro-fleet",
                  timeout=STARTUP_TIMEOUT_S + 60).run(banner)


class BackgroundFleet(ServiceRunner):
    """A :class:`FleetFrontDoor` on its own thread + event loop.

    >>> with BackgroundFleet(model_path, FleetConfig(port=0)) as fleet:
    ...     urllib.request.urlopen(fleet.base_url + "/healthz")
    """

    def __init__(self, model_path: str,
                 config: Optional[FleetConfig] = None):
        self.model_path = model_path
        self.config = config or FleetConfig(port=0)
        self.door = FleetFrontDoor(model_path, self.config)
        super().__init__(self.door, name="repro-fleet",
                         timeout=STARTUP_TIMEOUT_S + 60)

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def kill_replica(self, index: int) -> None:
        """Failure injection: decommission one replica mid-campaign
        (the supervisor will *not* restart it — dead stays dead)."""
        if self.door.supervisor is None:
            raise RuntimeError("fleet is not running")
        self.door.supervisor.kill(index)

    def crash_replica(self, index: int) -> None:
        """Failure injection: simulate an *unexpected* replica crash —
        the supervision loop is expected to restart it."""
        if self.door.supervisor is None:
            raise RuntimeError("fleet is not running")
        self.door.supervisor.crash(index)
