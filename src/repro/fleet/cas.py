"""Fleet-shared network CAS: the third cache tier, behind every replica's
memory and disk tiers.

The execution engine already never redoes work *within* a process tree,
because every stage result lands in the content-addressed
:class:`~repro.engine.cache.ContentStore` (memory tier, then disk).  A
replica fleet breaks that economy: each replica has its own cache directory, so the same source
digest compiles cold once per replica.  This module closes the gap with
a tiny content-addressed cache service that the front door hosts and
every replica (and every pool worker forked by a replica) consults:

:class:`CASServer`
    An asyncio server holding a byte-bounded in-memory LRU of opaque
    blobs keyed by the engine's existing store digests.  It runs on the
    front door's event loop, so the fleet needs no extra process.
:class:`CASClient`
    A blocking, reconnecting client (one per process per address —
    see :func:`shared_client`; sockets never survive a ``fork``).
:class:`TieredStore`
    A drop-in :class:`ContentStore` whose memory and disk misses consult
    the fleet tier and whose writes publish to it — the engine builds one
    whenever ``EngineConfig.cas_addr`` (or ``REPRO_CAS_ADDR``) is set.  Cold
    compile on replica A, warm hit on replica B.

Wire protocol (version 1), length-prefixed binary over TCP::

    request  := magic   b"RC"
                version u8   (1)
                op      u8   (1=GET 2=PUT 3=HAS 4=STATS)
                keylen  u16  big-endian
                key     bytes[keylen]      # "<stage>:<digest>", UTF-8
                vallen  u32  big-endian
                value   bytes[vallen]      # empty except for PUT

    response := status  u8   (0=NOT_FOUND 1=OK 2=ERROR)
                vallen  u32  big-endian
                value   bytes[vallen]

``STATS`` answers with a JSON *artifact envelope* (kind
``repro-cas-stats``) — the same framing every other persisted artifact
uses, validated by :func:`repro.schema.validate_envelope` on the client
side.  Failure semantics are strictly best-effort: a dead or unreachable
CAS degrades every :class:`TieredStore` to its local tier (counted in
``cas_errors``), never into a request failure.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pickle
import shutil
import socket
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.engine.cache import ContentStore
from repro.obs.metrics import METRICS
from repro.schema import (
    KindSpec,
    make_envelope,
    register_kind,
    validate_envelope,
)
from repro.serve.http import ServiceRunner

MAGIC = b"RC"
PROTOCOL_VERSION = 1

OP_GET = 1
OP_PUT = 2
OP_HAS = 3
OP_STATS = 4

STATUS_NOT_FOUND = 0
STATUS_OK = 1
STATUS_ERROR = 2

#: Per-entry value bound: a stage blob bigger than this is not worth
#: shipping around the fleet (and protects the server from hostile
#: frames claiming multi-GB bodies).
MAX_VALUE_BYTES = 64 * 1024 * 1024
MAX_KEY_BYTES = 1024

CAS_STATS_KIND = "repro-cas-stats"

register_kind(KindSpec(
    name=CAS_STATS_KIND,
    schema_version=1,
    flat_schema={
        "type": "object",
        "required": ["kind", "schema_version", "entries", "bytes",
                     "max_bytes", "counters"],
        "properties": {
            "kind": {"const": CAS_STATS_KIND},
            "schema_version": {"const": 1},
            "entries": {"type": "integer"},
            "bytes": {"type": "integer"},
            "max_bytes": {"type": "integer"},
            "disk_entries": {"type": "integer"},
            "disk_bytes": {"type": "integer"},
            "counters": {"type": "object"},
        },
    },
))

_CAS_HITS = METRICS.counter(
    "repro_fleet_cas_hits_total", "Fleet CAS GETs answered from the store.")
_CAS_MISSES = METRICS.counter(
    "repro_fleet_cas_misses_total", "Fleet CAS GETs that found nothing.")
_CAS_PUTS = METRICS.counter(
    "repro_fleet_cas_puts_total", "Blobs published to the fleet CAS.")
_CAS_EVICTIONS = METRICS.counter(
    "repro_fleet_cas_evictions_total", "Blobs evicted to stay under budget.")
_CAS_SPILLS = METRICS.counter(
    "repro_fleet_cas_spills_total",
    "Evicted blobs spilled to the disk tier instead of dropped.")
_CAS_DISK_HITS = METRICS.counter(
    "repro_fleet_cas_disk_hits_total",
    "Fleet CAS GETs answered from the disk spill tier.")
_CAS_BYTES = METRICS.gauge(
    "repro_fleet_cas_bytes", "Bytes currently held by the fleet CAS.")
_CAS_ENTRIES = METRICS.gauge(
    "repro_fleet_cas_entries", "Blobs currently held by the fleet CAS.")


def parse_addr(addr: str) -> Tuple[str, int]:
    """``host:port`` → ``(host, port)`` with a diagnosable error."""
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"CAS address must be host:port, got {addr!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad CAS port in {addr!r}") from None


class CASServer:
    """Byte-bounded in-memory blob store behind the wire protocol above.

    Single-threaded by construction — all mutation happens on the owning
    event loop — so there is no locking.  Eviction is LRU by *bytes* —
    the memory tier never holds more than ``max_bytes`` of values — but
    evicted blobs **spill to a disk tier** instead of vanishing: under
    budget pressure a hot entry costs one file read on its next GET,
    never a fleet-wide re-compile.  A disk hit is promoted back into
    memory (which may spill something colder).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_bytes: int = 256 * 1024 * 1024):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.host = host
        self.config_port = port
        self.max_bytes = max_bytes
        self.port: Optional[int] = None
        self._data: "OrderedDict[str, bytes]" = OrderedDict()
        self.bytes_stored = 0
        self._disk: Dict[str, int] = {}       # key → spilled blob size
        self.disk_bytes = 0
        self._spill_dir: Optional[str] = None
        self.counters: Dict[str, int] = {
            "gets": 0, "hits": 0, "misses": 0, "puts": 0, "has": 0,
            "evictions": 0, "spills": 0, "disk_hits": 0, "errors": 0,
            "connections": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.config_port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._spill_dir and os.path.isdir(self._spill_dir):
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
            self._disk.clear()
            self.disk_bytes = 0

    # -- disk tier ----------------------------------------------------------
    def _path(self, key: str) -> str:
        # Keys are engine store keys ("<stage>:<digest>"); hash them so
        # the filename is always filesystem-safe and length-bounded.
        name = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self._spill_dir, name)

    def _spill(self, key: str, value: bytes) -> None:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-cas-spill-")
        try:
            with open(self._path(key), "wb") as fh:
                fh.write(value)
        except OSError:                       # a full disk degrades to LRU
            self.counters["errors"] += 1
            return
        old = self._disk.pop(key, None)
        if old is not None:
            self.disk_bytes -= old
        self._disk[key] = len(value)
        self.disk_bytes += len(value)
        self.counters["spills"] += 1
        if METRICS.enabled:
            _CAS_SPILLS.inc()

    def _disk_get(self, key: str) -> Optional[bytes]:
        size = self._disk.get(key)
        if size is None:
            return None
        try:
            with open(self._path(key), "rb") as fh:
                return fh.read()
        except OSError:
            self._disk.pop(key, None)
            self.disk_bytes -= size
            self.counters["errors"] += 1
            return None

    def _disk_drop(self, key: str) -> None:
        size = self._disk.pop(key, None)
        if size is None:
            return
        self.disk_bytes -= size
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    # -- the store ----------------------------------------------------------
    def _get(self, key: str) -> Optional[bytes]:
        self.counters["gets"] += 1
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
            self.counters["hits"] += 1
            if METRICS.enabled:
                _CAS_HITS.inc()
            return value
        value = self._disk_get(key)
        if value is not None:
            # Promote: hot again, so it belongs in memory (this may
            # spill something colder to make room).
            self._insert(key, value)
            self._disk_drop(key)
            self.counters["hits"] += 1
            self.counters["disk_hits"] += 1
            if METRICS.enabled:
                _CAS_HITS.inc()
                _CAS_DISK_HITS.inc()
            return value
        self.counters["misses"] += 1
        if METRICS.enabled:
            _CAS_MISSES.inc()
        return None

    def _insert(self, key: str, value: bytes) -> None:
        old = self._data.pop(key, None)
        if old is not None:
            self.bytes_stored -= len(old)
        self._data[key] = value
        self.bytes_stored += len(value)
        while self.bytes_stored > self.max_bytes and len(self._data) > 1:
            evicted_key, evicted = self._data.popitem(last=False)
            self.bytes_stored -= len(evicted)
            self.counters["evictions"] += 1
            if METRICS.enabled:
                _CAS_EVICTIONS.inc()
            self._spill(evicted_key, evicted)
        if METRICS.enabled:
            _CAS_BYTES.set(self.bytes_stored)
            _CAS_ENTRIES.set(len(self._data))

    def _put(self, key: str, value: bytes) -> None:
        self._insert(key, value)
        self._disk_drop(key)                  # memory copy is authoritative
        self.counters["puts"] += 1
        if METRICS.enabled:
            _CAS_PUTS.inc()

    def stats(self) -> Dict[str, Any]:
        """Flat stats document (``repro-cas-stats`` kind)."""
        return {
            "kind": CAS_STATS_KIND,
            "schema_version": 1,
            "entries": len(self._data),
            "bytes": self.bytes_stored,
            "max_bytes": self.max_bytes,
            "disk_entries": len(self._disk),
            "disk_bytes": self.disk_bytes,
            "counters": dict(self.counters),
        }

    def _apply(self, op: int, key: str, value: bytes,
               ) -> Tuple[int, bytes]:
        if op == OP_GET:
            blob = self._get(key)
            if blob is None:
                return STATUS_NOT_FOUND, b""
            return STATUS_OK, blob
        if op == OP_PUT:
            self._put(key, value)
            return STATUS_OK, b""
        if op == OP_HAS:
            self.counters["has"] += 1
            present = key in self._data or key in self._disk
            return (STATUS_OK, b"\x01") if present \
                else (STATUS_NOT_FOUND, b"")
        if op == OP_STATS:
            envelope = make_envelope(self.stats())
            return STATUS_OK, json.dumps(envelope,
                                         sort_keys=True).encode("utf-8")
        self.counters["errors"] += 1
        return STATUS_ERROR, f"unknown op {op}".encode("utf-8")

    # -- wire ---------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.counters["connections"] += 1
        try:
            while True:
                head = await reader.readexactly(4)
                if head[:2] != MAGIC or head[2] != PROTOCOL_VERSION:
                    self.counters["errors"] += 1
                    writer.write(bytes([STATUS_ERROR])
                                 + (0).to_bytes(4, "big"))
                    await writer.drain()
                    return                    # unsynced stream: drop it
                op = head[3]
                key_len = int.from_bytes(await reader.readexactly(2), "big")
                if key_len > MAX_KEY_BYTES:
                    self.counters["errors"] += 1
                    return
                key = (await reader.readexactly(key_len)).decode(
                    "utf-8", "replace")
                value_len = int.from_bytes(await reader.readexactly(4),
                                           "big")
                if value_len > MAX_VALUE_BYTES:
                    self.counters["errors"] += 1
                    return
                value = (await reader.readexactly(value_len)
                         if value_len else b"")
                status, payload = self._apply(op, key, value)
                writer.write(bytes([status])
                             + len(payload).to_bytes(4, "big") + payload)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, TimeoutError):
            pass                              # client went away
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


class BackgroundCAS(ServiceRunner):
    """A :class:`CASServer` on its own thread + loop (tests, benches)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_bytes: int = 256 * 1024 * 1024):
        self.server = CASServer(host, port, max_bytes)
        super().__init__(self.server, name="repro-fleet-cas", timeout=60.0)

    @property
    def addr(self) -> str:
        return self.server.addr


class CASClient:
    """Blocking client for one CAS address, safe across threads.

    The socket reconnects once per call on failure; after that the
    error propagates to the caller (:class:`TieredStore` treats any
    ``OSError`` as "fleet tier unavailable" and degrades to local).
    """

    def __init__(self, addr: str, timeout: float = 10.0):
        self.addr = addr
        self.host, self.port = parse_addr(addr)
        self.timeout = timeout
        #: Guard against sharing one socket across a fork: clients are
        #: minted per process (see :func:`shared_client`).
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None

    # -- plumbing -----------------------------------------------------------
    def _close_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise ConnectionResetError("CAS server closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _request(self, op: int, key: bytes = b"",
                 value: bytes = b"") -> Tuple[int, bytes]:
        frame = (MAGIC + bytes([PROTOCOL_VERSION, op])
                 + len(key).to_bytes(2, "big") + key
                 + len(value).to_bytes(4, "big") + value)
        with self._lock:
            for attempt in (0, 1):
                try:
                    if self._sock is None:
                        self._sock = socket.create_connection(
                            (self.host, self.port), timeout=self.timeout)
                        self._sock.setsockopt(socket.IPPROTO_TCP,
                                              socket.TCP_NODELAY, 1)
                    self._sock.sendall(frame)
                    head = self._recv_exact(5)
                    status = head[0]
                    length = int.from_bytes(head[1:5], "big")
                    payload = self._recv_exact(length) if length else b""
                    return status, payload
                except OSError:
                    self._close_locked()
                    if attempt:
                        raise
            raise ConnectionError("unreachable")      # pragma: no cover

    # -- operations ---------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        status, payload = self._request(OP_GET, key.encode("utf-8"))
        return payload if status == STATUS_OK else None

    def put(self, key: str, value: bytes) -> bool:
        if len(value) > MAX_VALUE_BYTES:
            return False                      # too big to bother the fleet
        status, _payload = self._request(OP_PUT, key.encode("utf-8"), value)
        return status == STATUS_OK

    def has(self, key: str) -> bool:
        status, _payload = self._request(OP_HAS, key.encode("utf-8"))
        return status == STATUS_OK

    def stats(self) -> Dict[str, Any]:
        """Server stats, validated through the artifact-envelope API."""
        status, payload = self._request(OP_STATS)
        if status != STATUS_OK:
            raise ConnectionError(f"CAS STATS answered status {status}")
        return validate_envelope(json.loads(payload.decode("utf-8")))


#: One client per (process, address): forked pool workers must never
#: share the parent's socket, and replica threads should share one
#: connection instead of opening one per chunk.
_CLIENTS: Dict[str, CASClient] = {}
_CLIENTS_LOCK = threading.Lock()


def shared_client(addr: str, timeout: float = 10.0) -> CASClient:
    with _CLIENTS_LOCK:
        client = _CLIENTS.get(addr)
        if client is None or client.pid != os.getpid():
            client = CASClient(addr, timeout=timeout)
            _CLIENTS[addr] = client
        return client


class TieredStore(ContentStore):
    """The fleet CAS as a third tier, behind memory and local disk.

    Reads: a memory or local-disk hit wins; a miss in both consults the
    fleet, and a fleet hit is written through to local disk so the
    *next* read (and every forked worker sharing the directory) stays
    local.  Writes: local first (correctness never depends on the
    network), then published to the fleet best-effort.  Any CAS failure
    counts in ``cas_errors`` and degrades the store to plain local
    behavior.
    """

    def __init__(self, root: str, cas_addr: str,
                 version: Optional[str] = None):
        super().__init__(root, version)
        self.cas_addr = cas_addr
        self._client = shared_client(cas_addr)
        self.cas_counters: Dict[str, int] = {
            "cas_hits": 0, "cas_misses": 0, "cas_puts": 0, "cas_errors": 0,
        }

    def _cas_key(self, stage: str, key: str) -> str:
        return f"{stage}:{key}"

    def _load(self, stage: str, key: str) -> Tuple[bool, Any]:
        found, value = super()._load(stage, key)
        if found:
            return True, value
        try:
            blob = self._client.get(self._cas_key(stage, key))
        except OSError:
            self.cas_counters["cas_errors"] += 1
            return False, None
        if blob is None:
            self.cas_counters["cas_misses"] += 1
            return False, None
        try:
            value = pickle.loads(blob)
        except Exception:
            # A corrupt fleet blob is a miss, same policy as local disk.
            self.cas_counters["cas_errors"] += 1
            return False, None
        self.cas_counters["cas_hits"] += 1
        super()._save(stage, key, value)      # warm the local tier
        return True, value

    def _save(self, stage: str, key: str, value: Any) -> None:
        super()._save(stage, key, value)
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.cas_counters["cas_errors"] += 1
            return
        try:
            if self._client.put(self._cas_key(stage, key), blob):
                self.cas_counters["cas_puts"] += 1
        except OSError:
            self.cas_counters["cas_errors"] += 1

    def cas_stats(self) -> Dict[str, Any]:
        return {"addr": self.cas_addr, **self.cas_counters}
