"""The service core shared by ``repro serve`` and the fleet front door.

Three things live here and nowhere else:

* **The HTTP/1.1 dialect** both JSON services speak: the request reader
  and its limits (at most :data:`MAX_HEADERS` header lines, no
  ``Transfer-Encoding``, a ``Content-Length`` body of at most the
  service's ``max_body_bytes``; violations answer ``400`` / ``413`` and
  close the connection), the response writer, the reply reader the
  front door uses on replica connections, and the one error-body shape
  (:func:`error_response`).
* **:class:`HTTPService`**, the keep-alive connection loop: it adopts a
  well-formed incoming ``X-Repro-Trace`` / ``X-Repro-Parent`` pair,
  opens the request's root span, calls the subclass's
  ``handle(method, path, body, headers, query)``, stamps the trace id
  into the response, and records the service's request metric
  families.  :class:`~repro.serve.server.DetectionServer` and
  :class:`~repro.fleet.frontdoor.FleetFrontDoor` are its subclasses.
* **:class:`ServiceRunner`**, which hosts any service with
  ``async start()`` / ``async stop()`` on an event loop: blocking until
  interrupted (the CLI), or on a background thread (tests and
  benchmarks).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER, new_id

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Header-section bound (count); header *lines* are already bounded by
#: the StreamReader's per-line limit.
MAX_HEADERS = 128

#: The one prefix route every service has: ``GET /v1/trace/<trace_id>``.
TRACE_PREFIX = "/v1/trace/"

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``Retry-After`` seconds on a 429 from the server or the front door.
RETRY_AFTER_S = 1

Response = Tuple[int, Any, Dict[str, str]]


class ProtocolError(ValueError):
    """A message outside the dialect; answered with ``status``, after
    which the connection closes (the stream can no longer be trusted to
    be in sync)."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


class RawResponse:
    """A response body sent as-is: Prometheus text, or a replica's reply
    relayed by the front door."""

    __slots__ = ("content_type", "body")

    def __init__(self, content_type: str, body: bytes):
        self.content_type = content_type
        self.body = body


def error_response(status: int, code: str, message: str, *,
                   headers: Optional[Dict[str, str]] = None,
                   retry_after: Optional[int] = None,
                   **fields: Any) -> Response:
    """The one error surface every non-2xx JSON body uses::

        {"error": {"code": "queue_full", "message": "...",
                   "trace_id": "..."}}

    ``code`` is a stable machine-readable slug; ``message`` is for
    humans.  The connection loop stamps ``trace_id`` into the error
    object at write time (it owns the id).  Extra ``fields`` land at the
    top level next to ``"error"`` (e.g. the per-sample ``results`` of an
    all-failed bulk check); ``retry_after`` also sets the ``Retry-After``
    header so load-balancers can honor backpressure without parsing JSON.
    """
    body: Dict[str, Any] = {"error": {"code": code, "message": message}}
    body.update(fields)
    extra = dict(headers or {})
    if retry_after is not None:
        body["retry_after_s"] = retry_after
        extra["Retry-After"] = str(retry_after)
    return status, body, extra


def valid_trace_id(value: str) -> bool:
    """Shape check for ids arriving in ``X-Repro-Trace`` /
    ``X-Repro-Parent`` headers (16 lowercase hex chars, the shape
    :func:`repro.obs.trace.new_id` mints) so a hostile client can't
    inject arbitrary strings into trace storage or response headers."""
    return (len(value) == 16
            and all(c in "0123456789abcdef" for c in value))


def wants_prometheus(headers: Dict[str, str], query: str) -> bool:
    """``/metrics`` content negotiation: Prometheus text when asked for
    (``Accept: text/plain`` / ``application/openmetrics-text``, or
    ``?format=prometheus``), JSON otherwise."""
    accept = headers.get("accept", "")
    return ("format=prometheus" in query
            or "text/plain" in accept or "openmetrics" in accept)


# ---------------------------------------------------------------------------
# Reading and writing messages
# ---------------------------------------------------------------------------

async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        if len(headers) >= MAX_HEADERS:
            # Keep the whole service bounded: queue, body, *and* header
            # section.
            raise ProtocolError(400, "bad_request",
                                f"too many headers (max {MAX_HEADERS})")
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def _read_body(reader: asyncio.StreamReader, headers: Dict[str, str],
                     max_bytes: Optional[int]) -> bytes:
    if headers.get("transfer-encoding"):
        # Without decoding chunked bodies we could not stay in sync on a
        # keep-alive stream; refuse + close instead of misreading the
        # chunks as the next message.
        raise ProtocolError(400, "bad_request",
                            "Transfer-Encoding is not supported; send a "
                            "Content-Length body")
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        length = -1
    if length < 0:                      # unparsable or negative
        raise ProtocolError(400, "bad_request", "bad Content-Length")
    if max_bytes is not None and length > max_bytes:
        raise ProtocolError(413, "payload_too_large",
                            f"body exceeds {max_bytes} bytes")
    return await reader.readexactly(length) if length else b""


async def read_request(reader: asyncio.StreamReader, max_body_bytes: int,
                       ) -> Optional[Tuple[str, str, str, Dict[str, str],
                                           bytes]]:
    """One request as ``(method, path, query, headers, body)``; ``None``
    on a clean EOF between requests.  Header names are lower-cased.
    Raises :class:`ProtocolError` for a message outside the dialect."""
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, target, _version = \
            request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise ProtocolError(400, "bad_request",
                            "malformed request line") from None
    headers = await _read_headers(reader)
    body = await _read_body(reader, headers, max_body_bytes)
    path, _sep, query = target.partition("?")
    return method.upper(), path, query, headers, body


async def read_reply(reader: asyncio.StreamReader,
                     ) -> Tuple[int, Dict[str, str], bytes]:
    """One response as ``(status, headers, body)``; raises
    ``ValueError`` on a garbled reply."""
    status_line = await reader.readline()
    try:
        status = int(status_line.decode("latin-1").split(None, 2)[1])
    except IndexError:
        raise ValueError(f"malformed status line {status_line!r}") \
            from None
    headers = await _read_headers(reader)
    return status, headers, await _read_body(reader, headers, None)


def write_response(writer: asyncio.StreamWriter, status: int, payload: Any,
                   extra: Dict[str, str], keep_alive: bool) -> None:
    if isinstance(payload, RawResponse):
        body = payload.body
        content_type = payload.content_type
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    headers.extend(f"{name}: {value}" for name, value in extra.items())
    writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1")
                 + body)


# ---------------------------------------------------------------------------
# The connection loop
# ---------------------------------------------------------------------------

class HTTPService:
    """A keep-alive HTTP/1.1 JSON service on ``asyncio.start_server``.

    Subclasses hold a ``config`` with ``host``, ``port`` and
    ``max_body_bytes``, set :attr:`ROUTES` (path → allowed methods; any
    :data:`TRACE_PREFIX` path is ``GET``-only) and the two request metric
    families, and implement ``handle(method, path, body, headers,
    query)`` returning ``(status, payload, extra_headers)`` with a
    JSON-able payload or a :class:`RawResponse`.

    Before ``handle`` runs, the loop rewrites two entries of the
    ``headers`` dict to the ids a forwarded request must carry:
    ``x-repro-trace`` is this request's trace id (a well-formed incoming
    one is adopted, otherwise minted) and ``x-repro-parent`` its root
    span id (empty while tracing is off).
    """

    ROUTES: Dict[str, Tuple[str, ...]] = {}
    #: Histogram labelled ``(path,)`` and counter labelled
    #: ``(path, status)``, per service.
    REQUEST_SECONDS: Any = None
    REQUESTS_TOTAL: Any = None

    config: Any

    def __init__(self) -> None:
        self.requests_by_status: Dict[int, int] = {}
        self.started_at: Optional[float] = None
        self.port: Optional[int] = None
        self._listener: Optional[asyncio.AbstractServer] = None

    async def _listen(self) -> None:
        self._listener = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port)
        self.port = self._listener.sockets[0].getsockname()[1]
        self.started_at = time.time()

    async def _close_listener(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None

    def _route_error(self, method: str, path: str) -> Optional[Response]:
        """The 404 / 405 answer for a request no route accepts."""
        allowed = self.ROUTES.get(path)
        if allowed is None and path.startswith(TRACE_PREFIX):
            allowed = ("GET",)
        if allowed is None:
            return error_response(404, "not_found",
                                  f"no such endpoint {path}")
        if method not in allowed:
            return error_response(
                405, "method_not_allowed",
                f"{path} only accepts {' / '.join(allowed)}",
                headers={"Allow": ", ".join(allowed)})
        return None

    @staticmethod
    def _handle_traces() -> Response:
        stats = TRACER.stats()
        stats["traces"] = TRACER.recent()
        return 200, stats, {}

    def _count(self, status: int) -> None:
        self.requests_by_status[status] = \
            self.requests_by_status.get(status, 0) + 1

    def _reject(self, writer: asyncio.StreamWriter,
                exc: ProtocolError) -> None:
        """Protocol-level refusal: respond, count it, close after."""
        self._count(exc.status)
        trace_id = new_id()
        _status, body, _extra = error_response(exc.status, exc.code,
                                               str(exc))
        body["error"]["trace_id"] = trace_id
        write_response(writer, exc.status, body,
                       {"X-Repro-Trace": trace_id}, keep_alive=False)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes)
                except ProtocolError as exc:
                    self._reject(writer, exc)
                    return
                if request is None:
                    return
                method, path, query, headers, body = request
                started = time.perf_counter()
                # Every request gets an id — even untraced ones — so
                # error bodies and the X-Repro-Trace header are always
                # correlatable (the ring only fills while tracing is
                # on).  A forwarder's well-formed ids are adopted,
                # making this request's root span a child of the
                # forwarder's: one trace across the hop.
                incoming = headers.get("x-repro-trace", "")
                trace_id = incoming if valid_trace_id(incoming) \
                    else new_id()
                parent = headers.get("x-repro-parent", "")
                parent_id = parent if valid_trace_id(parent) else None
                headers["x-repro-trace"] = trace_id
                if TRACER.enabled:
                    with TRACER.start_trace(f"{method} {path}",
                                            trace_id=trace_id,
                                            parent_id=parent_id) as root:
                        headers["x-repro-parent"] = root.span_id
                        status, payload, extra = await self.handle(
                            method, path, body, headers, query)
                        root.set(status=status)
                else:
                    headers["x-repro-parent"] = ""
                    status, payload, extra = await self.handle(
                        method, path, body, headers, query)
                self._count(status)
                extra = dict(extra)
                extra["X-Repro-Trace"] = trace_id
                if status >= 400 and isinstance(payload, dict) \
                        and isinstance(payload.get("error"), dict):
                    payload["error"].setdefault("trace_id", trace_id)
                if METRICS.enabled:
                    # Bound label cardinality: arbitrary 404 paths must
                    # not mint unbounded metric series.
                    label = (path if path in self.ROUTES
                             else TRACE_PREFIX + "<id>"
                             if path.startswith(TRACE_PREFIX) else "other")
                    self.REQUEST_SECONDS.labels(label).observe(
                        time.perf_counter() - started)
                    self.REQUESTS_TOTAL.labels(label, status).inc()
                keep_alive = headers.get("connection",
                                         "keep-alive").lower() != "close"
                write_response(writer, status, payload, extra, keep_alive)
                await writer.drain()
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, TimeoutError, ValueError):
            # ValueError covers StreamReader's per-line limit overrun
            # (pathologically long header/request lines): drop the
            # connection rather than crash the handler task.
            pass
        except asyncio.CancelledError:
            # The loop is shutting down with this connection still open
            # (an idle keep-alive client): a normal close, not an error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


# ---------------------------------------------------------------------------
# Hosting a service
# ---------------------------------------------------------------------------

class ServiceRunner:
    """Hosts one service — any object with ``async start()`` and
    ``async stop()`` and a ``port`` — on an event loop.

    :meth:`run` blocks the calling thread until interrupted (the CLI);
    :meth:`start` / :meth:`stop`, or ``with``, host it on a daemon
    thread with its own loop (tests, benchmarks).  A start-up failure
    propagates out of both; ``timeout`` bounds the background start and
    the join at stop.
    """

    def __init__(self, service: Any, *, name: str, timeout: float):
        self.service = service
        self.name = name
        self.timeout = timeout
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> Optional[int]:
        return self.service.port

    async def _main(self, banner: Optional[Callable[[], str]],
                    stop_on_sigterm: bool = False) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if stop_on_sigterm:
            self._loop.add_signal_handler(signal.SIGTERM, self._stop_event.set)
        await self.service.start()
        try:
            if banner is not None:
                print(banner(), flush=True)
            self._ready.set()
            await self._stop_event.wait()      # until stop() / ^C / TERM
        finally:
            await self.service.stop()

    def run(self, banner: Optional[Callable[[], str]] = None) -> None:
        """Serve on this (main) thread until ^C or SIGTERM, then stop the
        service; ``banner()`` is printed once the service is up."""
        try:
            asyncio.run(self._main(banner, stop_on_sigterm=True))
        except KeyboardInterrupt:
            pass

    def _run_thread(self) -> None:
        try:
            asyncio.run(self._main(None))
        except BaseException as exc:  # surface startup/loop failures
            self._error = exc
        finally:
            self._ready.set()

    def start(self) -> "ServiceRunner":
        self._thread = threading.Thread(target=self._run_thread,
                                        name=self.name, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=self.timeout)
        if self._error is not None:
            raise self._error
        if not self._ready.is_set():
            raise RuntimeError(
                f"{self.name} failed to start within {self.timeout:g}s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None \
                and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=self.timeout)
            self._thread = None

    def __enter__(self) -> "ServiceRunner":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
