"""Asyncio HTTP front door for the detection pipeline.

Stdlib-only: a :class:`~repro.serve.http.HTTPService` (the HTTP/1.1
dialect, its limits and the keep-alive connection loop live in
:mod:`repro.serve.http`, shared with the fleet front door) routing these
endpoints onto the micro-batching scheduler and the hot-reloadable
model registry:

==========================  ===============================================
endpoint                    behavior
==========================  ===============================================
``POST /v1/check``          classify one source (``{"source", "name"?}``)
                            or many (``{"sources": [...]}``); every sample
                            rides the micro-batcher, so concurrent
                            requests coalesce into ``predict_batch`` calls
``POST /v1/analyze``        run the in-tree dataflow static analyzer on
                            the same payload shape; returns each sample's
                            verdict plus typed findings with witnesses
                            (model-free: no batcher, no artifact needed)
``POST /v1/repair``         propose and gate-validate rule-based repairs
                            (``repro.repair``) on the same payload shape;
                            returns per-sample outcome, unified diff, and
                            trusted-oracle verdicts before/after
``GET /healthz``            liveness + current model version
``GET /metrics``            JSON counters by default (batcher, queue,
                            requests by status, reloads, engine/cache
                            stats, telemetry registry); Prometheus text
                            via ``Accept: text/plain`` or
                            ``?format=prometheus``
``GET /v1/model``           manifest summary of the served artifact
``POST /v1/reload``         validate + atomically swap the artifact
                            (optional ``{"path": ...}``)
``GET /v1/trace/<id>``      one completed trace from the bounded ring:
                            server, queue, batch, engine, and per-stage
                            pipeline spans (including pool workers)
``GET /v1/traces``          newest-first summaries of the trace ring
==========================  ===============================================

Backpressure: when the bounded queue is full, ``/v1/check`` answers
``429`` with a ``Retry-After`` header instead of building an unbounded
backlog.  Model inference runs in a worker thread (the event loop keeps
accepting/parsing while a batch executes); batches capture the model
reference at dispatch, so a hot reload never fails an in-flight request.

Telemetry (docs/observability.md): every response carries an
``X-Repro-Trace`` header, and every non-2xx JSON body the one error
shape built by :func:`~repro.serve.http.error_response`.  With tracing
enabled (the serve default) the request becomes a trace whose spans
follow the sample through queue → batch → engine → worker; a trace id
forwarded by the front door is adopted, making the replica's spans a
subtree of the fleet-level trace.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import enable_all
from repro.obs.log import EVENTS
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER, new_id
from repro.pipeline.artifact import ArtifactError
from repro.serve.batching import MicroBatcher, QueueFullError
from repro.serve.config import ServeConfig
from repro.serve.http import (
    PROM_CONTENT_TYPE,
    RETRY_AFTER_S,
    TRACE_PREFIX,
    HTTPService,
    RawResponse,
    Response,
    ServiceRunner,
    error_response,
    wants_prometheus,
)
from repro.serve.registry import ModelRegistry

#: path → allowed methods (for 404-vs-405 decisions).
_ROUTES = {
    "/healthz": ("GET",),
    "/metrics": ("GET",),
    "/v1/model": ("GET",),
    "/v1/check": ("POST",),
    "/v1/analyze": ("POST",),
    "/v1/repair": ("POST",),
    "/v1/reload": ("POST",),
    "/v1/traces": ("GET",),
}

_REQ_SECONDS = METRICS.histogram(
    "repro_serve_request_seconds", "HTTP request handling latency by path.",
    labelnames=("path",))
_REQ_TOTAL = METRICS.counter(
    "repro_serve_requests_total", "HTTP requests handled by path and status.",
    labelnames=("path", "status"))
_QUEUE_WAIT = METRICS.histogram(
    "repro_serve_queue_wait_seconds",
    "Sample wait between queue admission and batch dispatch.")
_QUEUE_DEPTH = METRICS.gauge(
    "repro_serve_queue_depth", "Samples currently queued for batching.")
_UPTIME = METRICS.gauge(
    "repro_serve_uptime_seconds", "Seconds since server start.")
_GENERATION = METRICS.gauge(
    "repro_serve_model_generation", "Generation of the served artifact.")
_REPAIR_REQUESTS = METRICS.counter(
    "repro_repair_requests_total",
    "Samples served by POST /v1/repair, by repair outcome.",
    labelnames=("outcome",))


class _BadRequest(ValueError):
    """Client-side payload problem → 400 with the message."""


class _ItemFailure:
    """Per-sample failure inside a micro-batch (e.g. a compile error).

    Wrapped instead of raised so one client's uncompilable source can
    never fail the unrelated requests coalesced into the same batch.
    """

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


class _QueuedSample:
    """One sample riding the batcher, carrying its trace provenance.

    The batcher stays generic — the serve layer wraps each ``(name,
    source)`` with the submitting request's trace context and admission
    time, which is what lets ``_run_batch`` record per-request queue
    spans and attach the batch span to *every* coalesced trace.
    """

    __slots__ = ("name", "source", "ctx", "submitted_at")

    def __init__(self, name: str, source: str, ctx, submitted_at: float):
        self.name = name
        self.source = source
        self.ctx = ctx
        self.submitted_at = submitted_at


def parse_json(body: bytes) -> Dict[str, Any]:
    """A request body as a JSON object (empty body → ``{}``)."""
    if not body:
        return {}
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise _BadRequest(f"request body is not valid JSON: {exc}") \
            from None
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    return payload


def named_sources(payload: Dict[str, Any]) -> List[Tuple[str, str]]:
    """The ``(name, source)`` samples of a ``{"source"}`` or
    ``{"sources": [...]}`` payload."""
    if "sources" in payload:
        raw = payload["sources"]
        if not isinstance(raw, list) or not raw:
            raise _BadRequest("'sources' must be a non-empty list")
        items: List[Tuple[str, str]] = []
        for i, entry in enumerate(raw):
            if isinstance(entry, str):
                items.append((f"request{i}.c", entry))
            elif isinstance(entry, dict) and isinstance(
                    entry.get("source"), str):
                items.append((str(entry.get("name", f"request{i}.c")),
                              entry["source"]))
            else:
                raise _BadRequest(
                    f"sources[{i}] must be a string or an object "
                    "with a 'source' string")
        return items
    source = payload.get("source")
    if not isinstance(source, str):
        raise _BadRequest(
            "body must carry 'source' (string) or 'sources' (list)")
    return [(str(payload.get("name", "input.c")), source)]


def build_engine(config: ServeConfig):
    """The one engine every served model runs on (pool + cache shared
    across hot reloads): the process default engine, or a copy of its
    config with the serve-level ``workers`` / ``cache_dir`` applied."""
    from repro.engine import ExecutionEngine, default_engine

    engine = default_engine()
    overrides = {name: value for name, value in
                 (("workers", config.workers),
                  ("cache_dir", config.cache_dir)) if value is not None}
    if not overrides:
        return engine
    return ExecutionEngine(dataclasses.replace(engine.config, **overrides))


class DetectionServer(HTTPService):
    """Wires registry + batcher + HTTP endpoints onto one event loop."""

    ROUTES = _ROUTES
    REQUEST_SECONDS = _REQ_SECONDS
    REQUESTS_TOTAL = _REQ_TOTAL

    def __init__(self, registry: ModelRegistry,
                 config: Optional[ServeConfig] = None):
        super().__init__()
        self.registry = registry
        self.config = config or ServeConfig()
        self.batcher = MicroBatcher(self._run_batch,
                                    max_batch=self.config.max_batch,
                                    max_queue=self.config.max_queue)
        self.polls = 0
        self.poll_reloads = 0
        self._poll_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        if self.config.trace:
            # The server owns the process-wide telemetry switches.
            enable_all(ring_size=self.config.trace_ring,
                       log_path=self.config.obs_log)
        loop = asyncio.get_running_loop()
        if self.registry._current is None:
            await loop.run_in_executor(None, self.registry.load)
        self.batcher.start()
        await self._listen()
        EVENTS.emit("serve.start", port=self.port,
                    model_version=self.registry.current.version)
        if self.config.poll_interval_s > 0:
            self._poll_task = loop.create_task(self._poll_loop())

    async def stop(self) -> None:
        EVENTS.emit("serve.stop", port=self.port)
        if self._poll_task is not None:
            self._poll_task.cancel()
            try:
                await self._poll_task
            except asyncio.CancelledError:
                pass
            self._poll_task = None
        await self._close_listener()
        await self.batcher.stop(drain=True)
        # Deterministic teardown: drop the engine's worker pool now
        # rather than at interpreter exit.
        if self.registry._current is not None:
            self.registry.current.pipeline.close()
        if self.config.trace:
            # Leave the process as we found it (tests run traced and
            # untraced servers back-to-back).
            TRACER.disable()
            METRICS.enabled = False

    async def _poll_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.poll_interval_s)
            self.polls += 1
            try:
                reloaded = await loop.run_in_executor(None,
                                                      self.registry.poll)
            except Exception:
                # poll() already swallows load failures; anything else
                # (e.g. a filesystem hiccup) must not kill the poller.
                continue
            if reloaded:
                self.poll_reloads += 1

    # -- batching -----------------------------------------------------------
    async def _run_batch(self, items: List[_QueuedSample],
                         ) -> List[Any]:
        """One micro-batch → one ``predict_batch`` call off-loop.

        The model reference is captured *here*, per batch: requests
        dispatched before a reload finish on the model they started
        with, which is what makes reloads drop-free.

        Tracing: a batch coalesces samples from several requests, so it
        records one queue-wait span per sample (admission → dispatch)
        and one batch span per *distinct originating trace*; the batch
        span ids form the context the executor thread activates, which
        parents every engine/stage span under them.
        ``loop.run_in_executor`` does not propagate contextvars, hence
        the explicit :meth:`Tracer.activate` inside the callable.

        Fault isolation: if the batch call fails (typically one bad
        source refusing to compile), fall back to per-item calls so
        only the offending samples fail — batch-mates from other
        requests still get their verdicts.  Only *input* faults become
        per-item 400s: typed compile errors, plus any exception the
        crash-triage attributes to a deterministic per-source stage
        (fuzz-minimized crasher sources provoke exactly those).
        Anything else is a server fault and propagates to a 500 so
        clients and load balancers know to retry.
        """
        from repro.frontend import CompileError
        from repro.fuzz.triage import is_input_fault

        model = self.registry.current
        loop = asyncio.get_running_loop()
        raw = [(q.name, q.source) for q in items]
        dispatched_at = time.time()
        parents: Dict[str, str] = {}      # trace_id → submitting span id
        for q in items:
            wait = max(0.0, dispatched_at - q.submitted_at)
            _QUEUE_WAIT.observe(wait)
            if q.ctx:
                TRACER.record("serve.queue", kind="queue",
                              start_s=q.submitted_at, elapsed_s=wait,
                              ctx=q.ctx)
                for trace_id, span_id in q.ctx:
                    parents.setdefault(trace_id, span_id)
        batch_ids = {trace_id: new_id() for trace_id in parents}
        batch_ctx = tuple(batch_ids.items()) or None

        def _predict(batch):
            with TRACER.activate(batch_ctx):
                return model.pipeline.predict_batch(batch)

        try:
            try:
                results = await loop.run_in_executor(None, _predict, raw)
                return [(model, result) for result in results]
            except Exception:
                outcomes: List[Any] = []
                for item in raw:
                    try:
                        result = await loop.run_in_executor(
                            None, _predict, [item])
                        outcomes.append((model, result[0]))
                    except CompileError as exc:
                        outcomes.append(_ItemFailure(exc))
                    except Exception as exc:
                        if not is_input_fault(exc):
                            raise
                        outcomes.append(_ItemFailure(exc))
                return outcomes
        finally:
            elapsed = time.time() - dispatched_at
            for trace_id, batch_id in batch_ids.items():
                TRACER.record_span(
                    trace_id, batch_id, parents[trace_id],
                    "serve.batch", "batch", dispatched_at, elapsed,
                    {"batch_size": len(items),
                     "traces": len(batch_ids),
                     "model_generation": model.generation})

    # -- routing ------------------------------------------------------------
    async def handle(self, method: str, path: str, body: bytes,
                     headers: Optional[Dict[str, str]] = None,
                     query: str = "") -> Response:
        """Route one request; returns (status, payload, headers) where
        the payload is a JSON-able dict or a :class:`RawResponse`."""
        refused = self._route_error(method, path)
        if refused is not None:
            return refused
        try:
            if path == "/healthz":
                return self._handle_health()
            if path == "/metrics":
                return self._handle_metrics(headers or {}, query)
            if path == "/v1/model":
                return self._handle_model()
            if path == "/v1/check":
                return await self._handle_check(body)
            if path == "/v1/analyze":
                return await self._handle_analyze(body)
            if path == "/v1/repair":
                return await self._handle_repair(body)
            if path == "/v1/traces":
                return self._handle_traces()
            if path.startswith(TRACE_PREFIX):
                return self._handle_trace(path[len(TRACE_PREFIX):])
            return await self._handle_reload(body)
        except _BadRequest as exc:
            return error_response(400, "bad_request", str(exc))
        except QueueFullError as exc:
            return error_response(429, "queue_full", str(exc),
                                  retry_after=RETRY_AFTER_S)
        except Exception as exc:   # never kill the connection loop
            EVENTS.emit("serve.error", severity="error", path=path,
                        error=f"{type(exc).__name__}: {exc}")
            return error_response(500, "internal",
                                  f"{type(exc).__name__}: {exc}")

    def _handle_health(self) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        if self.registry._current is None:
            return error_response(503, "model_loading",
                                  "no model loaded yet", status="loading")
        model = self.registry.current
        return 200, {"status": "ok", "model_version": model.version,
                     "generation": model.generation}, {}

    def _handle_metrics(self, headers: Dict[str, str],
                        query: str) -> Response:
        if wants_prometheus(headers, query):
            self._sync_scrape_gauges()
            body = METRICS.render_prometheus().encode("utf-8")
            return 200, RawResponse(PROM_CONTENT_TYPE, body), {}
        return 200, self.metrics(), {}

    def _handle_trace(self, trace_id: str,
                      ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        doc = TRACER.get_trace(trace_id)
        if doc is None:
            return error_response(404, "trace_not_found",
                                  f"no recent trace {trace_id!r}",
                                  tracing_enabled=TRACER.enabled,
                                  ring_size=TRACER.ring_size)
        return 200, doc, {}

    def _sync_scrape_gauges(self) -> None:
        """Point-in-time gauges refreshed at scrape, not per request."""
        _UPTIME.set(time.time() - self.started_at if self.started_at else 0.0)
        _QUEUE_DEPTH.set(self.batcher.queue_depth)
        _GENERATION.set(self.registry.generation)

    def _handle_model(self) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        # Lock-free read of the atomic reference: during a reload the old
        # model answers until the swap lands, and before the very first
        # load completes this is an orderly 503, not a 500.
        model = self.registry._current
        if model is None:
            return error_response(503, "model_loading",
                                  "no model loaded yet (initial load or "
                                  "reload still in progress)")
        payload = dict(model.info)
        payload.update({"generation": model.generation,
                        "loaded_at": model.loaded_at,
                        "artifact_mtime": model.mtime})
        return 200, payload, {}

    async def _handle_check(self, body: bytes,
                            ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        items = named_sources(parse_json(body))
        if len(items) > self.config.max_queue:
            # Could never be admitted, so a 429 "retry later" would lie.
            raise _BadRequest(
                f"bulk request of {len(items)} samples exceeds the "
                f"queue capacity ({self.config.max_queue}); split it "
                "into smaller requests")
        ctx = TRACER.capture()
        submitted_at = time.time()
        queued = [_QueuedSample(name, source, ctx, submitted_at)
                  for name, source in items]
        futures = self.batcher.submit_many(queued)    # atomic; may raise 429
        # return_exceptions so every per-sample future is retrieved even
        # when an earlier micro-batch of this request already failed.
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        results = []
        failed = 0
        for (name, _source), outcome in zip(items, outcomes):
            if isinstance(outcome, _ItemFailure):
                failed += 1
                results.append({"name": name, "error": outcome.error})
                continue
            model, result = outcome
            results.append({
                "name": name,
                "label": result.label,
                "is_correct": result.is_correct,
                "method": result.method,
                "model_version": model.version,
                "generation": model.generation,
            })
        # All samples bad → the request itself was bad; partial failures
        # in a bulk request return 200 with per-item errors.
        if failed == len(results):
            return error_response(
                400, "all_samples_failed",
                f"all {len(results)} sample(s) failed; see results",
                results=results)
        return 200, {"results": results}, {}

    async def _handle_analyze(self, body: bytes,
                              ) -> Tuple[int, Dict[str, Any],
                                         Dict[str, str]]:
        """Static analysis needs no model and no batcher (there is no
        classifier call to amortize), but it is CPU-bound, so it still
        runs off-loop to keep the server accepting while it works."""
        payload = parse_json(body)
        items = named_sources(payload)
        nprocs = payload.get("nprocs", 3)
        if not isinstance(nprocs, int) or not 2 <= nprocs <= 8:
            raise _BadRequest("'nprocs' must be an integer in [2, 8]")

        ctx = TRACER.capture()
        started_at = time.time()

        def _analyze() -> List[Dict[str, Any]]:
            from repro.verify.static.analyzer import analyze_source

            out = []
            with TRACER.activate(ctx):
                for name, source in items:
                    verdict, findings = analyze_source(source, name, nprocs)
                    out.append({"name": name, "verdict": verdict,
                                "findings": [f.as_dict() for f in findings]})
            return out

        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(None, _analyze)
        TRACER.record("serve.analyze", kind="internal", start_s=started_at,
                      elapsed_s=time.time() - started_at,
                      attrs={"samples": len(items)}, ctx=ctx)
        return 200, {"results": results}, {}

    async def _handle_repair(self, body: bytes,
                             ) -> Tuple[int, Dict[str, Any],
                                        Dict[str, str]]:
        """Rule-based repair behind the differential-harness gate
        (:mod:`repro.repair`).  Model-free like ``/v1/analyze`` — every
        candidate is judged by the trusted oracles, not the classifier —
        and CPU-bound, so it runs off-loop.  Optional payload fields:
        ``nprocs`` (communicator size, [2, 8]), ``max_attempts``
        (gate-run budget per sample, [1, 64]), ``operator`` (a
        mutation-operator name used as a localization hint)."""
        from repro.repair import INVERSE_RULES, repair_source

        payload = parse_json(body)
        items = named_sources(payload)
        nprocs = payload.get("nprocs", 3)
        if not isinstance(nprocs, int) or not 2 <= nprocs <= 8:
            raise _BadRequest("'nprocs' must be an integer in [2, 8]")
        max_attempts = payload.get("max_attempts", 12)
        if not isinstance(max_attempts, int) or not 1 <= max_attempts <= 64:
            raise _BadRequest(
                "'max_attempts' must be an integer in [1, 64]")
        hint = payload.get("operator")
        if hint is not None and hint not in INVERSE_RULES:
            raise _BadRequest(
                f"'operator' must be one of {sorted(INVERSE_RULES)}")

        ctx = TRACER.capture()
        started_at = time.time()

        def _repair() -> List[Dict[str, Any]]:
            out = []
            with TRACER.activate(ctx):
                for name, source in items:
                    out.append(repair_source(
                        name, source, nprocs=nprocs,
                        max_attempts=max_attempts, hint=hint))
            return out

        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(None, _repair)
        for entry in results:
            _REPAIR_REQUESTS.labels(entry["outcome"]).inc()
        TRACER.record("serve.repair", kind="internal", start_s=started_at,
                      elapsed_s=time.time() - started_at,
                      attrs={"samples": len(items)}, ctx=ctx)
        return 200, {"results": results}, {}

    async def _handle_reload(self, body: bytes,
                             ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        payload = parse_json(body)
        path = payload.get("path")
        if path is not None and not isinstance(path, str):
            raise _BadRequest("'path' must be a string")
        loop = asyncio.get_running_loop()
        try:
            model = await loop.run_in_executor(None, self.registry.load,
                                               path)
        except ArtifactError as exc:
            # The old model keeps serving; the caller gets the reason.
            return error_response(400, "reload_failed", str(exc),
                                  reloaded=False)
        return 200, {"reloaded": True, "model_version": model.version,
                     "generation": model.generation,
                     "path": model.path}, {}

    def metrics(self) -> Dict[str, Any]:
        engine = self.registry.engine
        model = self.registry._current
        return {
            "uptime_s": round(time.time() - self.started_at, 3)
            if self.started_at else 0.0,
            "requests_by_status": {str(k): v for k, v
                                   in sorted(
                                       self.requests_by_status.items())},
            "queue_depth": self.batcher.queue_depth,
            "batcher": self.batcher.metrics.as_dict(),
            "model": None if model is None else {
                "version": model.version,
                "generation": model.generation,
                "method": model.info.get("method"),
                "path": model.path,
            },
            "reloads": {"generation": self.registry.generation,
                        "errors": self.registry.reload_errors,
                        "polls": self.polls,
                        "poll_reloads": self.poll_reloads},
            "engine": None if engine is None else engine.stats_dict(),
            "telemetry": METRICS.as_dict(),
            "tracing": TRACER.stats(),
        }


# ---------------------------------------------------------------------------
# Running servers: blocking (CLI) and background-thread (tests, bench)
# ---------------------------------------------------------------------------

def serve(model_path: str, config: Optional[ServeConfig] = None) -> None:
    """Blocking entry point: serve ``model_path`` until interrupted."""
    config = config or ServeConfig()
    registry = ModelRegistry(model_path, engine=build_engine(config))
    server = DetectionServer(registry, config)

    def banner() -> str:
        model = registry.current
        return (f"serving {model.info.get('method')} model "
                f"{model.version} (generation {model.generation}) "
                f"on http://{config.host}:{server.port}")

    ServiceRunner(server, name="repro-serve", timeout=120.0).run(banner)


class BackgroundServer(ServiceRunner):
    """A :class:`DetectionServer` on its own thread + event loop.

    Context-manager shaped, used by the test suite:

    >>> with BackgroundServer(model_path, config) as server:
    ...     urllib.request.urlopen(server.base_url + "/healthz")
    """

    def __init__(self, model_path: Optional[str] = None,
                 config: Optional[ServeConfig] = None, *,
                 registry: Optional[ModelRegistry] = None):
        self.config = config or ServeConfig(port=0)
        if registry is None:
            if model_path is None:
                raise ValueError("need model_path or a registry")
            registry = ModelRegistry(model_path,
                                     engine=build_engine(self.config))
        self.registry = registry
        self.server = DetectionServer(registry, self.config)
        super().__init__(self.server, name="repro-serve", timeout=120.0)

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"
