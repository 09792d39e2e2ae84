"""Trace spans across the serve → batcher → engine → worker chain.

A *trace* is one originating request (or one campaign step); a *span*
is one timed region attributed to it.  The context that ties them
together is deliberately tiny — a tuple of ``(trace_id, span_id)``
pairs — because one unit of work can serve **several** traces at once:
a micro-batch coalesces samples from many requests, so the batch span
and every pipeline stage span under it must attach to *all* of the
originating traces.  Propagation is explicit at every boundary that
drops ``contextvars``:

* event loop → worker thread: :meth:`Tracer.activate` re-installs the
  captured context inside the executor callable
  (``loop.run_in_executor`` does **not** propagate contextvars);
* parent → pool worker: the engine ships the captured context inside
  each task payload, the worker records spans into a collect buffer
  (:meth:`Tracer.worker_scope`) and returns them with the task result,
  and the parent folds them into the still-open traces
  (:meth:`Tracer.merge_spans`).  Spans are the only thing a worker
  ships home.

:meth:`Tracer.stage` is the one stage-timing primitive: each layer
wraps its entry in ``with TRACER.stage(name):``, with ``name`` from
:data:`STAGES`.  Disabled, that is one attribute check and the shared
no-op span.  Enabled, the frame becomes a ``stage.<name>`` span (kind
``stage``) under every trace in context, nested stages become its
children, and its elapsed time feeds the ``repro_stage_seconds``
histogram.  ``repro trace <id>`` shows one request's stages,
``/metrics`` the process's.

Completed traces land in a bounded in-memory ring served by
``GET /v1/trace/<trace_id>``.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import METRICS

#: One context entry per trace this work is serving.
TraceContext = Tuple[Tuple[str, str], ...]

_CTX: "contextvars.ContextVar[Optional[TraceContext]]" = \
    contextvars.ContextVar("repro_obs_ctx", default=None)

#: Every stage name a ``TRACER.stage`` site may use, in pipeline order:
#: the cold path (compile → classify), the static analyzer's three
#: phases, the simulator and oracle battery, the repair gate and
#: propose, then the GNN training step.
STAGES = ("compile", "verify", "passes", "graph", "seed_embed", "embed",
          "classify", "analyze_checks", "analyze_interpret",
          "analyze_match", "simulate", "oracles", "gate", "propose",
          "forward", "backward", "optim")

#: Stage latency by stage name, fed by every stage frame (worker frames
#: as the parent merges them), so /metrics carries per-process stage
#: seconds.
_STAGE_SEC = METRICS.histogram(
    "repro_stage_seconds", "Pipeline stage latency by stage.",
    labelnames=("stage",))


def new_id() -> str:
    """A 64-bit hex id (trace and span ids share the format)."""
    return os.urandom(8).hex()


class _NoopSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def set(self, **attrs) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _Activation:
    """Re-install a captured context in another thread (or no-op)."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: Optional[TraceContext]):
        self._ctx = ctx

    def __enter__(self):
        self._token = _CTX.set(self._ctx) if self._ctx else None
        return self

    def __exit__(self, *exc_info):
        if self._token is not None:
            _CTX.reset(self._token)
        return False


class _Span:
    """A live span context manager, fanned out over every open trace
    in the current context.

    A pipeline stage frame (``stage`` set) is a ``stage.<name>`` span
    that also observes ``repro_stage_seconds``; a collecting process
    (a pool worker) leaves that observation to the parent that merges
    its spans."""

    __slots__ = ("_tracer", "name", "kind", "_attrs", "_stage", "_entries",
                 "_ids", "_token", "_wall", "_start")

    def __init__(self, tracer: "Tracer", name: str, kind: str,
                 attrs: Dict[str, Any], stage: Optional[str] = None):
        self._tracer = tracer
        self.name = name
        self.kind = kind
        self._attrs = attrs
        self._stage = stage

    def set(self, **attrs) -> None:
        self._attrs.update(attrs)

    def __enter__(self):
        # Clock first: the span's own set-up falls inside its interval
        # instead of being lost between spans.
        self._start = perf_counter()
        self._wall = time.time()
        entries = self._entries = _CTX.get() or ()
        ids = self._ids = [new_id() for _ in entries]
        self._token = _CTX.set(tuple([
            (trace_id, span_id)
            for (trace_id, _parent), span_id in zip(entries, ids)])) \
            if entries else None
        return self

    def __exit__(self, *exc_info):
        if self._token is not None:
            _CTX.reset(self._token)
        spans = [self._tracer.record_span(trace_id, span_id, parent_id,
                                          self.name, self.kind, self._wall,
                                          0.0, self._attrs or None)
                 for (trace_id, parent_id), span_id
                 in zip(self._entries, self._ids)]
        # Clock last, so recording falls inside the interval as well.
        elapsed = perf_counter() - self._start
        for span in spans:
            if span is not None:
                span["elapsed_s"] = round(elapsed, 6)
        if self._stage is not None and self._tracer._collect is None:
            _STAGE_SEC.labels(self._stage).observe(elapsed)
        return False


class _RootSpan:
    """The span that opens (and on exit completes) a whole trace."""

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name",
                 "_attrs", "_token", "_wall", "_start")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 attrs: Dict[str, Any],
                 parent_id: Optional[str] = None):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = new_id()
        # A remote parent (the fleet front door's root span) makes this
        # whole trace a subtree of a cross-process trace: the merged
        # span set renders front door → replica → worker as one tree.
        self.parent_id = parent_id
        self.name = name
        self._attrs = attrs

    def set(self, **attrs) -> None:
        self._attrs.update(attrs)

    def __enter__(self):
        self._tracer._register(self.trace_id)
        self._token = _CTX.set(((self.trace_id, self.span_id),))
        self._wall = time.time()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info):
        elapsed = perf_counter() - self._start
        _CTX.reset(self._token)
        root = {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "kind": "server",
                "start_s": round(self._wall, 6),
                "elapsed_s": round(elapsed, 6), "process": os.getpid()}
        if self._attrs:
            root["attrs"] = self._attrs
        self._tracer._finish(self.trace_id, root)
        return False


class Tracer:
    """Process-wide span recorder with a bounded completed-trace ring."""

    #: Per-trace span cap: stage frames are fine-grained (one span per
    #: compile/verify/pass frame per sample), so a huge bulk request
    #: could otherwise make a single trace unbounded.  Overflow is
    #: counted in ``dropped``, never silently lost.
    max_spans_per_trace = 4096

    def __init__(self, ring_size: int = 256):
        self.enabled = False
        self.ring_size = ring_size
        self._lock = threading.Lock()
        self._open: Dict[str, List[Dict[str, Any]]] = {}
        self._ring: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: Uncapped collect buffer (see :meth:`collect`; single-threaded).
        self._collect: Optional[List[Dict[str, Any]]] = None
        self.dropped = 0
        self.recorded_traces = 0

    # -- lifecycle ----------------------------------------------------------
    def enable(self, ring_size: Optional[int] = None) -> None:
        if ring_size is not None:
            self.ring_size = max(1, int(ring_size))
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        with self._lock:
            self._open.clear()

    # -- context ------------------------------------------------------------
    def current(self) -> Optional[TraceContext]:
        """The active context, tracing enabled or not (cheap)."""
        return _CTX.get()

    def capture(self) -> Optional[TraceContext]:
        """The context to propagate across a boundary; ``None`` while
        tracing is disabled so payloads stay minimal."""
        return _CTX.get() if self.enabled else None

    def activate(self, ctx: Optional[TraceContext]) -> _Activation:
        """Context manager installing ``ctx`` (no-op for ``None``) —
        required inside ``run_in_executor`` callables."""
        return _Activation(ctx)

    # -- spans --------------------------------------------------------------
    def start_trace(self, name: str, trace_id: Optional[str] = None,
                    parent_id: Optional[str] = None, **attrs) -> Any:
        """Open a new trace; the returned context manager is its root
        span and on exit moves the completed trace into the ring.
        ``parent_id`` links the root under a span of an upstream
        process (cross-hop propagation via ``X-Repro-Parent``)."""
        if not self.enabled:
            return _NOOP_SPAN
        return _RootSpan(self, name, trace_id or new_id(), attrs,
                         parent_id=parent_id)

    def span(self, name: str, kind: str = "internal", **attrs) -> Any:
        """A child span under every trace in the current context."""
        if not self.enabled or _CTX.get() is None:
            return _NOOP_SPAN
        return _Span(self, name, kind, attrs)

    def stage(self, name: str) -> Any:
        """Time pipeline stage ``name`` (one of :data:`STAGES`)
        as a ``stage.<name>`` span; the shared no-op while disabled."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, "stage." + name, "stage", {}, name)

    def record(self, name: str, kind: str = "internal",
               start_s: float = 0.0, elapsed_s: float = 0.0,
               attrs: Optional[Dict[str, Any]] = None,
               ctx: Optional[TraceContext] = None) -> None:
        """Record an already-timed leaf span under ``ctx`` (or the
        current context) without touching the active context — safe
        from generators, where a context-manager span would leak its
        context to the caller between yields."""
        if not self.enabled:
            return
        entries = ctx if ctx is not None else _CTX.get()
        if not entries:
            return
        for trace_id, parent_id in entries:
            self.record_span(trace_id, new_id(), parent_id, name, kind,
                             start_s, elapsed_s, attrs)

    def record_span(self, trace_id: str, span_id: str,
                    parent_id: Optional[str], name: str, kind: str,
                    start_s: float, elapsed_s: float,
                    attrs: Optional[Dict[str, Any]] = None,
                    ) -> Optional[Dict[str, Any]]:
        """Low-level append of one completed span to one open trace;
        returns the recorded span (``None`` when dropped)."""
        span = {"trace_id": trace_id, "span_id": span_id,
                "parent_id": parent_id, "name": name, "kind": kind,
                "start_s": round(start_s, 6),
                "elapsed_s": round(elapsed_s, 6),
                "process": os.getpid()}
        if attrs:
            span["attrs"] = attrs
        if self._collect is not None:
            self._collect.append(span)
            return span
        with self._lock:
            spans = self._open.get(trace_id)
            if spans is None or len(spans) >= self.max_spans_per_trace:
                self.dropped += 1       # completed/evicted trace, or full
                return None
            spans.append(span)
        return span

    # -- collect buffers and the worker transport --------------------------
    @contextmanager
    def collect(self, ctx: TraceContext):
        """Record every span under ``ctx`` into an uncapped buffer (the
        yielded list) instead of the ring, tracing on for the scope.
        The tracer's prior state comes back on exit, also after an
        exception.  Pool workers ship the buffer home with their chunk."""
        buffer: List[Dict[str, Any]] = []
        saved = self.enabled, self._collect
        self.enabled, self._collect = True, buffer
        token = _CTX.set(tuple(ctx))
        try:
            yield buffer
        finally:
            _CTX.reset(token)
            self.enabled, self._collect = saved

    @contextmanager
    def worker_scope(self, ctx: Optional[TraceContext]):
        """Pool-worker recording scope.

        With a context, spans (stage frames included) :meth:`collect`
        into the buffer the worker ships home.  Without one — including
        forked workers that inherited an enabled tracer whose ring is a
        useless copy-on-write copy — recording is neutralized.  Yields
        the buffer.
        """
        if ctx:
            with self.collect(ctx) as buffer:
                yield buffer
            return
        enabled, self.enabled = self.enabled, False
        try:
            yield []
        finally:
            self.enabled = enabled

    def merge_spans(self, spans: List[Dict[str, Any]]) -> None:
        """Fold worker-recorded spans home: into the collect buffer while
        this process collects, else into their (still open) traces.

        Workers leave ``repro_stage_seconds`` to the parent, which
        observes each worker stage frame here once.  A frame under k
        coalesced traces arrives as k copies, recorded in context order,
        so the copies under the first span's trace are the ones counted.
        """
        if self._collect is not None:
            self._collect.extend(spans)
            return
        first = spans[0]["trace_id"] if spans else None
        for span in spans:
            if span["kind"] == "stage" and span["trace_id"] == first:
                _STAGE_SEC.labels(span["name"][len("stage."):]).observe(
                    span["elapsed_s"])
            with self._lock:
                open_spans = self._open.get(span["trace_id"])
                if open_spans is None \
                        or len(open_spans) >= self.max_spans_per_trace:
                    self.dropped += 1
                    continue
                open_spans.append(span)

    # -- ring ---------------------------------------------------------------
    def _register(self, trace_id: str) -> None:
        with self._lock:
            self._open[trace_id] = []

    def _finish(self, trace_id: str, root: Dict[str, Any]) -> None:
        """Complete ``trace_id``: append its root span (exempt from the
        span cap — a trace without a root is unreadable) and move the
        trace into the ring."""
        with self._lock:
            spans = self._open.pop(trace_id, None)
            if spans is None:
                return
            spans.append(root)
            self.recorded_traces += 1
            self._ring[trace_id] = {
                "trace_id": trace_id,
                "name": root["name"],
                "started_at": root["start_s"],
                "duration_s": root["elapsed_s"],
                "spans": spans,
            }
            while len(self._ring) > self.ring_size:
                self._ring.popitem(last=False)

    def get_trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._ring.get(trace_id)

    def recent(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Newest-first summaries of completed traces in the ring."""
        with self._lock:
            docs = list(self._ring.values())
        return [{"trace_id": d["trace_id"], "name": d["name"],
                 "started_at": d["started_at"],
                 "duration_s": d["duration_s"],
                 "n_spans": len(d["spans"])}
                for d in reversed(docs[-limit:])]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"enabled": self.enabled,
                    "ring_size": self.ring_size,
                    "ring_traces": len(self._ring),
                    "open_traces": len(self._open),
                    "recorded_traces": self.recorded_traces,
                    "dropped_spans": self.dropped}


#: The process-wide tracer.
TRACER = Tracer()
