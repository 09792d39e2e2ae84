"""Low-overhead per-stage timers for the cold pipeline path.

The cold path is a chain — preprocess/parse/codegen ("compile"), IR
verification ("verify"), the optimization pipeline ("passes"), program
graph construction ("graph"), IR2vec encoding ("embed") and model
fit/predict ("classify") — and optimization work on it is only honest
when every claim is backed by a per-stage number.  This module is that
number's source of truth:

* :data:`PERF` is a process-wide :class:`PerfRegistry`.  Stage code
  wraps its hot region in ``with PERF.stage("compile"):`` — when the
  registry is disabled (the default) that is one attribute check and a
  shared no-op context manager, cheap enough to leave in production
  code paths.
* Timers account **exclusive** (self) time: a stage nested inside
  another contributes only to the inner stage, so the per-stage totals
  of one run are disjoint and sum to ≈ the instrumented wall clock.
  This is what makes the ``repro profile`` acceptance check ("stage
  times sum to within 10% of wall") meaningful.
* Worker processes snapshot their registries and the engine merges the
  snapshots parent-side, so ``repro profile --workers N`` still reports
  full per-stage CPU seconds (which may legitimately exceed wall).

:func:`collect_profile` drives a dataset through the pipeline under the
registry and returns the schema-checked ``PERF_profile.json`` document;
``repro profile <dataset>`` is its CLI face.
"""

from __future__ import annotations

from time import perf_counter, time
from typing import Any, Dict, List, Optional

#: Canonical stage names, in pipeline order.  Instrumentation sites may
#: only use names from this tuple so profiles stay comparable across
#: runs and versions.
STAGES = ("compile", "verify", "passes", "graph", "embed", "classify")

SCHEMA_VERSION = 1


class _NoopStage:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NOOP = _NoopStage()


class _Stage:
    """One live timer frame; exclusive time = elapsed − nested elapsed."""

    __slots__ = ("_registry", "name", "_start", "_child_sec", "_wall")

    def __init__(self, registry: "PerfRegistry", name: str):
        self._registry = registry
        self.name = name

    def __enter__(self):
        self._child_sec = 0.0
        self._registry._stack.append(self)
        self._wall = time()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info):
        elapsed = perf_counter() - self._start
        registry = self._registry
        stack = registry._stack
        if stack and stack[-1] is self:
            stack.pop()
        registry._self_sec[self.name] = (
            registry._self_sec.get(self.name, 0.0)
            + max(0.0, elapsed - self._child_sec))
        registry._counts[self.name] = registry._counts.get(self.name, 0) + 1
        if stack:
            # Parent frames exclude the whole nested interval, keeping
            # the per-stage totals disjoint.
            stack[-1]._child_sec += elapsed
        sink = registry.span_sink
        if sink is not None:
            # Spans are intervals, so the sink gets *inclusive* elapsed
            # (nesting is what the trace view renders); exclusive time
            # stays the profile's accounting.
            sink(self.name, self._wall, elapsed)
        return False


class _SpanStage:
    """Stage frame that only feeds the trace span sink (tracing on,
    profiling off): no exclusive-time bookkeeping, no stack."""

    __slots__ = ("_registry", "name", "_wall", "_start")

    def __init__(self, registry: "PerfRegistry", name: str):
        self._registry = registry
        self.name = name

    def __enter__(self):
        self._wall = time()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info):
        sink = self._registry.span_sink
        if sink is not None:
            sink(self.name, self._wall, perf_counter() - self._start)
        return False


class PerfRegistry:
    """Accumulates exclusive per-stage seconds and entry counts.

    Two independent consumers hang off each stage frame: the profile
    accounting (``enabled``) and the trace span sink (``span_sink``,
    installed by :class:`repro.obs.trace.Tracer`).  ``active`` is their
    precomputed OR, so the disabled hot path stays one attribute check.
    """

    def __init__(self):
        self._enabled = False
        self.active = False
        self.span_sink = None
        self._self_sec: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._stack: List[_Stage] = []

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self.active = self._enabled or self.span_sink is not None

    def set_span_sink(self, sink) -> None:
        """Install (or with ``None`` remove) the per-frame span callback
        ``sink(stage_name, wall_start_s, elapsed_s)``."""
        self.span_sink = sink
        self.active = self._enabled or sink is not None

    def reset(self) -> None:
        self._self_sec = {}
        self._counts = {}
        self._stack = []

    def stage(self, name: str):
        """Context manager timing ``name``; no-op while disabled."""
        if not self.active:
            return _NOOP
        if self._enabled:
            return _Stage(self, name)
        return _SpanStage(self, name)

    def snapshot(self) -> Dict[str, Any]:
        """A picklable copy of the accumulated totals (worker → parent)."""
        return {"stage_sec": dict(self._self_sec),
                "stage_counts": dict(self._counts)}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry."""
        for name, sec in snapshot.get("stage_sec", {}).items():
            self._self_sec[name] = self._self_sec.get(name, 0.0) + float(sec)
        for name, count in snapshot.get("stage_counts", {}).items():
            self._counts[name] = self._counts.get(name, 0) + int(count)

    def total_sec(self) -> float:
        return sum(self._self_sec.values())

    @property
    def stage_sec(self) -> Dict[str, float]:
        return dict(self._self_sec)

    @property
    def stage_counts(self) -> Dict[str, int]:
        return dict(self._counts)


#: The process-wide registry every instrumentation site reports to.
PERF = PerfRegistry()


# ---------------------------------------------------------------------------
# The PERF_profile.json artifact
# ---------------------------------------------------------------------------

#: Envelope kind name; the schema itself lives in the unified envelope
#: registry (:mod:`repro.schema.kinds`) — imported lazily below so that
#: importing repro.perf stays dependency-light (every instrumentation
#: site imports it).
PROFILE_KIND = "repro-perf-profile"


def validate_profile(doc: Any) -> None:
    """Raise :class:`repro.schema.SchemaError` on a malformed profile
    document (envelope or flat form), and on stage names outside
    :data:`STAGES`."""
    from repro.schema import validate_kind

    validate_kind(PROFILE_KIND, doc)


def save_profile(doc: Dict[str, Any], path: str) -> None:
    """Validate and write ``doc`` in envelope form."""
    from repro.schema import save_envelope

    save_envelope(doc, path, kind=PROFILE_KIND)


def load_profile(path: str) -> Dict[str, Any]:
    import json

    from repro.schema import validate_kind

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return validate_kind(PROFILE_KIND, doc)


# ---------------------------------------------------------------------------
# Profile driver (the guts of `repro profile <dataset>`)
# ---------------------------------------------------------------------------

def collect_profile(dataset_name: str, samples: List[Any],
                    method: str = "ir2vec", opt_level: str = "Os",
                    engine: Optional[Any] = None,
                    classify: bool = True) -> Dict[str, Any]:
    """Run the cold pipeline over ``samples`` under :data:`PERF` and
    return the profile document (not yet written to disk).

    One-time per-process warmup (IR2vec seed-embedding training) is
    handled outside the timed window, and the default engine is a fresh
    one, so the numbers reflect steady-state cold throughput: every
    sample is compiled, optimized, and embedded from scratch.  A caller
    passing its own ``engine`` owns its cache state.  With a serial
    engine the per-stage totals are disjoint slices of the instrumented
    wall clock (``coverage`` ≈ 1); with workers they are summed CPU
    seconds across processes and may exceed wall.
    """
    from repro.engine import ExecutionEngine
    from repro.pipeline.stages import (
        CFrontend,
        CFrontendConfig,
        DecisionTreeStage,
        DecisionTreeStageConfig,
        IR2VecFeaturizer,
        ProGraMLFeaturizer,
    )

    eng = engine if engine is not None else ExecutionEngine()
    frontend = CFrontend(CFrontendConfig(opt_level=opt_level, verify=True))
    if method == "gnn":
        featurizer: Any = ProGraMLFeaturizer(opt_level=opt_level)
    else:
        featurizer = IR2VecFeaturizer(opt_level=opt_level)
        featurizer.warmup()          # per-process cost, not throughput
    labels = [getattr(s, "label", "unknown") for s in samples]

    PERF.reset()
    PERF.enabled = True
    start = perf_counter()
    try:
        features = eng.featurize_samples(frontend, featurizer, samples)
        notes = ""
        if classify and method != "gnn" and len(set(labels)) > 1:
            stage = DecisionTreeStage(DecisionTreeStageConfig(use_ga=False))
            stage.fit(features, labels)
            stage.predict(features)
        elif method == "gnn":
            notes = ("classify stage skipped: GNN training cost is not a "
                     "per-sample cold cost")
        wall = perf_counter() - start
    finally:
        PERF.enabled = False

    stage_sec = {k: round(v, 6) for k, v in PERF.stage_sec.items()}
    total = PERF.total_sec()
    doc: Dict[str, Any] = {
        "kind": "repro-perf-profile",
        "schema_version": SCHEMA_VERSION,
        "dataset": dataset_name,
        "samples": len(samples),
        "method": method,
        "opt_level": opt_level,
        "workers": eng.workers,
        "wall_sec": round(wall, 6),
        "samples_per_sec": round(len(samples) / wall, 2) if wall else 0.0,
        "stage_sec": stage_sec,
        "stage_counts": PERF.stage_counts,
        "stage_total_sec": round(total, 6),
        "coverage": round(total / wall, 4) if wall else 0.0,
        "engine_counters": {k: int(v) for k, v in eng.counters.items()},
    }
    if notes:
        doc["notes"] = notes
    return doc
