"""Metric primitives: counters, gauges, fixed-bucket histograms.

One process-wide :data:`METRICS` registry: instruments are registered at
import time (cheap — a dict entry), but *observations* are dropped until
the registry is enabled, so library code paths pay one attribute check
when telemetry is off.  The serve layer enables the registry at startup;
the fuzz campaign can do the same.

Design points, all in service of the serve→engine→worker pipeline:

* **Observed in the serving process** — pool workers are forked copies
  whose registries nobody reads, so nothing is shipped home from them.
  Worker time reaches ``/metrics`` through the one worker transport,
  trace spans: the parent observes ``repro_stage_seconds`` as it merges
  the stage spans a chunk returns (:meth:`repro.obs.trace.Tracer.merge_spans`).
* **Fixed buckets** — histograms pre-declare their bucket bounds, so
  p50/p90/p99 are derived by linear interpolation inside the winning
  bucket.
* **Prometheus text exposition** — :meth:`MetricsRegistry.render_prometheus`
  emits the ``text/plain; version=0.0.4`` format (``# HELP`` / ``# TYPE``
  comments, cumulative ``_bucket{le=...}`` series, ``_sum`` / ``_count``);
  ``ci/check_metrics.py`` validates the grammar in CI.

Naming convention (see docs/observability.md): ``repro_<subsystem>_
<what>_<unit>``, e.g. ``repro_serve_request_seconds``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): micro-batch windows live around
#: 10 ms, cold compiles around 100 ms – 1 s, so the range covers both.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_NAME_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(c not in _NAME_OK for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt(value: float) -> str:
    """Prometheus sample values: integers render without the '.0'."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Child:
    """One labeled series of a counter/gauge family."""

    __slots__ = ("_registry", "value")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self.value += amount

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self.value = float(value)


class _HistChild:
    """One labeled series of a histogram family.

    ``counts`` has one slot per declared bucket plus a final overflow
    slot (the implicit ``le="+Inf"`` bucket).
    """

    __slots__ = ("_registry", "buckets", "counts", "sum", "count")

    def __init__(self, registry: "MetricsRegistry",
                 buckets: Tuple[float, ...]):
        self._registry = registry
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        index = bisect_left(self.buckets, value)
        with self._registry._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> Optional[float]:
        """Derive the q-quantile by linear interpolation inside the
        winning bucket.  ``None`` for an empty histogram; observations
        beyond the top declared bucket clamp to the top finite bound
        (the overflow bucket has no upper edge to interpolate against).
        """
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for index, bound in enumerate(self.buckets):
            previous = cumulative
            cumulative += self.counts[index]
            if cumulative >= target and self.counts[index]:
                low = self.buckets[index - 1] if index else 0.0
                fraction = (target - previous) / self.counts[index]
                return low + (bound - low) * max(0.0, min(1.0, fraction))
        return self.buckets[-1]


class _Family:
    """A named metric family holding one child per label-value tuple."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Tuple[str, ...]):
        self._registry = registry
        self.name = _check_name(name)
        self.help = help
        self.labelnames = labelnames
        self._children: "OrderedDict[Tuple[str, ...], Any]" = OrderedDict()
        if not labelnames:
            self._children[()] = self._new_child()

    def _new_child(self) -> Any:
        return _Child(self._registry)

    def labels(self, *values: Any) -> Any:
        values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {len(values)} values")
        child = self._children.get(values)
        if child is None:
            with self._registry._lock:
                child = self._children.setdefault(values, self._new_child())
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        return list(self._children.items())


class Counter(_Family):
    """Monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._children[()].inc(amount)


class Gauge(_Family):
    """A value that goes up and down (queue depth, utilization)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._children[()].set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._children[()].inc(amount)


class Histogram(_Family):
    """Fixed-bucket distribution; p50/p90/p99 derivable per series."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Tuple[str, ...],
                 buckets: Optional[Sequence[float]] = None):
        self.buckets = tuple(sorted(float(b) for b in
                                    (buckets or DEFAULT_BUCKETS)))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        super().__init__(registry, name, help, labelnames)

    def _new_child(self) -> Any:
        return _HistChild(self._registry, self.buckets)

    def observe(self, value: float) -> None:
        self._children[()].observe(value)

    def quantile(self, q: float) -> Optional[float]:
        return self._children[()].quantile(q)


class MetricsRegistry:
    """Process-wide instrument registry."""

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._families: "OrderedDict[str, _Family]" = OrderedDict()

    # -- registration -------------------------------------------------------
    def _register(self, cls, name: str, help: str,
                  labelnames: Sequence[str] = (), **kwargs) -> Any:
        labelnames = tuple(str(n) for n in labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (type(family) is not cls
                        or family.labelnames != labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}")
                return family
            family = cls(self, name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str,
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str,
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str,
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    def reset(self) -> None:
        """Zero every series (registration survives — tests only)."""
        with self._lock:
            for family in self._families.values():
                for _values, child in family.children():
                    if isinstance(child, _HistChild):
                        child.counts = [0] * len(child.counts)
                        child.sum = 0.0
                        child.count = 0
                    else:
                        child.value = 0.0

    # -- exposition ---------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (the default ``/metrics`` body)."""
        out: Dict[str, Any] = {}
        with self._lock:
            for name, family in self._families.items():
                series = []
                for values, child in family.children():
                    labels = dict(zip(family.labelnames, values))
                    if isinstance(child, _HistChild):
                        series.append({
                            "labels": labels,
                            "count": child.count,
                            "sum": round(child.sum, 6),
                            "p50": child.quantile(0.50),
                            "p90": child.quantile(0.90),
                            "p99": child.quantile(0.99),
                        })
                    else:
                        series.append({"labels": labels,
                                       "value": round(child.value, 6)})
                out[name] = {"kind": family.kind, "series": series}
        return out

    def render_prometheus(self) -> str:
        """The ``text/plain; version=0.0.4`` exposition body."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                lines.append(f"# HELP {name} {family.help}")
                lines.append(f"# TYPE {name} {family.kind}")
                for values, child in sorted(family.children()):
                    base = list(zip(family.labelnames, values))
                    if isinstance(child, _HistChild):
                        cumulative = 0
                        for bound, count in zip(
                                list(child.buckets) + ["+Inf"],
                                child.counts):
                            cumulative += count
                            le = (bound if isinstance(bound, str)
                                  else _fmt(bound))
                            lines.append(
                                f"{name}_bucket"
                                f"{_labelstr(base + [('le', le)])} "
                                f"{cumulative}")
                        lines.append(
                            f"{name}_sum{_labelstr(base)} "
                            f"{_fmt(child.sum)}")
                        lines.append(
                            f"{name}_count{_labelstr(base)} {child.count}")
                    else:
                        lines.append(f"{name}{_labelstr(base)} "
                                     f"{_fmt(child.value)}")
        return "\n".join(lines) + "\n" if lines else ""


def _labelstr(pairs: List[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


#: The process-wide registry every instrument reports to.
METRICS = MetricsRegistry()
