"""Span recording around the program's public entry points.

The benchmark traces the program from the outside: :func:`install`
replaces each entry point named in :data:`perfbench.layers.SPANS` with
a wrapper that records a span (name, start, end, enclosing span) into a
:class:`Recorder`.  Nothing inside ``src/`` changes.

Spans on one thread nest, so a span's *self time* is its duration minus
the time its direct children cover.  The recorder aggregates online —
calls, inclusive and self seconds per name, plus any per-call counts —
because a run makes tens of thousands of calls.  Coroutine entry points
(the server's request handler) are recorded as *detached* intervals keyed
by a caller-supplied id, since coroutines interleave on one thread and
cannot nest by stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_time(span: Tuple[float, float],
              children: Sequence[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    start, stop = span
    clipped = [(max(a, start), min(b, stop)) for a, b in children
               if min(b, stop) > max(a, start)]
    return (stop - start) - union_length(clipped)


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0


class Recorder:
    """Per-name span aggregates, collected in memory and dumped once."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_ends: Sequence[str] = ()):
        self.clock = clock
        self._keep_ends = frozenset(keep_ends)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name → [calls, inclusive seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        #: name → summed per-call counts (rows encoded, …)
        self.counts: Dict[str, float] = {}
        #: name → end time of every span, for names in ``keep_ends``
        self.ends: Dict[str, List[float]] = {n: [] for n in keep_ends}
        #: intervals of spans with no enclosing span, any thread
        self.top: List[Tuple[float, float]] = []
        #: name → {key: (start, end)} for detached (coroutine) spans
        self.detached: Dict[str, Dict[str, Tuple[float, float]]] = {}
        #: name → values observed from call arguments at span entry
        self.samples: Dict[str, List[float]] = {}

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame, count: float = 0.0) -> None:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        outermost = all(f.name != frame.name for f in stack)
        with self._lock:
            agg = self.layers.setdefault(frame.name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[2] += duration - frame.child
            if outermost:
                agg[1] += duration
                if count:
                    self.counts[frame.name] = \
                        self.counts.get(frame.name, 0.0) + count
            if frame.name in self._keep_ends:
                self.ends[frame.name].append(end)
            if not stack:
                self.top.append((frame.start, end))
        if stack:
            stack[-1].child += duration

    def add_interval(self, name: str, start: float, end: float) -> None:
        """A top-level span measured elsewhere (process start-up)."""
        with self._lock:
            agg = self.layers.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start
            self.top.append((start, end))

    def add_detached(self, name: str, key: str, start: float,
                     end: float) -> None:
        with self._lock:
            self.detached.setdefault(name, {})[key] = (start, end)

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[Any], float]] = None,
             key: Optional[Callable[..., Optional[str]]] = None,
             sample: Optional[Callable[..., Sequence[float]]] = None,
             ) -> Callable:
        """``fn`` with a span around every call.  ``count`` maps a call's
        result to the work it did (rows encoded); ``key`` maps a
        coroutine's arguments to the id its detached span is kept under;
        ``sample(now, *args)`` extracts values to keep at entry (how long
        each queued item waited)."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def detached(*args, **kwargs):
                start = self.clock()
                if sample is not None:
                    values = sample(start, *args, **kwargs)
                    with self._lock:
                        self.samples.setdefault(name, []).extend(values)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    ident = key(*args, **kwargs) if key else None
                    if ident is not None:
                        self.add_detached(name, ident, start, self.clock())

            return detached

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = self.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.exit(frame, count(result)
                          if count and result is not None else 0.0)

        return spanned

    def dump(self) -> Dict[str, Any]:
        """JSON-able snapshot of everything recorded."""
        with self._lock:
            return {
                "layers": {k: list(v) for k, v in self.layers.items()},
                "counts": dict(self.counts),
                "ends": {k: list(v) for k, v in self.ends.items()},
                "top": list(self.top),
                "detached": {k: dict(v) for k, v in self.detached.items()},
                "samples": {k: list(v) for k, v in self.samples.items()},
            }


def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.method"`` → (owner object, attribute name)."""
    module_name, _sep, attr_path = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder, spans: Sequence[Any]) -> List[str]:
    """Wrap every entry point in ``spans`` (see :data:`layers.SPANS`).

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name, so ``from x import f`` call sites
    see the wrapper too.  Returns the entry points that could not be
    found (a later version of the program may have moved them)."""
    missing = []
    for entry in spans:
        try:
            owner, attr = _resolve(entry.target)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(entry.target)
            continue
        wrapped = recorder.wrap(entry.span, original, count=entry.count,
                                key=entry.key, sample=entry.sample)
        setattr(owner, attr, wrapped)
        if inspect.ismodule(owner):
            for name, module in list(sys.modules.items()):
                if (name.startswith("repro") and module is not owner
                        and getattr(module, attr, None) is original):
                    setattr(module, attr, wrapped)
    return missing
