"""Structured JSON-lines event log with severity and trace context.

One :data:`EVENTS` log per process, disabled by default (a single
attribute check per ``emit`` site).  :meth:`EventLog.configure` opens
it on a file path, or ``-``/``stderr`` for standard error; the
``--obs-log`` flag of ``repro serve`` and ``repro fuzz run`` is the CLI
face.

Every record is one JSON object per line::

    {"ts": 1754650000.1, "severity": "info", "event": "engine.pool_start",
     "trace_id": "9f…", "span_id": "3c…", "workers": 4, ...}

``trace_id``/``span_id`` are attached automatically from the current
trace context when one is active, which is what lets a grep of the log
join an event back to the request in ``/v1/trace/<id>``.

Rate-limited sampling: at most ``max_per_window`` records per
``(event, severity)`` key per ``window_s`` window.  Overflow is counted
— not silently dropped — and surfaced as one ``obs.suppressed`` meta
record when the window rolls, so a log reader can tell "quiet" from
"throttled".
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Dict, Optional, TextIO, Tuple

from repro.obs.trace import TRACER

SEVERITIES = ("debug", "info", "warning", "error")


class EventLog:
    """Process-wide rate-limited JSON-lines emitter."""

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._stream: Optional[TextIO] = None
        self._owns_stream = False
        self.max_per_window = 200
        self.window_s = 10.0
        self._window_start = 0.0
        self._window_counts: Dict[Tuple[str, str], int] = {}
        self._suppressed: Dict[Tuple[str, str], int] = {}
        self.emitted = 0
        self.dropped = 0

    # -- lifecycle ----------------------------------------------------------
    def configure(self, path: Optional[str] = None,
                  stream: Optional[TextIO] = None,
                  max_per_window: Optional[int] = None,
                  window_s: Optional[float] = None) -> None:
        """Open the sink and enable emission.  ``path`` opens (appends
        to) a file; ``stream`` uses an existing file object; neither
        defaults to stderr."""
        self.close()
        if max_per_window is not None:
            self.max_per_window = max(1, int(max_per_window))
        if window_s is not None:
            self.window_s = max(0.1, float(window_s))
        if path and path not in ("-", "stderr"):
            self._stream = open(path, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = stream or sys.stderr
            self._owns_stream = False
        self._window_start = time.time()
        self._window_counts = {}
        self._suppressed = {}
        self.enabled = True

    def close(self) -> None:
        self.enabled = False
        stream, self._stream = self._stream, None
        if stream is not None and self._owns_stream:
            try:
                stream.close()
            except OSError:
                pass
        self._owns_stream = False

    # -- emission -----------------------------------------------------------
    def emit(self, event: str, severity: str = "info", **fields) -> None:
        """Write one record (or count it as suppressed)."""
        if not self.enabled:
            return
        if severity not in SEVERITIES:
            severity = "info"
        now = time.time()
        key = (event, severity)
        flush_suppressed: Dict[Tuple[str, str], int] = {}
        with self._lock:
            if now - self._window_start >= self.window_s:
                flush_suppressed, self._suppressed = self._suppressed, {}
                self._window_counts = {}
                self._window_start = now
            count = self._window_counts.get(key, 0) + 1
            self._window_counts[key] = count
            if count > self.max_per_window:
                self._suppressed[key] = self._suppressed.get(key, 0) + 1
                self.dropped += 1
                suppressed_now = True
            else:
                suppressed_now = False
        for (s_event, s_sev), n in sorted(flush_suppressed.items()):
            self._write({"ts": round(now, 6), "severity": "warning",
                         "event": "obs.suppressed",
                         "suppressed_event": s_event,
                         "suppressed_severity": s_sev, "count": n})
        if suppressed_now:
            return
        record: Dict[str, Any] = {"ts": round(now, 6),
                                  "severity": severity, "event": event}
        ctx = TRACER.current()
        if ctx:
            record["trace_id"], record["span_id"] = ctx[0]
        for name, value in fields.items():
            if name not in record:
                record[name] = value
        self._write(record)

    def _write(self, record: Dict[str, Any]) -> None:
        stream = self._stream
        if stream is None:
            return
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (OSError, ValueError):
                # A closed/broken sink must never take down the caller.
                self.enabled = False
        self.emitted += 1


#: The process-wide event log.
EVENTS = EventLog()
