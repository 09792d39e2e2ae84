"""Event-log contracts: JSON-lines shape, severity, automatic trace
context, rate limiting with a visible obs.suppressed record, and a
broken sink disabling emission instead of raising."""

import io
import json

import pytest

from repro.obs.log import SEVERITIES, EventLog
from repro.obs.trace import Tracer


@pytest.fixture()
def log_and_stream():
    log = EventLog()
    stream = io.StringIO()
    log.configure(stream=stream)
    yield log, stream
    log.close()


def _records(stream):
    return [json.loads(line) for line in
            stream.getvalue().splitlines() if line]


def test_disabled_log_emits_nothing():
    log = EventLog()
    log.emit("x.y", value=1)               # must not raise, must not write
    assert log.emitted == 0


def test_records_are_one_json_object_per_line(log_and_stream):
    log, stream = log_and_stream
    log.emit("engine.pool_start", workers=4, start_method="fork")
    log.emit("serve.error", severity="error", status=500)
    records = _records(stream)
    assert len(records) == 2
    assert records[0]["event"] == "engine.pool_start"
    assert records[0]["severity"] == "info"
    assert records[0]["workers"] == 4
    assert records[1]["severity"] == "error"
    assert all("ts" in r for r in records)


def test_unknown_severity_normalizes_to_info(log_and_stream):
    log, stream = log_and_stream
    log.emit("x", severity="catastrophic")
    assert _records(stream)[0]["severity"] == "info"
    assert "debug" in SEVERITIES and "error" in SEVERITIES


def test_trace_context_attaches_automatically(log_and_stream):
    log, stream = log_and_stream
    tracer = Tracer()
    tracer.enabled = True
    with tracer.start_trace("req", trace_id="tlog"):
        log.emit("inside.trace")
    log.emit("outside.trace")
    inside, outside = _records(stream)
    assert inside["trace_id"] == "tlog"
    assert "span_id" in inside
    assert "trace_id" not in outside


def test_rate_limit_suppresses_and_reports(log_and_stream):
    log, stream = log_and_stream
    log.max_per_window = 3
    log.window_s = 3600.0                  # never rolls during the burst
    for i in range(10):
        log.emit("noisy.event", i=i)
    records = _records(stream)
    assert len(records) == 3               # overflow held back
    assert log.dropped == 7

    # Rolling the window flushes one obs.suppressed meta record, so a
    # reader can tell "quiet" from "throttled".
    log._window_start = 0.0
    log.emit("noisy.event", i=99)
    records = _records(stream)
    suppressed = [r for r in records if r["event"] == "obs.suppressed"]
    assert len(suppressed) == 1
    assert suppressed[0]["count"] == 7
    assert suppressed[0]["suppressed_event"] == "noisy.event"
    assert records[-1]["i"] == 99          # fresh window admits again


def test_rate_limit_is_per_event_and_severity(log_and_stream):
    log, stream = log_and_stream
    log.max_per_window = 2
    log.window_s = 3600.0
    for _ in range(5):
        log.emit("a")
        log.emit("b")
    by_event = {}
    for r in _records(stream):
        by_event[r["event"]] = by_event.get(r["event"], 0) + 1
    assert by_event == {"a": 2, "b": 2}


def test_broken_sink_disables_not_raises():
    log = EventLog()
    stream = io.StringIO()
    log.configure(stream=stream)
    stream.close()
    log.emit("x")                          # must not raise
    assert log.enabled is False


def test_configure_path_appends_jsonl(tmp_path):
    log = EventLog()
    path = tmp_path / "events.jsonl"
    log.configure(path=str(path))
    log.emit("first", n=1)
    log.close()
    log.configure(path=str(path))          # reopen appends
    log.emit("second", n=2)
    log.close()
    lines = path.read_text().splitlines()
    assert [json.loads(l)["event"] for l in lines] == ["first", "second"]
