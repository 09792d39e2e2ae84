"""Observability surface of the detection service, end to end over
real sockets:

* ``X-Repro-Trace`` on every response (including errors, whose JSON
  bodies also carry ``trace_id``),
* ``/metrics`` content negotiation — JSON by default, Prometheus text
  exposition via ``Accept`` or ``?format=prometheus`` (validated with
  the same ``ci/check_metrics.py`` the CI smoke runs),
* ``GET /v1/trace/<id>``: the traced request's span tree, including —
  with ``workers > 0`` — spans recorded inside pool worker processes,
* tracing disabled: requests still answer (with the header), the ring
  stays empty.
"""

import os
import sys

import pytest

from repro.engine import EngineConfig, ExecutionEngine
from repro.serve import BackgroundServer, ModelRegistry, ServeClient, \
    ServeConfig

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "ci"))
from check_metrics import check_text  # noqa: E402

CHECK_SRC = """#include <mpi.h>
int main(int argc, char** argv) {
  MPI_Init(&argc, &argv);
  int rank;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Finalize();
  return 0;
}
"""


@pytest.fixture()
def server(artifact_v1):
    config = ServeConfig(port=0, max_batch=8, max_queue=64)
    with BackgroundServer(artifact_v1, config) as handle:
        yield handle


def _client(handle) -> ServeClient:
    return ServeClient("127.0.0.1", handle.port)


# -- trace header + error bodies (satellite) --------------------------------

def test_trace_header_on_every_endpoint(server):
    client = _client(server)
    try:
        seen = set()
        for method, path, payload, expected in [
            ("GET", "/healthz", None, 200),
            ("GET", "/v1/model", None, 200),
            ("GET", "/metrics", None, 200),
            ("GET", "/v1/traces", None, 200),
            ("GET", "/nope", None, 404),
            ("POST", "/metrics", None, 405),
            ("POST", "/v1/check", {"source": CHECK_SRC}, 200),
            ("GET", "/v1/trace/ffffffffffffffff", None, 404),
        ]:
            status, headers, _body = client.request_full(method, path,
                                                         payload)
            assert status == expected, (method, path)
            trace_id = headers.get("x-repro-trace")
            assert trace_id, f"no X-Repro-Trace on {method} {path}"
            seen.add(trace_id)
        assert len(seen) == 8          # a fresh id per request
    finally:
        client.close()


def test_error_bodies_carry_trace_id(server):
    client = _client(server)
    try:
        for method, path, payload in [
            ("POST", "/v1/check", {"nope": 1}),        # triaged 400
            ("POST", "/v1/check", {"sources": []}),    # triaged 400
            ("GET", "/nope", None),                    # 404
            ("GET", "/v1/check", None),                # 405
        ]:
            status, headers, body = client.request_full(method, path,
                                                        payload)
            assert status >= 400
            assert body["error"]["code"], path
            assert body["error"]["trace_id"] == \
                headers["x-repro-trace"], path
    finally:
        client.close()


# -- /metrics negotiation (tentpole exposition) -----------------------------

def test_metrics_json_is_the_default_and_carries_telemetry(server):
    client = _client(server)
    try:
        client.check(CHECK_SRC, "warm.c")
        status, headers, body = client.request_full("GET", "/metrics")
        assert status == 200
        assert "application/json" in headers["content-type"]
        assert isinstance(body, dict)
        assert body["batcher"]["batches"] >= 1      # legacy keys intact
        telemetry = body["telemetry"]
        assert "repro_serve_request_seconds" in telemetry
        assert "repro_serve_batch_size" in telemetry
        assert body["tracing"]["enabled"] is True
        assert body["tracing"]["recorded_traces"] >= 1
        assert body["engine"]["perf"]["effective_cores"] >= 1
    finally:
        client.close()


def test_metrics_prometheus_via_query_and_accept(server):
    client = _client(server)
    try:
        client.check(CHECK_SRC, "warm.c")
        status, headers, text = client.request_full(
            "GET", "/metrics?format=prometheus")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "version=0.0.4" in headers["content-type"]
        assert isinstance(text, str)
        assert check_text(text) == [], check_text(text)[:5]
        assert "repro_serve_request_seconds_bucket" in text
        assert "repro_serve_uptime_seconds" in text

        status, headers, via_accept = client.request_full(
            "GET", "/metrics", headers={"Accept": "text/plain"})
        assert status == 200
        assert isinstance(via_accept, str)
        assert check_text(via_accept) == []
    finally:
        client.close()


def test_request_path_label_cardinality_is_bounded(server):
    client = _client(server)
    try:
        for i in range(5):
            client.request("GET", f"/made-up/{i}")
        client.request("GET", "/v1/trace/0000000000000000")
        text = client.metrics_text()
        assert 'path="other"' in text
        assert 'path="/v1/trace/<id>"' in text
        assert "made-up" not in text
    finally:
        client.close()


# -- the acceptance criterion: worker spans in /v1/trace/<id> ---------------

@pytest.fixture()
def worker_server(artifact_v1, fan_out_small):
    engine = ExecutionEngine(EngineConfig(workers=2))
    registry = ModelRegistry(artifact_v1, engine=engine)
    config = ServeConfig(port=0, max_batch=16, max_queue=64)
    try:
        with BackgroundServer(registry=registry, config=config) as handle:
            yield handle
    finally:
        engine.close()


def test_bulk_check_trace_spans_serve_engine_and_workers(worker_server):
    client = ServeClient("127.0.0.1", worker_server.port, timeout=120.0)
    try:
        # Eight distinct sources: enough samples past the (test-lowered)
        # fan-out guard, workers * MIN_SAMPLES_PER_WORKER = 2, to fill
        # both workers.
        sources = [{"name": f"bulk{i}.c",
                    "source": CHECK_SRC.replace("int rank;",
                                                f"int rank; int x{i};")}
                   for i in range(8)]
        status, headers, body = client.request_full(
            "POST", "/v1/check", {"sources": sources})
        assert status == 200 and len(body["results"]) == 8
        trace_id = headers["x-repro-trace"]

        status, doc = client.trace(trace_id)
        assert status == 200
        assert doc["trace_id"] == trace_id
        spans = doc["spans"]
        by_kind = {}
        for span in spans:
            by_kind.setdefault(span["kind"], []).append(span)

        # Server root + queue wait, the batcher's dispatch, the engine
        # fan-out, and per-stage pipeline frames.
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "POST /v1/check"
        names = {s["name"] for s in spans}
        assert "serve.queue" in names
        assert "serve.batch" in names
        assert "engine.fanout" in names
        assert any(n.startswith("stage.") for n in names)

        # Spans recorded inside pool worker processes came home.
        pids = {s["process"] for s in spans}
        assert len(pids) > 1, f"no worker-side spans (pids={pids})"
        server_pid = roots[0]["process"]
        worker_stage_spans = [s for s in spans
                              if s["process"] != server_pid
                              and s["kind"] == "stage"]
        assert worker_stage_spans

        # The batch span is attributed to this request's trace and
        # carries its coalescing metadata.
        batch = next(s for s in spans if s["name"] == "serve.batch")
        assert batch["attrs"]["batch_size"] >= 1
        assert batch["trace_id"] == trace_id
    finally:
        client.close()


def test_traces_index_lists_recent(server):
    client = _client(server)
    try:
        status, headers, _body = client.request_full(
            "POST", "/v1/check", {"source": CHECK_SRC})
        assert status == 200
        status, doc = client.request("GET", "/v1/traces")
        assert status == 200
        assert doc["enabled"] is True
        listed = {t["trace_id"] for t in doc["traces"]}
        assert headers["x-repro-trace"] in listed
    finally:
        client.close()


def test_analyze_trace_shows_the_analyzer_phases(server):
    client = _client(server)
    try:
        status, headers, body = client.request_full(
            "POST", "/v1/analyze", {"source": CHECK_SRC})
        assert status == 200, body
        status, doc = client.trace(headers["x-repro-trace"])
        assert status == 200
        names = {s["name"] for s in doc["spans"]}
        assert "stage.analyze_checks" in names, names
    finally:
        client.close()


# -- tracing disabled (library default on the hot path) ---------------------

def test_disabled_tracing_still_serves_with_header(artifact_v1):
    config = ServeConfig(port=0, trace=False)
    with BackgroundServer(artifact_v1, config) as handle:
        client = ServeClient("127.0.0.1", handle.port)
        try:
            status, headers, body = client.request_full(
                "POST", "/v1/check", {"source": CHECK_SRC})
            assert status == 200
            trace_id = headers["x-repro-trace"]
            assert trace_id                     # header always present

            status, doc = client.trace(trace_id)
            assert status == 404
            assert doc["tracing_enabled"] is False

            _status, _headers, metrics = client.request_full(
                "GET", "/metrics")
            assert metrics["tracing"]["enabled"] is False
        finally:
            client.close()
