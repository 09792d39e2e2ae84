"""End-to-end service tests over real sockets.

The acceptance points of the serving subsystem:

* N concurrent single-sample requests are coalesced into fewer
  ``predict_batch`` calls (observed mean batch size > 1),
* queue overflow answers 429 with a ``Retry-After`` header,
* a hot reload swaps model versions with zero failed in-flight
  requests,
* mtime polling picks up a retrained artifact without a reload call.
"""

import shutil
import threading
import time

import pytest

from repro.pipeline import load_pipeline
from repro.serve import (
    BackgroundServer,
    ModelRegistry,
    ServeClient,
    ServeConfig,
    run_load,
)
from repro.serve.http import RETRY_AFTER_S

CHECK_SRC = """#include <mpi.h>
int main(int argc, char** argv) {
  int rank; int buf[4]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) { MPI_Send(buf, 4, MPI_INT, 1, 5, MPI_COMM_WORLD); }
  if (rank == 1) { MPI_Recv(buf, 4, MPI_INT, 0, 5, MPI_COMM_WORLD, &st); }
  MPI_Finalize();
  return 0;
}
"""


class SlowPipeline:
    """Wrap a real pipeline with a per-batch delay (backpressure tests,
    and arrivals that must overlap an in-flight batch)."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._inner, name)

    # Engine attachment must hit the wrapper, not fall through oddly.
    @property
    def engine(self):
        return self._inner.engine

    @engine.setter
    def engine(self, value):
        self._inner.engine = value

    def predict_batch(self, sources):
        time.sleep(self._delay)
        return self._inner.predict_batch(sources)

    def close(self):
        self._inner.close()


@pytest.fixture()
def server(artifact_v1):
    config = ServeConfig(port=0, max_batch=8, max_queue=64)
    with BackgroundServer(artifact_v1, config) as handle:
        yield handle


@pytest.fixture()
def slow_server(artifact_v1):
    """A server whose every batch holds the runner for 50 ms, so that
    concurrent arrivals queue behind it and coalesce."""
    config = ServeConfig(port=0, max_batch=8, max_queue=64)
    registry = ModelRegistry(
        artifact_v1, loader=lambda p: SlowPipeline(load_pipeline(p), 0.05))
    with BackgroundServer(config=config, registry=registry) as handle:
        yield handle


def _client(handle) -> ServeClient:
    return ServeClient("127.0.0.1", handle.port)


def test_health_model_and_metrics_endpoints(server):
    client = _client(server)
    status, health = client.request("GET", "/healthz")
    assert status == 200 and health["status"] == "ok"
    assert health["generation"] == 1

    status, model = client.request("GET", "/v1/model")
    assert status == 200
    assert model["method"] == "ir2vec" and model["fitted"] is True
    assert model["stages"]["classifier"]["name"] == "decision-tree"
    assert model["stages"]["classifier"]["state"]["sha256"]

    status, metrics = client.request("GET", "/metrics")
    assert status == 200
    assert metrics["model"]["version"] == health["model_version"]
    assert metrics["engine"]["workers"] == 0
    client.close()


def test_single_and_bulk_check(server):
    client = _client(server)
    status, payload = client.check(CHECK_SRC, "single.c")
    assert status == 200
    (result,) = payload["results"]
    assert result["name"] == "single.c"
    assert result["label"] in ("Correct", "Incorrect")
    assert result["model_version"]

    status, payload = client.request("POST", "/v1/check", {
        "sources": [CHECK_SRC, {"name": "named.c", "source": CHECK_SRC}]})
    assert status == 200
    names = [r["name"] for r in payload["results"]]
    assert names == ["request0.c", "named.c"]
    client.close()


def test_bad_requests_and_unknown_routes(server):
    client = _client(server)
    assert client.request("GET", "/nope")[0] == 404
    assert client.request("POST", "/metrics")[0] == 405
    assert client.request("GET", "/v1/check")[0] == 405

    status, payload = client.request("POST", "/v1/check", {"nope": 1})
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert "source" in payload["error"]["message"]
    status, payload = client.request("POST", "/v1/check", {"sources": []})
    assert status == 400
    status, payload = client.request("POST", "/v1/check",
                                     {"sources": [42]})
    assert status == 400

    conn = client._conn
    conn.request("POST", "/v1/check", body=b"{broken",
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    assert response.status == 400
    response.read()
    client.close()


def _batched(client, jobs, port, concurrency):
    """``(batches, samples)`` the server ran for one closed-loop load."""
    before = client.metrics()["batcher"]
    stats = run_load("127.0.0.1", port, jobs, concurrency=concurrency)
    after = client.metrics()["batcher"]
    assert stats["failed"] == 0 and stats["ok"] == len(jobs)
    return (after["batches"] - before["batches"],
            after["batched_samples"] - before["batched_samples"])


def test_concurrent_requests_coalesce_into_batches(slow_server, corpus):
    """N concurrent singles → fewer predict calls (arrivals during a
    batch form the next one), while sequential dispatch has nothing to
    coalesce."""
    client = _client(slow_server)
    jobs = [(s.name, s.source) for s in corpus.samples[:24]]
    batches, samples = _batched(client, jobs, slow_server.port,
                                concurrency=8)
    assert samples == 24
    assert batches < 24, "every request got its own predict_batch call"
    assert samples / batches > 1
    assert client.metrics()["batcher"]["max_batch_observed"] <= 8

    batches, samples = _batched(client, jobs[:6], slow_server.port,
                                concurrency=1)
    assert batches == samples == 6, "one batch per sequential request"
    client.close()


def test_queue_overflow_returns_429_with_retry_after(artifact_v1):
    config = ServeConfig(port=0, max_batch=1, max_queue=2)
    registry = ModelRegistry(
        artifact_v1, loader=lambda p: SlowPipeline(load_pipeline(p), 0.25))
    with BackgroundServer(config=config, registry=registry) as handle:
        import http.client
        import json as _json

        statuses = []
        lock = threading.Lock()

        def fire():
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=60)
            try:
                conn.request("POST", "/v1/check",
                             body=_json.dumps({"source": CHECK_SRC}),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = _json.loads(response.read())
                with lock:
                    statuses.append((response.status,
                                     response.getheader("Retry-After"),
                                     payload))
            finally:
                conn.close()

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        codes = [s for s, _h, _p in statuses]
        assert codes.count(200) >= 1, "some requests must be served"
        assert 429 in codes, "overflow must surface as backpressure"
        for status, retry_after, payload in statuses:
            if status == 429:
                assert retry_after == str(RETRY_AFTER_S)
                assert payload["retry_after_s"] == RETRY_AFTER_S
                assert payload["error"]["code"] == "queue_full"
                assert "queue is full" in payload["error"]["message"]
            else:
                assert status == 200 and retry_after is None

        client = _client(handle)
        metrics = client.metrics()
        assert metrics["batcher"]["rejected"] == codes.count(429)
        assert metrics["requests_by_status"]["429"] == codes.count(429)
        client.close()


def test_hot_reload_with_zero_failed_inflight_requests(artifact_v1,
                                                       artifact_v2):
    config = ServeConfig(port=0, max_batch=4, max_queue=256)
    with BackgroundServer(artifact_v1, config) as handle:
        stop = threading.Event()
        outcomes = []
        lock = threading.Lock()

        def hammer():
            client = _client(handle)
            try:
                while not stop.is_set():
                    status, payload = client.check(CHECK_SRC)
                    with lock:
                        outcomes.append((status, payload))
            finally:
                client.close()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            time.sleep(0.3)              # traffic against v1
            admin = _client(handle)
            status, reload_payload = admin.request(
                "POST", "/v1/reload", {"path": artifact_v2})
            assert status == 200 and reload_payload["reloaded"] is True
            assert reload_payload["generation"] == 2
            time.sleep(0.3)              # traffic against v2
        finally:
            stop.set()
            for t in threads:
                t.join()

        # Zero dropped/failed requests across the swap ...
        assert outcomes
        assert all(status == 200 for status, _payload in outcomes)
        # ... and the fleet really moved from v1 to v2.
        methods = {r["method"] for _s, p in outcomes
                   for r in p["results"]}
        assert methods == {"ir2vec", "ir2vec-v2"}
        status, health = admin.request("GET", "/healthz")
        assert health["generation"] == 2
        assert health["model_version"] == reload_payload["model_version"]
        admin.close()


def test_reload_bad_path_keeps_serving(server):
    client = _client(server)
    status, payload = client.request("POST", "/v1/reload",
                                     {"path": "/nonexistent/artifact"})
    assert status == 400 and payload["reloaded"] is False
    status, _health = client.request("GET", "/healthz")
    assert status == 200
    assert client.check(CHECK_SRC)[0] == 200
    client.close()


def test_mtime_polling_hot_reloads(tmp_path, artifact_v1, artifact_v2):
    served = str(tmp_path / "served.rpd")
    shutil.copytree(artifact_v1, served)
    config = ServeConfig(port=0, max_batch=4,
                         poll_interval_s=0.05)
    with BackgroundServer(served, config) as handle:
        client = _client(handle)
        assert client.request("GET", "/healthz")[1]["generation"] == 1
        # Retrain-and-replace on disk; the poller must pick it up.
        shutil.rmtree(served)
        shutil.copytree(artifact_v2, served)
        deadline = time.time() + 10
        while time.time() < deadline:
            status, health = client.request("GET", "/healthz")
            if health["generation"] >= 2:
                break
            time.sleep(0.05)
        assert health["generation"] >= 2
        status, model = client.request("GET", "/v1/model")
        assert model["method"] == "ir2vec-v2"
        metrics = client.metrics()
        assert metrics["reloads"]["poll_reloads"] >= 1
        client.close()


def test_background_server_rejects_missing_artifact(tmp_path):
    from repro.pipeline import ArtifactError

    config = ServeConfig(port=0)
    with pytest.raises(ArtifactError):
        BackgroundServer(str(tmp_path / "missing.rpd"), config).start()


def test_bulk_larger_than_queue_is_a_400_not_a_429(artifact_v1):
    """A request that could never be admitted must not advertise
    'retry later' — it gets a permanent 400 with a split hint."""
    config = ServeConfig(port=0, max_batch=2, max_queue=4)
    with BackgroundServer(artifact_v1, config) as handle:
        client = _client(handle)
        status, payload = client.request("POST", "/v1/check", {
            "sources": [CHECK_SRC] * 5})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "exceeds the queue capacity" in payload["error"]["message"]
        # A right-sized bulk still goes through afterwards.
        status, payload = client.request("POST", "/v1/check", {
            "sources": [CHECK_SRC] * 4})
        assert status == 200 and len(payload["results"]) == 4
        client.close()


BAD_SRC = "int main( {   /* refuses to compile */"


def test_fuzz_minimized_crasher_gets_structured_4xx(server):
    """A fuzz-minimized crasher source (deep nesting that used to blow
    the parser's stack as RecursionError) must come back as a structured
    client error — never a 500 or a traceback leak."""
    from repro.fuzz import known_bug_seeds

    client = _client(server)
    for seed in known_bug_seeds():
        status, payload = client.check(seed.source, seed.name)
        assert status == 400, (seed.name, status, payload)
        (result,) = payload["results"]
        assert result["name"] == seed.name and "error" in result
        assert "Traceback" not in result["error"]
    # The service is unharmed afterwards.
    assert client.check(CHECK_SRC)[0] == 200
    client.close()


def test_input_stage_crash_is_triaged_to_400(artifact_v1):
    """An exception escaping a deterministic per-source stage (here: a
    RecursionError genuinely raised inside repro.frontend) is the
    input's fault and must be a per-item 400, while non-input faults
    (see test_server_fault_is_a_500_not_a_400) stay 500s."""
    deep = ("int main(int argc, char** argv) { int a = "
            + "(" * 4000 + "1" + ")" * 4000 + "; return a; }")

    class FrontendCrashPipeline(SlowPipeline):
        def predict_batch(self, sources):
            for _name, source in sources:
                if "((((" in source:
                    from repro.frontend.parser import parse_c
                    from repro.frontend.preprocessor import preprocess

                    parse_c(preprocess(source))   # RecursionError in-stage
            return self._inner.predict_batch(sources)

    registry = ModelRegistry(
        artifact_v1,
        loader=lambda p: FrontendCrashPipeline(load_pipeline(p), 0))
    config = ServeConfig(port=0, max_batch=4)
    with BackgroundServer(config=config, registry=registry) as handle:
        client = _client(handle)
        status, payload = client.check(deep, "crasher.c")
        assert status == 400, (status, payload)
        (result,) = payload["results"]
        assert "RecursionError" in result["error"]
        # A well-formed batch-mate still gets its verdict.
        status, payload = client.request("POST", "/v1/check", {
            "sources": [{"name": "ok.c", "source": CHECK_SRC},
                        {"name": "crash.c", "source": deep}]})
        assert status == 200, (status, payload)
        by_name = {r["name"]: r for r in payload["results"]}
        assert "label" in by_name["ok.c"]
        assert "error" in by_name["crash.c"]
        client.close()


def test_uncompilable_source_gets_400_not_500(server):
    client = _client(server)
    status, payload = client.check(BAD_SRC, "bad.c")
    assert status == 400
    (result,) = payload["results"]
    assert result["name"] == "bad.c" and "error" in result
    # The service is unharmed.
    assert client.check(CHECK_SRC)[0] == 200
    client.close()


def test_bad_sample_is_isolated_from_its_batch_mates(slow_server):
    """One client's garbage source must not fail requests coalesced
    into the same micro-batch (cross-request fault isolation)."""
    outcomes = []
    lock = threading.Lock()

    def fire(source, name):
        client = _client(slow_server)
        try:
            status, payload = client.check(source, name)
            with lock:
                outcomes.append((name, status, payload))
        finally:
            client.close()

    threads = [threading.Thread(target=fire, args=(BAD_SRC, "bad.c"))]
    threads += [threading.Thread(target=fire, args=(CHECK_SRC, f"ok{i}.c"))
                for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    by_name = {name: (status, payload) for name, status, payload in outcomes}
    assert by_name["bad.c"][0] == 400
    assert "error" in by_name["bad.c"][1]["results"][0]
    for i in range(6):
        status, payload = by_name[f"ok{i}.c"]
        assert status == 200, payload
        assert payload["results"][0]["label"] in ("Correct", "Incorrect")


def test_bulk_with_partial_failures_returns_200_with_item_errors(server):
    client = _client(server)
    status, payload = client.request("POST", "/v1/check", {
        "sources": [{"name": "good.c", "source": CHECK_SRC},
                    {"name": "bad.c", "source": BAD_SRC}]})
    assert status == 200                    # partial success
    good, bad = payload["results"]
    assert good["name"] == "good.c" and "label" in good
    assert bad["name"] == "bad.c" and "error" in bad and "label" not in bad
    client.close()


def test_protocol_errors_are_counted_and_chunked_rejected(server):
    import socket

    def raw(request: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    return b"".join(chunks)
                chunks.append(data)

    response = raw(b"POST /v1/check HTTP/1.1\r\nHost: t\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   b"f\r\n{\"source\": \"x\"}\r\n0\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 400")
    assert b"Transfer-Encoding is not supported" in response

    response = raw(b"not-even-http\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 400")

    client = _client(server)
    metrics = client.metrics()
    # Protocol-level refusals land in the status counters too.
    assert metrics["requests_by_status"].get("400", 0) >= 2
    client.close()


def test_model_and_metrics_answer_during_slow_reload(artifact_v1,
                                                     artifact_v2):
    """While a reload is mid-swap (loader still running under the
    registry lock), ``GET /v1/model``, ``/metrics``, and ``/healthz``
    must keep answering 200 from the old model — reads are lock-free."""
    entered = threading.Event()
    release = threading.Event()

    def loader(path):
        if path == artifact_v2:
            entered.set()
            assert release.wait(timeout=60)
        return load_pipeline(path)

    registry = ModelRegistry(artifact_v1, loader=loader)
    config = ServeConfig(port=0, max_batch=2)
    with BackgroundServer(config=config, registry=registry) as handle:
        client = _client(handle)
        outcome = {}

        def fire_reload():
            slow = _client(handle)
            try:
                outcome["reload"] = slow.request(
                    "POST", "/v1/reload", {"path": artifact_v2})
            finally:
                slow.close()

        worker = threading.Thread(target=fire_reload)
        worker.start()
        try:
            assert entered.wait(timeout=60)
            status, model = client.request("GET", "/v1/model")
            assert status == 200 and model["generation"] == 1
            status, metrics = client.request("GET", "/metrics")
            assert status == 200 and metrics["model"]["generation"] == 1
            assert client.request("GET", "/healthz")[0] == 200
        finally:
            release.set()
            worker.join(timeout=120)
        status, payload = outcome["reload"]
        assert status == 200 and payload["reloaded"] is True
        status, model = client.request("GET", "/v1/model")
        assert status == 200 and model["generation"] == 2
        client.close()


def test_server_fault_is_a_500_not_a_400(artifact_v1):
    """A broken model must read as a server fault (retry me), never as
    a client error — only compile failures are the client's problem."""

    class ExplodingPipeline(SlowPipeline):
        def predict_batch(self, sources):
            raise MemoryError("worker pool fell over")

    registry = ModelRegistry(
        artifact_v1, loader=lambda p: ExplodingPipeline(load_pipeline(p), 0))
    config = ServeConfig(port=0, max_batch=4)
    with BackgroundServer(config=config, registry=registry) as handle:
        client = _client(handle)
        status, payload = client.check(CHECK_SRC)
        assert status == 500
        assert payload["error"]["code"] == "internal"
        assert "MemoryError" in payload["error"]["message"]
        client.close()


def test_serving_a_check_imports_neither_fuzz_campaign_nor_eval(artifact_v1):
    """The batch path imports its triage helpers up front: serving one
    check in a fresh process loads neither the fuzz campaign stack nor
    the evaluation harness."""
    import json
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import json, sys\n"
        "from repro.serve import BackgroundServer, ServeClient, ServeConfig\n"
        f"with BackgroundServer({artifact_v1!r}, ServeConfig(port=0)) as h:\n"
        "    client = ServeClient('127.0.0.1', h.port)\n"
        f"    status, _ = client.check({CHECK_SRC!r})\n"
        "    client.close()\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m in "
        "('repro.fuzz.harness', 'repro.eval'))]))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert json.loads(out.strip().splitlines()[-1]) == [200, []]


def test_stop_with_idle_keep_alive_client_is_clean(artifact_v1):
    """Leaving a server while a keep-alive client's connection is still
    open closes that connection quietly: nothing reaches stderr."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "from repro.serve import BackgroundServer, ServeClient, ServeConfig\n"
        f"with BackgroundServer({artifact_v1!r}, ServeConfig(port=0)) as h:\n"
        "    client = ServeClient('127.0.0.1', h.port)\n"
        f"    status, _ = client.check({CHECK_SRC!r})\n"
        "print(status)\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "200"
    assert done.stderr == ""
