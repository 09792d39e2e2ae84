"""Fleet end-to-end: real replica subprocesses behind the front door.

One two-replica fleet serves the whole module (replica startup is the
expensive part).  Tests are ordered: read-only checks first, then the
destructive replica-kill campaign last — after it, only one replica is
alive, which is itself part of what that test asserts.

The two acceptance points from the fleet design:

* **shared warmth** — a digest compiled cold on one replica is served
  warm by another from the cache directory every replica shares,
  observable as zero new store misses on the replica that inherits it;
* **failure transparency** — killing a replica mid-campaign produces
  zero 5xx responses and byte-identical verdicts, with rerouting
  visible in the front door's counters.
"""

import json
import os
import time

import pytest

from repro.fleet import BackgroundFleet, FleetConfig
from repro.serve import ServeClient, run_load

_REPLICAS = 2


@pytest.fixture(scope="module")
def fleet(artifact):
    config = FleetConfig(port=0, replicas=_REPLICAS,
                         request_timeout_s=600.0)
    with BackgroundFleet(artifact, config) as background:
        yield background


@pytest.fixture()
def client(fleet):
    c = ServeClient(fleet.config.host, fleet.port, timeout=600.0)
    yield c
    c.close()


def _fleet_doc(client):
    status, doc = client.request("GET", "/v1/fleet")
    assert status == 200
    return doc


def test_health_reports_topology(client, fleet):
    status, doc = client.request("GET", "/healthz")
    assert status == 200
    assert doc["status"] == "ok"
    assert doc["replicas_alive"] == _REPLICAS
    assert doc["replicas_total"] == _REPLICAS


def test_fleet_topology_endpoint(client, fleet):
    doc = _fleet_doc(client)
    assert len(doc["replicas"]) == _REPLICAS
    ports = {r["port"] for r in doc["replicas"]}
    assert len(ports) == _REPLICAS            # distinct sockets
    # One cache directory, shared by every replica.
    assert doc["cache_dir"] == fleet.door.supervisor.cache_dir
    assert os.path.isdir(doc["cache_dir"])
    assert all("cache_dir" not in r for r in doc["replicas"])


def test_model_is_forwarded_from_a_replica(client):
    status, doc = client.request("GET", "/v1/model")
    assert status == 200
    assert doc["generation"] >= 1
    assert "version" in doc


def test_error_surface_matches_single_process_service(client):
    status, doc = client.request("GET", "/nope")
    assert status == 404
    assert doc["error"]["code"] == "not_found"
    assert doc["error"]["trace_id"]
    status, doc = client.request("POST", "/v1/check", {"wrong": "shape"})
    assert status == 400
    assert doc["error"]["code"] == "bad_request"
    status, doc = client.request("POST", "/healthz", {})
    assert status == 405
    assert doc["error"]["code"] == "method_not_allowed"


def test_check_is_routed_and_trace_is_merged(client, fleet, cold_corpus):
    [(name, source)] = cold_corpus(1, "trace")
    status, headers, doc = client.request_full(
        "POST", "/v1/check", {"name": name, "source": source})
    assert status == 200
    assert isinstance(doc["results"][0]["label"], str)
    assert isinstance(doc["results"][0]["is_correct"], bool)
    trace_id = headers["x-repro-trace"]

    status, trace = client.request("GET", f"/v1/trace/{trace_id}")
    assert status == 200
    assert trace["replica_rings_consulted"] >= 1
    spans = trace["spans"]
    names = [s["name"] for s in spans]
    assert "fleet.forward" in names

    # The replica's root span is a child of the front door's: one tree
    # across the process hop.
    front_pid = os.getpid()
    front_root = next(s for s in spans
                      if s.get("process") == front_pid
                      and not s.get("parent_id")
                      and s["name"] == "POST /v1/check")
    replica_root = next(s for s in spans
                        if s.get("process") not in (front_pid, None)
                        and s["name"] == "POST /v1/check")
    assert replica_root["parent_id"] == front_root["span_id"]


def test_prometheus_metrics_include_fleet_families(client):
    status, _headers, text = client.request_full(
        "GET", "/metrics?format=prometheus")
    assert status == 200
    assert "repro_fleet_requests_total" in text
    assert "repro_fleet_replicas_alive" in text
    assert "repro_fleet_connections_reused_total" in text
    assert "repro_fleet_restarts_total" in text
    assert "repro_repair_requests_total" in text


def test_front_door_pools_replica_connections(client, fleet, cold_corpus):
    """Regression: forwards must reuse keep-alive connections, not open
    a fresh TCP connection per request."""
    jobs = cold_corpus(2, "pool")
    host = fleet.config.host
    first = run_load(host, fleet.port, jobs * 3, concurrency=2,
                     timeout=600.0)
    assert first["failed"] == 0, first["failures"]
    doc = _fleet_doc(client)
    assert doc["routing"]["conn_reused"] > 0
    opened_before = doc["routing"]["conn_opened"]
    reused_before = doc["routing"]["conn_reused"]

    # A second identical bulk campaign rides the warm pool: more reuse,
    # (almost) no new connections.
    second = run_load(host, fleet.port, jobs * 3, concurrency=2,
                      timeout=600.0)
    assert second["failed"] == 0, second["failures"]
    doc = _fleet_doc(client)
    assert doc["routing"]["conn_reused"] > reused_before
    assert doc["routing"]["conn_opened"] <= opened_before + 2


def test_repair_is_routed_through_the_front_door(client):
    """The tentpole acceptance point: POST /v1/repair answers with the
    patch and both oracle verdicts, end to end through the fleet."""
    correct = """#include <mpi.h>
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
    buggy = correct.replace("MPI_INT, 1, 5,", "MPI_INT, 1, 105,")
    status, doc = client.request(
        "POST", "/v1/repair",
        {"name": "buggy.c", "source": buggy, "operator": "tag_mismatch",
         "max_attempts": 4})
    assert status == 200
    [entry] = doc["results"]
    assert entry["outcome"] == "repaired"
    assert entry["patch"].startswith("--- a/buggy.c")
    assert entry["before"]["clean"] is False
    assert entry["after"]["clean"] is True


def test_crashed_replica_is_auto_restarted(client, fleet, cold_corpus):
    """An *unexpected* replica death heals: the supervision loop
    respawns it (fresh port, same shared cache) and the topology
    recovers to full strength."""
    doc = _fleet_doc(client)
    old_port = doc["replicas"][1]["port"]
    fleet.crash_replica(1)

    deadline = time.time() + 180
    while time.time() < deadline:
        status, health = client.request("GET", "/healthz")
        if status == 200 and health["replicas_alive"] == _REPLICAS:
            break
        time.sleep(1.0)
    else:
        pytest.fail("crashed replica was not restarted in time")

    doc = _fleet_doc(client)
    assert doc["routing"]["restarts"] >= 1
    assert all(r["alive"] for r in doc["replicas"])
    assert doc["replicas"][1]["port"] != old_port

    # The recovered fleet still serves routed work end to end.
    [(name, source)] = cold_corpus(1, "post-restart")
    status, payload = client.request(
        "POST", "/v1/check", {"name": name, "source": source})
    assert status == 200
    assert isinstance(payload["results"][0]["is_correct"], bool)


def _store_counters(host, port):
    """``{stage: (misses, memory-tier misses)}`` for the compile and
    features stages, from one replica's own ``GET /metrics``."""
    replica = ServeClient(host, port, timeout=60.0)
    try:
        status, doc = replica.request("GET", "/metrics")
    finally:
        replica.close()
    assert status == 200
    store = doc["engine"]["store"]
    return {stage: (store[stage]["misses"],
                    store[stage]["memory"]["misses"])
            for stage in ("compile", "features")}


def test_campaign_survives_replica_kill_with_cas_warmth(
        client, fleet, cold_corpus):
    """The tentpole acceptance test: kill a replica mid-campaign.

    Pass 1 (both replicas): every digest compiles cold on its rendezvous
    owner, which writes it to the shared cache directory.  Pass 2 (one
    replica killed): the survivor inherits the dead replica's digests.
    It never computed them, yet its own compile and features store
    misses do not grow — they are disk hits in the shared tree.  Zero
    5xx and byte-identical verdicts throughout.
    """
    jobs = cold_corpus(6, "campaign")
    host = fleet.config.host

    first = run_load(host, fleet.port, jobs, concurrency=2, timeout=600.0)
    assert first["failed"] == 0, first["failures"]
    baseline = {}
    for name, source in jobs:
        status, payload = client.request(
            "POST", "/v1/check", {"name": name, "source": source})
        assert status == 200
        baseline[name] = json.dumps(payload, sort_keys=True)

    doc = _fleet_doc(client)
    restarts_before = doc["routing"]["restarts"]
    survivor = doc["replicas"][1]
    before = _store_counters(host, survivor["port"])
    fleet.kill_replica(0)

    second = run_load(host, fleet.port, jobs, concurrency=2, timeout=600.0)
    assert second["failed"] == 0, second["failures"]   # zero non-200s
    for name, source in jobs:
        status, payload = client.request(
            "POST", "/v1/check", {"name": name, "source": source})
        assert status == 200
        assert json.dumps(payload, sort_keys=True) == baseline[name]

    status, doc = client.request("GET", "/healthz")
    assert status == 200
    assert doc["replicas_alive"] == _REPLICAS - 1

    doc = _fleet_doc(client)
    assert doc["routing"]["rerouted"] > 0          # failover happened
    after = _store_counters(host, survivor["port"])
    for stage in ("compile", "features"):
        # No recompute: every digest the survivor inherited was found.
        assert after[stage][0] == before[stage][0], stage
    # ...and not in its memory tier, which had never seen them: the
    # shared disk tree answered.
    assert after["features"][1] > before["features"][1]
    dead = [r for r in doc["replicas"] if not r["alive"]]
    assert [r["index"] for r in dead] == [0]
    # kill() decommissions: dead stays dead, restarts don't resurrect it.
    assert doc["routing"]["restarts"] == restarts_before
