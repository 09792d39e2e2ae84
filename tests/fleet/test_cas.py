"""Fleet CAS: wire protocol, LRU budget, and the two-tier store."""

import socket

import pytest

from repro.engine.cache import ContentStore
from repro.fleet import BackgroundCAS, CASClient, TieredStore, parse_addr
from repro.fleet.cas import MAX_VALUE_BYTES
from repro.schema import validate_kind


@pytest.fixture()
def cas():
    with BackgroundCAS() as background:
        yield background


def test_parse_addr():
    assert parse_addr("127.0.0.1:9000") == ("127.0.0.1", 9000)
    with pytest.raises(ValueError):
        parse_addr("no-port")
    with pytest.raises(ValueError):
        parse_addr("host:not-a-number")


def test_get_put_has_roundtrip(cas):
    client = CASClient(cas.addr)
    try:
        assert client.get("compile:abc") is None
        assert not client.has("compile:abc")
        assert client.put("compile:abc", b"blob-1")
        assert client.has("compile:abc")
        assert client.get("compile:abc") == b"blob-1"
        # Overwrite is idempotent on content-addressed keys.
        assert client.put("compile:abc", b"blob-1")
        assert client.get("compile:abc") == b"blob-1"
    finally:
        client.close()


def test_oversize_value_is_refused_client_side(cas):
    # Anything over MAX_VALUE_BYTES is skipped without a network round
    # trip; a fake __len__ avoids actually allocating 64 MiB.
    class _FakeBig(bytes):
        def __len__(self):
            return MAX_VALUE_BYTES + 1

    client = CASClient(cas.addr)
    try:
        assert not client.put("compile:big", _FakeBig(b"x"))
        assert client.stats()["counters"]["puts"] == 0
        assert client.put("compile:ok", b"x")
    finally:
        client.close()


def test_stats_is_a_validated_envelope(cas):
    client = CASClient(cas.addr)
    try:
        client.put("compile:k1", b"12345")
        doc = client.stats()             # raises unless envelope-valid
        assert doc["kind"] == "repro-cas-stats"
        assert doc["entries"] == 1
        assert doc["bytes"] == 5
        assert doc["counters"]["puts"] == 1
        validate_kind("repro-cas-stats", doc)
    finally:
        client.close()


def test_eviction_spills_to_disk_and_every_key_stays_retrievable():
    # The spill tier: budget pressure costs a file read, never a
    # lost blob — the fleet never re-compiles what it already published.
    with BackgroundCAS(max_bytes=100) as cas:
        client = CASClient(cas.addr)
        try:
            for i in range(10):
                assert client.put(f"compile:k{i}", b"x" * 40)
            doc = client.stats()
            assert doc["bytes"] <= 100
            assert doc["counters"]["evictions"] >= 8
            assert doc["counters"]["spills"] >= 8
            assert doc["disk_entries"] >= 8
            assert client.has("compile:k0")   # spilled, not gone
            # The newest key stays in memory: its GET is no disk hit.
            assert client.get("compile:k9") == b"x" * 40
            assert client.stats()["counters"]["disk_hits"] == 0
            for i in range(10):
                assert client.get(f"compile:k{i}") == b"x" * 40
            doc = client.stats()
            assert doc["counters"]["misses"] == 0
            assert doc["counters"]["disk_hits"] >= 8
            # Promotions respect the memory budget too.
            assert doc["bytes"] <= 100
        finally:
            client.close()


def test_unsynced_stream_is_dropped(cas):
    with socket.create_connection(parse_addr(cas.addr), timeout=10) as raw:
        raw.sendall(b"BOGUS FRAME")
        head = raw.recv(5)
        assert head and head[0] == 2     # STATUS_ERROR, then close
        assert raw.recv(1) == b""
    # The server survives and keeps answering well-formed clients.
    client = CASClient(cas.addr)
    try:
        assert client.put("compile:after", b"ok")
        assert client.get("compile:after") == b"ok"
    finally:
        client.close()


def test_client_raises_cleanly_after_server_stop():
    first = BackgroundCAS().start()
    addr = first.addr
    client = CASClient(addr)
    try:
        assert client.put("compile:k", b"v")
        first.stop()
        # Same port is gone; the client's one-retry reconnect raises a
        # clean OSError — exactly what TieredStore degrades on.
        with pytest.raises(OSError):
            client.get("compile:k")
    finally:
        client.close()


class TestTieredStore:
    def test_cold_on_a_warm_on_b(self, cas, tmp_path):
        a = TieredStore(str(tmp_path / "a"), cas.addr, version="v")
        b = TieredStore(str(tmp_path / "b"), cas.addr, version="v")
        key = a.key("compile", ["sample-1"])
        found, _ = a.get("compile", key)
        assert not found
        a.put("compile", key, {"ir": "module"})
        assert a.cas_counters["cas_puts"] == 1

        # Different directory, same digest: the fleet tier answers.
        found, value = b.get("compile", key)
        assert found and value == {"ir": "module"}
        assert b.cas_counters["cas_hits"] == 1

        # Write-through warmed b's local tier: a second read is local.
        found, _ = b.get("compile", key)
        assert found
        assert b.cas_counters["cas_hits"] == 1   # unchanged

    def test_local_hit_never_touches_network(self, cas, tmp_path):
        store = TieredStore(str(tmp_path / "s"), cas.addr, version="v")
        key = store.key("feature", ["x"])
        store.put("feature", key, [1, 2, 3])
        before = dict(cas.server.counters)
        found, value = store.get("feature", key)
        assert found and value == [1, 2, 3]
        assert cas.server.counters["gets"] == before["gets"]

    def test_degrades_to_local_when_cas_is_down(self, tmp_path):
        with BackgroundCAS() as cas:
            addr = cas.addr
        store = TieredStore(str(tmp_path / "s"), addr, version="v")
        key = store.key("compile", ["y"])
        store.put("compile", key, "value")       # publish fails quietly
        assert store.cas_counters["cas_errors"] >= 1
        found, value = store.get("compile", key)
        assert found and value == "value"        # local tier still works
        other = store.key("compile", ["absent"])
        found, _ = store.get("compile", other)
        assert not found                          # miss, not an exception

    def test_corrupt_fleet_blob_is_a_miss(self, cas, tmp_path):
        store = TieredStore(str(tmp_path / "s"), cas.addr, version="v")
        key = store.key("compile", ["z"])
        client = CASClient(cas.addr)
        try:
            client.put(f"compile:{key}", b"not a pickle")
        finally:
            client.close()
        found, _ = store.get("compile", key)
        assert not found
        assert store.cas_counters["cas_errors"] == 1

    def test_is_a_content_store(self, cas, tmp_path):
        store = TieredStore(str(tmp_path / "s"), cas.addr)
        assert isinstance(store, ContentStore)
        assert store.cas_stats()["addr"] == cas.addr
