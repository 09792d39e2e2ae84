"""Unit tests for the engine's caching primitives (LRU + tiered store)."""

import multiprocessing
import os
import pickle
import sys
import threading

import pytest

from repro.engine.cache import (
    MEMORY_ENTRIES,
    ContentStore,
    LRUCache,
    digest_parts,
)


# ---------------------------------------------------------------------------
# LRUCache
# ---------------------------------------------------------------------------

def test_lru_hit_miss_counters():
    cache = LRUCache(maxsize=4)
    assert cache.get("a") is None
    assert cache.stats.misses == 1
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1
    assert cache.stats.hit_rate == 0.5


def test_lru_evicts_least_recently_used():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")               # refresh 'a' → 'b' is now the LRU entry
    cache.put("c", 3)
    assert "a" in cache and "c" in cache
    assert "b" not in cache
    assert cache.stats.evictions == 1
    assert len(cache) == 2


def test_lru_rejects_negative_maxsize():
    with pytest.raises(ValueError):
        LRUCache(maxsize=-1)


def test_lru_maxsize_zero_disables_storage():
    cache = LRUCache(maxsize=0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0
    assert cache.stats.stores == 0


# ---------------------------------------------------------------------------
# digest_parts
# ---------------------------------------------------------------------------

def test_digest_parts_unambiguous_concatenation():
    # Length-prefixing means ("ab", "c") and ("a", "bc") never collide.
    assert digest_parts(["ab", "c"]) != digest_parts(["a", "bc"])
    assert digest_parts(["x"]) == digest_parts(["x"])


# ---------------------------------------------------------------------------
# ContentStore
# ---------------------------------------------------------------------------

def test_store_roundtrip_and_stats(tmp_path):
    store = ContentStore(str(tmp_path), version="t1")
    key = store.key("compile", ["src", "name"])
    found, _ = store.get("compile", key)
    assert not found
    store.put("compile", key, {"ir": [1, 2, 3]})
    found, value = store.get("compile", key)
    assert found and value == {"ir": [1, 2, 3]}
    stats = store.stats["compile"]
    assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)


def test_store_key_changes_with_stage_config_and_version(tmp_path):
    store = ContentStore(str(tmp_path), version="t1")
    base = store.key("features", ["cfg=a", "source"])
    assert store.key("features", ["cfg=b", "source"]) != base    # config
    assert store.key("features", ["cfg=a", "other"]) != base     # source
    assert store.key("compile", ["cfg=a", "source"]) != base     # stage
    bumped = ContentStore(str(tmp_path), version="t2")
    assert bumped.key("features", ["cfg=a", "source"]) != base   # version


def test_store_version_namespaces_entries(tmp_path):
    old = ContentStore(str(tmp_path), version="t1")
    old.put("compile", old.key("compile", ["x"]), "old-value")
    new = ContentStore(str(tmp_path), version="t2")
    found, _ = new.get("compile", new.key("compile", ["x"]))
    assert not found                       # code-version change → cold cache


def test_store_corrupted_entry_recovers_as_miss(tmp_path):
    writer = ContentStore(str(tmp_path), version="t1")
    key = writer.key("features", ["s"])
    writer.put("features", key, [1, 2, 3])
    # A second store on the same tree reads the disk tier (its memory
    # tier is empty), as another process would.
    store = ContentStore(str(tmp_path), version="t1")
    path = store._path("features", key)
    with open(path, "wb") as fh:
        fh.write(b"\x80garbage-not-a-pickle")
    found, _ = store.get("features", key)
    assert not found
    assert store.stats["features"].errors == 1
    assert not os.path.exists(path)        # bad entry deleted, not retried
    # The slot is writable again and round-trips normally.
    store.put("features", key, [4, 5])
    assert store.get("features", key) == (True, [4, 5])


def test_store_summary_and_clear(tmp_path):
    store = ContentStore(str(tmp_path), version="t1")
    for i in range(3):
        store.put("compile", store.key("compile", [str(i)]), i)
    store.put("features", store.key("features", ["x"]), "v")
    summary = store.summary()
    assert summary["compile"]["entries"] == 3
    assert summary["features"]["entries"] == 1
    assert summary["compile"]["bytes"] > 0
    assert store.clear("features") == 1
    assert "features" not in store.summary()
    assert store.clear() == 3
    assert store.summary() == {}


def test_store_atomic_writes_leave_no_tmp_droppings(tmp_path):
    store = ContentStore(str(tmp_path), version="t1")
    store.put("compile", store.key("compile", ["a"]), "v")
    leftovers = [f for _root, _dirs, files in os.walk(str(tmp_path))
                 for f in files if f.endswith(".tmp")]
    assert leftovers == []


def test_store_values_survive_process_roundtrip(tmp_path):
    # Entries written with HIGHEST_PROTOCOL must be readable by a store
    # opened fresh on the same tree (what a second process does).
    first = ContentStore(str(tmp_path), version="t1")
    key = first.key("compile", ["src"])
    first.put("compile", key, pickle.dumps(b"payload"))
    second = ContentStore(str(tmp_path), version="t1")
    found, value = second.get("compile", key)
    assert found and pickle.loads(value) == b"payload"


def _shared_value(key):
    return (key * 64).encode()       # 4 KiB, a function of the key alone


def _put_then_read_back(root, keys, offset, barrier):
    """One writer process: put every key (starting at ``offset``, so
    writers collide on different keys at once), then read each back
    through a fresh store while the other writers are still going."""
    store = ContentStore(root, version="t1")
    barrier.wait(timeout=60)
    for key in keys[offset:] + keys[:offset]:
        store.put("compile", key, _shared_value(key))
    reader = ContentStore(root, version="t1")
    intact = all(reader.get("compile", key) == (True, _shared_value(key))
                 for key in keys)
    os._exit(0 if intact and reader.stats["compile"].errors == 0 else 1)


def test_processes_share_one_tree_concurrently(tmp_path):
    """Fleet replicas and their pool workers all cache in one tree:
    several processes putting the same keys at once must leave every
    entry intact and no temp files behind."""
    root = str(tmp_path)
    keys = [ContentStore(root, version="t1").key("compile", [str(i)])
            for i in range(300)]
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    writers = 3
    barrier = context.Barrier(writers)
    procs = [context.Process(target=_put_then_read_back,
                             args=(root, keys, i * len(keys) // writers,
                                   barrier))
             for i in range(writers)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in procs] == [0] * writers
    store = ContentStore(root, version="t1")
    for key in keys:
        assert store.get("compile", key) == (True, _shared_value(key))
    assert store.stats["compile"].errors == 0
    assert store.summary()["compile"]["entries"] == len(keys)
    leftovers = [f for _root, _dirs, files in os.walk(root)
                 for f in files if f.endswith(".tmp")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# Memory tier
# ---------------------------------------------------------------------------

def test_memory_only_store_roundtrips_without_a_root():
    store = ContentStore(version="t1")
    key = store.key("compile", ["src"])
    assert store.get("compile", key) == (False, None)
    store.put("compile", key, "module")
    assert store.get("compile", key) == (True, "module")
    assert store.summary() == {}          # nothing on disk
    assert store.clear() == 0
    assert store.get("compile", key) == (False, None)


def test_memory_tier_answers_before_disk(tmp_path):
    store = ContentStore(str(tmp_path), version="t1")
    key = store.key("features", ["s"])
    store.put("features", key, [1, 2])
    os.unlink(store._path("features", key))      # disk copy gone
    assert store.get("features", key) == (True, [1, 2])
    entry = store.stats_dict()["features"]
    assert (entry["hits"], entry["misses"], entry["stores"]) == (1, 0, 1)
    assert entry["memory"]["hits"] == 1
    assert entry["memory"]["entries"] == 1
    assert entry["memory"]["maxsize"] == MEMORY_ENTRIES["features"]


def test_disk_hit_is_promoted_into_memory(tmp_path):
    writer = ContentStore(str(tmp_path), version="t1")
    key = writer.key("compile", ["x"])
    writer.put("compile", key, "v")
    store = ContentStore(str(tmp_path), version="t1")
    assert store.get("compile", key) == (True, "v")      # disk hit
    os.unlink(store._path("compile", key))
    assert store.get("compile", key) == (True, "v")      # memory hit
    entry = store.stats_dict()["compile"]
    assert entry["hits"] == 2 and entry["misses"] == 0
    assert (entry["memory"]["hits"], entry["memory"]["misses"]) == (1, 1)


def test_memory_tier_is_bounded_per_stage(monkeypatch):
    monkeypatch.setitem(MEMORY_ENTRIES, "compile", 2)
    store = ContentStore(version="t1")
    keys = [store.key("compile", [str(i)]) for i in range(3)]
    for i, key in enumerate(keys):
        store.put("compile", key, i)
        store.put("features", key, i)             # other stage, own bound
    assert store.get("compile", keys[0]) == (False, None)  # evicted
    assert store.get("compile", keys[2]) == (True, 2)
    assert store.get("features", keys[0]) == (True, 0)
    assert store.stats_dict()["compile"]["memory"]["evictions"] == 1


def test_remember_fills_memory_only(tmp_path):
    store = ContentStore(str(tmp_path), version="t1")
    key = store.key("features", ["r"])
    store.remember("features", key, "row")
    assert store.summary() == {}                  # disk untouched
    assert store.get("features", key) == (True, "row")
    assert store.stats["features"].stores == 0


def test_lru_shared_across_threads_keeps_bound_and_counts():
    cache = LRUCache(maxsize=16)
    errors = []
    rounds, n_threads = 2000, 8

    def worker(offset):
        try:
            for i in range(rounds):
                cache.put((i + offset) % 24, i)   # keys shared by all
                cache.get((i * 7 + offset) % 24)
        except Exception as exc:          # surfaced by the assert below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache) <= 16
    # A lost read-modify-write on a counter would break these totals.
    assert cache.stats.stores == n_threads * rounds
    assert cache.stats.lookups == n_threads * rounds
