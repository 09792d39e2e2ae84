"""Execution-engine behaviour: parallel == serial, persistence, ordering.

The corpus here is a set of tiny synthetic MPI programs (distinct
constants make every source unique) so the tests exercise real compiles
without paying full benchmark-suite generation costs.
"""

import warnings

import pytest

from repro.datasets.loader import Dataset, Sample, iter_sample_chunks
from repro.engine import EngineConfig, ExecutionEngine
from repro.pipeline.stages import (
    CFrontend,
    CFrontendConfig,
    IR2VecFeaturizer,
    IR2VecFeaturizerConfig,
    ProGraMLFeaturizer,
)

_TEMPLATE = """
#include <mpi.h>
int main(int argc, char** argv) {{
  int rank; int buf[{n}]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) {{ MPI_Send(buf, {n}, MPI_INT, 1, {tag}, MPI_COMM_WORLD); }}
  if (rank == 1) {{ MPI_Recv(buf, {n}, MPI_INT, 0, {tag}, MPI_COMM_WORLD, &st); }}
  MPI_Finalize();
  return 0;
}}
"""


def _named_sources(n=8):
    return [(f"prog{i}.c", _TEMPLATE.format(n=2 + i, tag=i)) for i in range(n)]


def _graphs_equal(a, b):
    return (a.node_text == b.node_text and a.node_type == b.node_type
            and a.edges == b.edges)


# ---------------------------------------------------------------------------
# Parallel vs serial determinism
# ---------------------------------------------------------------------------

def test_parallel_graphs_identical_to_serial(fan_out_small):
    named = _named_sources(8)
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    feat = ProGraMLFeaturizer()
    serial = ExecutionEngine(EngineConfig(workers=0)) \
        .featurize_sources(fe, feat, named)
    parallel = ExecutionEngine(EngineConfig(workers=2)) \
        .featurize_sources(fe, feat, named)
    assert len(serial) == len(parallel) == 8
    assert all(_graphs_equal(a, b) for a, b in zip(serial, parallel))


def test_parallel_embeddings_byte_identical_to_serial(fan_out_small):
    named = _named_sources(6)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    X_serial = ExecutionEngine(EngineConfig(workers=0)) \
        .featurize_sources(fe, feat, named)
    X_parallel = ExecutionEngine(EngineConfig(workers=2)) \
        .featurize_sources(fe, feat, named)
    assert X_serial.shape == X_parallel.shape == (6, 512)
    assert X_serial.dtype == X_parallel.dtype
    assert X_serial.tobytes() == X_parallel.tobytes()


def test_repeated_source_in_one_batch_embeds_like_a_single():
    named = _named_sources(1)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    X = ExecutionEngine(EngineConfig(workers=0)).featurize_sources(
        fe, feat, named * 2)
    alone = ExecutionEngine(EngineConfig(workers=0)).featurize_sources(
        fe, feat, named)
    assert X[0].tobytes() == X[1].tobytes() == alone[0].tobytes()


def test_compile_sources_order_preserved_across_chunkings():
    named = _named_sources(7)
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    for chunk_size in (1, 3, 16):
        engine = ExecutionEngine(EngineConfig(workers=0))
        engine._effective_chunk_size = lambda n, size=chunk_size: size
        modules = engine.compile_sources(fe, named)
        assert [m.name for m in modules] == [name for name, _ in named]


# ---------------------------------------------------------------------------
# Persistent cache: warm runs, invalidation, corruption
# ---------------------------------------------------------------------------

def test_warm_run_skips_all_compilation(tmp_path, monkeypatch):
    named = _named_sources(6)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    cold = ExecutionEngine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    X_cold = cold.featurize_sources(fe, feat, named)
    assert cold.stats["features"].misses == len(named)

    # A fresh engine on the same store must answer entirely from disk:
    # zero feature misses, and the frontend never invoked at all.
    def _boom(self, source, name="input.c"):
        raise AssertionError("warm run recompiled a source")

    monkeypatch.setattr(CFrontend, "compile", _boom)
    warm = ExecutionEngine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    X_warm = warm.featurize_sources(fe, feat, named)
    stats = warm.stats["features"]
    assert stats.hits == len(named)
    assert stats.misses == 0
    assert X_warm.tobytes() == X_cold.tobytes()


def test_cache_invalidates_on_source_config_and_version(tmp_path):
    named = _named_sources(3)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    engine = ExecutionEngine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    engine.featurize_sources(fe, feat, named)

    # Changed source content → miss.
    touched = [(named[0][0], named[0][1] + "\n/* changed */"),
               *named[1:]]
    probe = ExecutionEngine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    probe.featurize_sources(fe, feat, touched)
    assert probe.stats["features"].misses == 1
    assert probe.stats["features"].hits == 2

    # Changed stage config → all misses.
    probe2 = ExecutionEngine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    probe2.featurize_sources(fe, IR2VecFeaturizer(seed=7), named)
    assert probe2.stats["features"].misses == 3

    # Changed code version → all misses (old tree orphaned, not corrupted).
    probe3 = ExecutionEngine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    probe3.store.version = "other-code-version"
    probe3.store._tree = probe3.store._tree + "-other"
    probe3.featurize_sources(fe, feat, named)
    assert probe3.stats["features"].misses == 3


def test_corrupted_cache_entry_recovered_end_to_end(tmp_path):
    named = _named_sources(4)
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    feat = ProGraMLFeaturizer()
    engine = ExecutionEngine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    expected = engine.featurize_sources(fe, feat, named)

    # Truncate one persisted feature entry on disk.
    store = engine.store
    from repro.engine.engine import FEATURE_STAGE, _stage_ids

    key = store.key(FEATURE_STAGE, _stage_ids(fe, feat) + named[2])
    with open(store._path(FEATURE_STAGE, key), "wb") as fh:
        fh.write(b"truncated")

    fresh = ExecutionEngine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    recovered = fresh.featurize_sources(fe, feat, named)
    assert fresh.stats["features"].errors == 1
    assert fresh.stats["features"].hits == 3
    assert all(_graphs_equal(a, b) for a, b in zip(expected, recovered))


def test_uncacheable_stage_skips_store(tmp_path):
    # A stage without a .config has no stable identity → engine must not
    # persist (differently-parameterized instances would collide).
    class NoConfigFrontend:
        name = "anon"

        def compile(self, source, name="input.c"):
            return CFrontend(CFrontendConfig()).compile(source, name)

    engine = ExecutionEngine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    engine.compile_sources(NoConfigFrontend(), _named_sources(2))
    assert engine.stats == {} or engine.stats.get("compile") is None


@pytest.mark.parametrize("declares", [False, True])
def test_undeclared_featurizer_gets_one_whole_batch_call(tmp_path, declares):
    # A featurizer that does not declare per_sample=True (batch-relative,
    # or simply predating the engine) must get exactly one transform over
    # the full corpus — the pre-engine contract — and nothing persisted
    # to the feature stage.
    calls = []

    class BatchNormFeaturizer:
        name = "batch-norm"
        opt_level = "O0"

        def transform(self, modules):
            calls.append(len(modules))
            return [m.name for m in modules]

    if declares:
        BatchNormFeaturizer.per_sample = False
    named = _named_sources(5)
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    engine = ExecutionEngine(EngineConfig(workers=2,
                                          cache_dir=str(tmp_path)))
    out = engine.featurize_sources(fe, BatchNormFeaturizer(), named)
    assert calls == [5]
    assert out == [name for name, _ in named]
    assert "features" not in engine.stats        # compile may cache, not rows


def test_unpicklable_stage_falls_back_to_serial(fan_out_small):
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    feat = ProGraMLFeaturizer()
    feat.poison = lambda: None           # closures cannot cross processes
    engine = ExecutionEngine(EngineConfig(workers=2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graphs = engine.featurize_sources(fe, feat, _named_sources(4))
    assert len(graphs) == 4
    assert any("serial" in str(w.message) for w in caught)
    assert engine.counters["parallel_chunks"] == 0


# ---------------------------------------------------------------------------
# Chunked streaming
# ---------------------------------------------------------------------------

def test_iter_sample_chunks_preserves_order_and_content():
    samples = [Sample(name=f"s{i}.c", source=f"int x{i};", label="Correct",
                      suite="MBI") for i in range(10)]
    ds = Dataset("T", samples)
    for size in (1, 3, 4, 10, 99):
        chunks = list(ds.iter_chunks(size))
        assert all(len(c) <= size for c in chunks)
        flattened = [s for chunk in chunks for s in chunk]
        assert flattened == samples
    assert list(ds.iter_named_sources()) == [(s.name, s.source)
                                             for s in samples]


def test_iter_sample_chunks_accepts_generators():
    gen = (Sample(name=f"g{i}.c", source="", label="Correct", suite="MBI")
           for i in range(5))
    chunks = list(iter_sample_chunks(gen, 2))
    assert [len(c) for c in chunks] == [2, 2, 1]
    with pytest.raises(ValueError):
        list(iter_sample_chunks([], 0))


def test_engine_accepts_lazy_iterables(tmp_path):
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    feat = ProGraMLFeaturizer()
    engine = ExecutionEngine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    named = _named_sources(5)
    lazy = (pair for pair in named)
    graphs = engine.featurize_sources(fe, feat, lazy)
    assert len(graphs) == 5


# ---------------------------------------------------------------------------
# Memory tier
# ---------------------------------------------------------------------------

def _boom(self, source, name="input.c"):
    raise AssertionError("compiled a source the store should answer")


def test_compile_cache_counts_hits_and_misses(monkeypatch):
    import repro.engine.engine as engine_module
    from repro.pipeline import compile_cache_stats

    engine = ExecutionEngine(EngineConfig(workers=0))
    monkeypatch.setattr(engine_module, "_DEFAULT_ENGINE", engine)
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    named = _named_sources(1)
    first = engine.compile_sources(fe, named)
    cold = compile_cache_stats()
    second = engine.compile_sources(fe, named)
    warm = compile_cache_stats()
    assert first[0] is second[0]                 # answered from memory
    assert cold.hits == 0 and cold.misses > 0
    assert (warm.hits, warm.misses) == (1, cold.misses)


def test_rows_byte_identical_cold_memory_disk_parallel(tmp_path, monkeypatch,
                                                       fan_out_small):
    """One matrix from four sources: a cold run, a memory-tier hit, a
    disk-tier hit on a new engine, and a parallel run whose repeat the
    parent's memory tier answers without compiling."""
    named = _named_sources(8)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    store = str(tmp_path / "store")

    engine = ExecutionEngine(EngineConfig(workers=0, cache_dir=store))
    cold = engine.featurize_sources(fe, feat, named)
    parallel_engine = ExecutionEngine(EngineConfig(workers=2))
    with parallel_engine:
        parallel = parallel_engine.featurize_sources(fe, feat, named)
        chunks = parallel_engine.counters["parallel_chunks"]
        assert chunks > 0

        monkeypatch.setattr(CFrontend, "compile", _boom)
        memory = engine.featurize_sources(fe, feat, named)
        disk_engine = ExecutionEngine(EngineConfig(workers=0,
                                                   cache_dir=store))
        disk = disk_engine.featurize_sources(fe, feat, named)
        repeat = parallel_engine.featurize_sources(fe, feat, named)
        assert parallel_engine.counters["parallel_chunks"] == chunks

    def memory_hits(e):
        return e.stats_dict()["store"]["features"]["memory"]["hits"]

    assert memory_hits(engine) == len(named)
    assert memory_hits(disk_engine) == 0
    assert disk_engine.stats["features"].hits == len(named)
    assert memory_hits(parallel_engine) == len(named)
    for other in (memory, disk, parallel, repeat):
        assert other.tobytes() == cold.tobytes()


# ---------------------------------------------------------------------------
# Pipeline / config integration
# ---------------------------------------------------------------------------

def test_pipeline_predict_batch_parallel_equals_serial(tmp_path,
                                                      fan_out_small):
    from repro.datasets import load_mbi
    from repro.pipeline import (
        DecisionTreeStageConfig,
        DetectionPipeline,
        IR2VecFeaturizerConfig,
    )

    ds = load_mbi(subsample=30)
    serial_engine = ExecutionEngine(EngineConfig(workers=0,
                                                 cache_dir=str(tmp_path)))
    pipe = DetectionPipeline.from_names(
        "ir2vec", "decision-tree",
        featurizer_config=IR2VecFeaturizerConfig(),
        classifier_config=DecisionTreeStageConfig(use_ga=False),
        engine=serial_engine)
    pipe.fit(ds)
    labels_serial = [r.label for r in pipe.predict_batch(ds.samples[:12])]
    pipe.engine = ExecutionEngine(EngineConfig(workers=2))
    labels_parallel = [r.label for r in pipe.predict_batch(ds.samples[:12])]
    assert labels_serial == labels_parallel


def test_detector_builds_private_engine(tmp_path):
    from repro.engine import default_engine
    from repro.pipeline import DetectionPipeline

    engine = ExecutionEngine(workers=3, cache_dir=str(tmp_path))
    pipe = DetectionPipeline.from_method("ir2vec", engine=engine)
    assert pipe.engine is engine and engine is not default_engine()
    assert pipe.engine.workers == 3
    assert pipe.engine.cache_dir == str(tmp_path)


def test_repro_config_engine_resolution(tmp_path):
    from repro.engine import default_engine
    from repro.eval.config import ReproConfig

    config = ReproConfig.smoke()
    assert config.engine() is default_engine()
    config.workers = 2
    config.cache_dir = str(tmp_path)
    engine = config.engine()
    assert engine.workers == 2 and engine.cache_dir == str(tmp_path)
    assert config.engine() is engine        # memoized while knobs unchanged
    config.workers = 1                      # mutating a knob rebuilds
    assert config.engine().workers == 1


def test_repro_config_engine_inherits_default_knobs(tmp_path):
    # Setting only cache_dir must not silently drop an env/CLI-configured
    # worker count: unset knobs inherit from the process default engine.
    from repro.engine import set_default_engine
    from repro.eval.config import ReproConfig

    set_default_engine(ExecutionEngine(EngineConfig(workers=3)))
    try:
        config = ReproConfig.smoke()
        config.cache_dir = str(tmp_path)
        engine = config.engine()
        assert engine.workers == 3
        assert engine.cache_dir == str(tmp_path)
    finally:
        set_default_engine(None)


def test_cli_cache_stats_and_clear(tmp_path, capsys):
    from repro.cli import main
    from repro.engine import ContentStore

    store = ContentStore(str(tmp_path))
    store.put("compile", store.key("compile", ["x"]), "v")
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "compile" in out and "1 entries" in out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 1" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Deterministic teardown: persistent pool + close()
# ---------------------------------------------------------------------------

def test_parallel_pool_persists_across_runs_and_closes(fan_out_small):
    engine = ExecutionEngine(EngineConfig(workers=2))
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    # Each run gets new sources, so the store cannot answer it.
    named = _named_sources(18)
    assert not engine.pool_active
    engine.featurize_sources(fe, feat, named[:6])
    assert engine.pool_active
    engine.featurize_sources(fe, feat, named[6:12])
    # Reused, not restarted: serving-loop batches must not pay pool
    # startup per predict_batch call.
    assert engine.counters["pool_starts"] == 1
    engine.close()
    assert not engine.pool_active
    engine.close()                       # idempotent
    # Still usable afterwards — the next parallel run starts a new pool.
    X = engine.featurize_sources(fe, feat, named[12:])
    assert X.shape[0] == 6
    assert engine.counters["pool_starts"] == 2
    engine.close()


def test_engine_context_manager_closes_pool(fan_out_small):
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        engine.featurize_sources(fe, feat, _named_sources(6))
        assert engine.pool_active
    assert not engine.pool_active


def test_serial_engine_close_is_a_noop():
    engine = ExecutionEngine(EngineConfig(workers=0))
    engine.close()
    assert not engine.pool_active


# ---------------------------------------------------------------------------
# Generic map fan-out (evaluation-matrix cells)
# ---------------------------------------------------------------------------

def test_map_serial_and_parallel_agree_in_order():
    items = ["a", "bb", "ccc", "dddd", "ee", "f"]
    serial_engine = ExecutionEngine(EngineConfig(workers=0))
    serial = serial_engine.map(len, items)
    with ExecutionEngine(EngineConfig(workers=2)) as parallel_engine:
        parallel = parallel_engine.map(len, items)
    assert serial == parallel == [1, 2, 3, 4, 2, 1]
    assert serial_engine.counters["mapped"] == len(items)
    assert parallel_engine.counters["mapped"] == len(items)


def test_map_unpicklable_task_falls_back_to_serial():
    engine = ExecutionEngine(EngineConfig(workers=2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = engine.map(lambda x: x * 2, [1, 2, 3])
    assert out == [2, 4, 6]
    assert any("serial" in str(w.message) for w in caught)
    assert not engine.pool_active        # never started a pool for it
    engine.close()


def test_map_single_item_runs_inline():
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        assert engine.map(len, ["xyz"]) == [3]
        assert not engine.pool_active


def test_small_batches_stay_serial_despite_workers():
    """The stage path's cold-path guard: below workers *
    MIN_SAMPLES_PER_WORKER samples a parallel engine must not pay pool
    startup — the BENCH_engine small corpus showed forced fan-out running
    ~14x slower than serial.  ``map`` tasks are sized by their caller
    and skip the guard."""
    engine = ExecutionEngine(EngineConfig(workers=2))    # threshold 64
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    feat = ProGraMLFeaturizer()
    graphs = engine.featurize_sources(fe, feat, _named_sources(6))
    assert len(graphs) == 6
    assert not engine.pool_active
    assert engine.counters["parallel_chunks"] == 0
    assert engine.map(len, ["a", "bb", "ccc"]) == [1, 2, 3]
    assert engine.pool_active
    engine.close()


def test_map_chunked_matches_per_item_and_serial():
    """chunk_size groups items per worker trip (the fuzz campaign's
    scheduling) without changing results or order."""
    items = [f"s{i}" * (i % 5 + 1) for i in range(23)]
    serial = ExecutionEngine(EngineConfig(workers=0)).map(
        len, items, chunk_size=4)
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        chunked = engine.map(len, items, chunk_size=4)
        per_item = engine.map(len, items)
    assert serial == chunked == per_item == [len(s) for s in items]


def test_map_chunk_size_validation_and_uneven_tail():
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        with pytest.raises(ValueError):
            engine.map(len, ["a"], chunk_size=0)
        # 5 items over chunks of 3 -> a full chunk plus a tail of 2.
        assert engine.map(len, ["a", "bb", "c", "dd", "e"],
                          chunk_size=3) == [1, 2, 1, 2, 1]
