"""Fan-out behaviour: one-time worker state, both start methods,
adaptive chunk sizing, crash recovery, the small-batch guard, and worker
spans coming home.

These pin the engine's scaling contract: parallel results are
*byte*-equal to serial under fork and spawn pools alike, the pool
installs stage state once (not per chunk), every task's worker spans
reach the parent's trace, and a crashed worker never wedges the engine.
"""

import multiprocessing
import os
import pickle
import warnings

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.engine import EngineConfig, ExecutionEngine
from repro.engine import engine as engine_module
from repro.engine.engine import (
    _DEFAULT_CHUNK_SIZE,
    _MAX_CHUNK_SIZE,
)
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
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
    return [(f"prog{i}.c", _TEMPLATE.format(n=2 + i, tag=i))
            for i in range(n)]


def _crash_on_boom(item):
    if item == "BOOM":
        os._exit(1)                      # hard worker death, not an exception
    return len(item)


def _compile_name(named):
    name, source = named
    return CFrontend(CFrontendConfig(opt_level="O0")).compile(source, name).name


def _stage_counts(stage):
    series = METRICS.as_dict()["repro_stage_seconds"]["series"]
    return sum(s["count"] for s in series if s["labels"]["stage"] == stage)


@pytest.fixture
def traced():
    """Tracing and metrics on for one test, restored afterwards."""
    metrics_on = METRICS.enabled
    METRICS.enabled = True
    TRACER.enable()
    try:
        yield
    finally:
        TRACER.disable()
        METRICS.enabled = metrics_on


@pytest.fixture
def spawn_pool(monkeypatch):
    """Pools start with spawn, the only start method on macOS and
    Windows: stage state reaches workers through the pool initializer's
    pickled arguments instead of fork inheritance."""
    context = multiprocessing.get_context("spawn")
    monkeypatch.setattr(ExecutionEngine, "_mp_context",
                        lambda self: context)


def _row_bytes(batch):
    """Each row's pickle: a matrix row's bytes, a graph's whole content."""
    return [pickle.dumps(row) for row in batch]


def _worker_spans(trace_id, kind="stage"):
    return [s for s in TRACER.get_trace(trace_id)["spans"]
            if s["kind"] == kind and s["process"] != os.getpid()]


# ---------------------------------------------------------------------------
# Byte identity across start methods
# ---------------------------------------------------------------------------

def test_fork_pool_features_byte_identical_to_serial(request):
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    ir2vec = IR2VecFeaturizer(IR2VecFeaturizerConfig())

    def check(feat, named, min_chunks):
        serial = ExecutionEngine(EngineConfig(workers=0)) \
            .featurize_sources(fe, feat, named)
        with ExecutionEngine(EngineConfig(workers=2)) as engine:
            parallel = engine.featurize_sources(fe, feat, named)
            assert engine.stats_dict()["pool"]["start_method"] == "fork"
            assert engine.counters["parallel_chunks"] >= min_chunks
        assert _row_bytes(parallel) == _row_bytes(serial)

    # The stock guard: a batch that clears it fans out unaided.
    check(ir2vec, _named_sources(2 * engine_module.MIN_SAMPLES_PER_WORKER),
          min_chunks=1)
    # Tiny batches, with the guard lowered.
    request.getfixturevalue("fan_out_small")
    for feat in (ir2vec, ProGraMLFeaturizer()):
        check(feat, _named_sources(10), min_chunks=2)


def test_spawn_pool_programl_byte_identical_and_spans_come_home(
        fan_out_small, spawn_pool, traced):
    named = _named_sources(8)
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    feat = ProGraMLFeaturizer()
    serial = ExecutionEngine(EngineConfig(workers=0)) \
        .featurize_sources(fe, feat, named)
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        with TRACER.start_trace("spawned", trace_id="tspawn"):
            parallel = engine.featurize_sources(fe, feat, named)
        assert engine.stats_dict()["pool"]["start_method"] == "spawn"
        assert engine.counters["parallel_chunks"] > 1
    assert _row_bytes(parallel) == _row_bytes(serial)
    compiles = [s for s in _worker_spans("tspawn")
                if s["name"] == "stage.compile"]
    assert len(compiles) == len(named)


def test_spawn_workers_use_the_artifact_seed_table(
        fan_out_small, spawn_pool, traced, tmp_path):
    """A spawned worker unpickles the featurizer with its installed seed
    table instead of training the seed's default one (seed 3 has no
    pinned table, so a fallback would train and show as seed_embed)."""
    named = _named_sources(8)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = _tiny_table_featurizer(fe, named, tmp_path, seed=3)
    serial = ExecutionEngine(EngineConfig(workers=0)) \
        .featurize_sources(fe, feat, named)
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        with TRACER.start_trace("table", trace_id="ttable"):
            parallel = engine.featurize_sources(fe, feat, named)
        assert engine.stats_dict()["pool"]["start_method"] == "spawn"
        assert engine.counters["parallel_chunks"] > 1
    assert _row_bytes(parallel) == _row_bytes(serial)
    worker_stages = {s["name"] for s in _worker_spans("ttable")}
    assert "stage.embed" in worker_stages
    names = {s["name"] for s in TRACER.get_trace("ttable")["spans"]}
    assert "stage.seed_embed" not in names


def test_single_encode_matches_batch_row():
    """encode(m) must be the row encode_batch would produce, or serial
    (per-miss) and parallel (chunked) cache entries would disagree."""
    from repro.embeddings.ir2vec import default_encoder

    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    named = _named_sources(5)
    modules = [fe.compile(src, name) for name, src in named]
    enc = default_encoder(42)
    batch = enc.encode_batch(modules)
    for i, module in enumerate(modules):
        assert enc.encode(module).tobytes() == batch[i].tobytes()


def test_batch_rows_independent_of_batch_composition():
    """Blocked batch aggregation must not leak state across modules: a
    module's row is the same alone, in a pair, or mid-batch."""
    from repro.embeddings.ir2vec import default_encoder

    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    modules = [fe.compile(src, name) for name, src in _named_sources(6)]
    enc = default_encoder(42)
    full = enc.encode_batch(modules)
    assert enc.encode_batch(modules[3:])[0].tobytes() == full[3].tobytes()
    assert enc.encode_batch([modules[5]])[0].tobytes() == full[5].tobytes()


# ---------------------------------------------------------------------------
# One-time worker state, pool keyed by stage token
# ---------------------------------------------------------------------------

def test_pool_reused_across_runs_with_same_stages(fan_out_small):
    named = _named_sources(12)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        engine.featurize_sources(fe, feat, named[:8])
        chunks = engine.counters["parallel_chunks"]
        # New sources, so the store cannot answer and the pool must.
        engine.featurize_sources(fe, feat, named[8:])
        assert engine.counters["parallel_chunks"] > chunks
        assert engine.counters["pool_starts"] == 1


def test_pool_restarts_when_featurizer_changes(fan_out_small):
    """Stage state installs once per pool, so a *different* featurizer
    must key a fresh pool — not silently reuse stale worker state."""
    named = _named_sources(8)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        a = engine.featurize_sources(
            fe, IR2VecFeaturizer(IR2VecFeaturizerConfig()), named)
        b = engine.featurize_sources(
            fe, IR2VecFeaturizer(seed=7), named)
        assert engine.counters["pool_starts"] == 2
    assert a.shape == b.shape
    assert a.tobytes() != b.tobytes()    # different seed, different rows


def _tiny_table_featurizer(fe, named, tmp_path, seed=42):
    """An ir2vec featurizer loaded from an artifact whose seed table was
    trained on two programs at dim 8, not the seed's default table."""
    from repro.embeddings import seed_table
    from repro.embeddings.ir2vec import default_encoder
    from repro.pipeline import DetectionPipeline
    from repro.pipeline.stages import DecisionTreeStage

    tiny = default_encoder(seed, corpus=[fe.compile(src, name)
                                         for name, src in named[:2]], dim=8)
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig(seed=seed))
    feat.set_state(seed_table.to_bytes(tiny.seeds))
    path = str(tmp_path / "tiny.rpd")
    DetectionPipeline(fe, feat, DecisionTreeStage()).save(path)
    return DetectionPipeline.load(path).featurizer


def test_same_config_different_table_shares_no_cache_or_pool(
        fan_out_small, tmp_path):
    from repro.engine.engine import stage_identity

    named = _named_sources(8)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    default = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    loaded = _tiny_table_featurizer(fe, named, tmp_path)
    assert loaded.config == default.config
    assert stage_identity(loaded) != stage_identity(default)
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        a = engine.featurize_sources(fe, default, named)
        b = engine.featurize_sources(fe, loaded, named)
        assert engine.stats["features"].hits == 0
        assert engine.counters["pool_starts"] == 2
    assert a.shape == (8, 512) and b.shape == (8, 16)


def test_chunk_payloads_exclude_stage_objects(fan_out_small):
    """Chunk payloads carry (token, sources) only — per-task bytes must
    stay far below one pickled frontend+featurizer."""
    named = _named_sources(12)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    stage_bytes = len(pickle.dumps((fe, feat)))
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        engine.featurize_sources(fe, feat, named)
        perf = engine.stats_dict()["perf"]
    chunk_sources = len(pickle.dumps(named[:2]))
    assert 0 < perf["payload_bytes_per_task"] < stage_bytes + chunk_sources
    assert perf["pool_utilization"] > 0
    assert perf["parallel_wall_sec"] > 0
    assert perf["worker_busy_sec"] > 0


# ---------------------------------------------------------------------------
# Adaptive chunk sizing
# ---------------------------------------------------------------------------

def test_adaptive_chunk_size_tracks_observed_latency():
    engine = ExecutionEngine(EngineConfig(workers=0))
    # No latency observed yet → the fixed default.
    assert engine._effective_chunk_size(10_000) == _DEFAULT_CHUNK_SIZE
    # Fast samples → bigger chunks, clamped at the ceiling.
    engine._observe_sample_sec(1e-6)
    assert engine._effective_chunk_size(10_000_000) == _MAX_CHUNK_SIZE
    # Slow samples → chunk of 1, never 0.
    engine._observe_sample_sec(10.0)
    engine._observe_sample_sec(10.0)
    engine._observe_sample_sec(10.0)
    assert engine._effective_chunk_size(10_000) == 1


def test_adaptive_chunk_size_keeps_every_worker_fed():
    engine = ExecutionEngine(EngineConfig(workers=4))
    engine._observe_sample_sec(1e-6)     # wants _MAX_CHUNK_SIZE
    # 64 items over 4 workers: chunks capped so each worker sees ≥4.
    assert engine._effective_chunk_size(64) <= 4
    assert engine._effective_chunk_size(64) >= 1


def test_ewma_observed_in_serial_runs():
    named = _named_sources(6)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    engine = ExecutionEngine(EngineConfig(workers=0))
    engine.featurize_sources(fe, feat, named)
    assert engine.stats_dict()["perf"]["ewma_sample_sec"] > 0


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------

def test_worker_crash_raises_and_engine_recovers():
    """A worker dying mid-task poisons the executor; the engine must
    surface the failure and then run healthily on a fresh pool."""
    items = ["aa", "bbb", "BOOM", "cccc"] * 4
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        with pytest.raises(BrokenProcessPool):
            engine.map(_crash_on_boom, items)
        assert not engine.pool_active    # poisoned pool dropped eagerly
        # Same engine, healthy input: a fresh pool serves it.
        ok = [s for s in items if s != "BOOM"]
        assert engine.map(_crash_on_boom, ok) == [len(s) for s in ok]
        assert engine.counters["pool_starts"] == 2


def test_featurize_survives_worker_crash_on_retry(fan_out_small):
    named = _named_sources(8)
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        with pytest.raises(BrokenProcessPool):
            engine.map(_crash_on_boom, ["BOOM"] * 8)
        X = engine.featurize_sources(fe, feat, named)
    serial = ExecutionEngine(EngineConfig(workers=0)) \
        .featurize_sources(fe, feat, named)
    assert X.tobytes() == serial.tobytes()


# ---------------------------------------------------------------------------
# The small-batch guard is the stage path's; map tasks are caller-sized
# ---------------------------------------------------------------------------

def test_map_fans_out_from_two_tasks():
    """`map` fans out whenever ``workers > 0`` and it has two or more
    tasks (items, or chunks with ``chunk_size``); one task runs inline."""
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        assert engine.map(len, ["x"]) == [1]
        assert engine.map(len, ["x", "yy", "z"], chunk_size=3) == [1, 2, 1]
        assert not engine.pool_active
        assert engine.counters["tasks"] == 0
        assert engine.map(len, ["x", "yy"]) == [1, 2]
        assert engine.pool_active
        assert engine.counters["tasks"] == 2
        assert engine.map(len, ["x", "yy", "z"], chunk_size=2) == [1, 2, 1]
        assert engine.counters["tasks"] == 4
        assert engine.counters["parallel_chunks"] == 0   # stage-path only


def test_featurize_honours_min_samples_per_worker_guard(monkeypatch):
    named = _named_sources(16)
    fe = CFrontend(CFrontendConfig(opt_level="O0"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        X = engine.featurize_sources(fe, feat, named[:8])    # 8 < 2 * 32
        assert X.shape[0] == 8
        assert not engine.pool_active
        assert engine.counters["parallel_chunks"] == 0
        # The guard is read per run, so lowering it lets 8 samples out.
        monkeypatch.setattr("repro.engine.engine.MIN_SAMPLES_PER_WORKER", 4)
        engine.featurize_sources(fe, feat, named[8:])
        assert engine.counters["parallel_chunks"] > 0


def test_stats_dict_perf_section_shape():
    stats = ExecutionEngine(EngineConfig(workers=0)).stats_dict()
    perf = stats["perf"]
    for key in ("payload_bytes_per_task", "worker_busy_sec",
                "parallel_wall_sec", "pool_utilization",
                "ewma_sample_sec"):
        assert isinstance(perf[key], float)
    assert stats["counters"]["tasks"] == 0
    assert stats["counters"]["payload_bytes"] == 0


def test_unpicklable_featurizer_warns_and_stays_serial_with_features(
        fan_out_small):
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    feat.poison = lambda: None
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            X = engine.featurize_sources(fe, feat, _named_sources(6))
        assert X.shape == (6, 512)
        assert any("serial" in str(w.message) for w in caught)
        assert engine.counters["parallel_chunks"] == 0
        assert not engine.pool_active


# ---------------------------------------------------------------------------
# Worker stage time reaches the parent's trace and /metrics
# ---------------------------------------------------------------------------

def test_worker_stage_time_reaches_parent_metrics(fan_out_small, traced):
    """Stage frames that run in pool workers count in the parent's
    ``repro_stage_seconds``, once per frame, as the spans come home."""
    fe = CFrontend(CFrontendConfig(opt_level="Os"))
    feat = IR2VecFeaturizer(IR2VecFeaturizerConfig())
    feat.warmup()                 # the seed table's own compiles stay out
    before = _stage_counts("compile")
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        with TRACER.start_trace("featurize", trace_id="tfanout"):
            engine.featurize_sources(fe, feat, _named_sources(34))
    assert engine.counters["parallel_chunks"] > 0
    worker_compiles = [s for s in _worker_spans("tfanout")
                       if s["name"] == "stage.compile"]
    assert len(worker_compiles) == 34
    assert _stage_counts("compile") == before + 34


def test_map_worker_spans_reach_parent_trace_and_metrics(traced):
    """``map`` tasks run under the parent's trace context like stage
    chunks: a compile in a mapped worker shows up as a worker-side
    ``stage.compile`` span and in the parent's ``repro_stage_seconds``."""
    named = _named_sources(8)
    before = _stage_counts("compile")
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        with TRACER.start_trace("mapped", trace_id="tmap"):
            names = engine.map(_compile_name, named)
    assert names == [name for name, _ in named]
    worker_compiles = [s for s in _worker_spans("tmap")
                       if s["name"] == "stage.compile"]
    assert len(worker_compiles) == len(named)
    assert _stage_counts("compile") == before + len(named)
