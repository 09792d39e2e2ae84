"""The stage-timing primitive, its profile fold and the PERF_profile.json
artifact."""

import time

import pytest

from repro.datasets.loader import Sample
from repro.engine import EngineConfig, ExecutionEngine
from repro.obs.trace import TRACER, Tracer, new_id
from repro.schema import SchemaError
from repro.perf import (
    STAGES,
    collect_profile,
    fold_stages,
    load_profile,
    save_profile,
    validate_profile,
)

_SRC = """
#include <mpi.h>
int main(int argc, char** argv) {{
  int buf[{n}];
  MPI_Init(&argc, &argv);
  MPI_Send(buf, {n}, MPI_INT, 1, {n}, MPI_COMM_WORLD);
  MPI_Finalize();
  return 0;
}}
"""


def _samples(n, label="Correct"):
    return [Sample(name=f"p{i}.c", source=_SRC.format(n=i + 2),
                   label=label, suite="MBI") for i in range(n)]


def _one_trace():
    return ((new_id(), new_id()),)


# ---------------------------------------------------------------------------
# Stage frames and the exclusive-time fold
# ---------------------------------------------------------------------------

def test_disabled_registry_is_noop_and_accumulates_nothing():
    tracer = Tracer()
    with tracer.start_trace("t", trace_id="tdis"):
        with tracer.stage("compile"):
            pass
    assert tracer.get_trace("tdis") is None
    assert tracer.stats()["recorded_traces"] == 0
    # The disabled path hands out one shared context manager.
    assert tracer.stage("compile") is tracer.stage("verify")


def test_nested_stages_account_exclusive_time():
    tracer = Tracer()
    with tracer.collect(_one_trace()) as spans:
        with tracer.stage("compile"):
            time.sleep(0.02)
            with tracer.stage("verify"):
                time.sleep(0.05)
            time.sleep(0.02)
    outer, = [s for s in spans if s["name"] == "stage.compile"]
    inner, = [s for s in spans if s["name"] == "stage.verify"]
    # Spans are intervals: the nested frame is a child of the outer one.
    assert inner["parent_id"] == outer["span_id"]
    assert outer["kind"] == inner["kind"] == "stage"
    sec, counts = fold_stages(spans)
    # The fold excludes the whole nested interval from the outer stage...
    assert 0.03 <= sec["compile"] < 0.05
    assert sec["verify"] >= 0.05
    # ...so the disjoint totals sum to the outer span's elapsed time.
    assert abs(sum(sec.values()) - outer["elapsed_s"]) < 1e-5
    assert counts == {"compile": 1, "verify": 1}


def test_reenterable_stage_counts_every_entry():
    tracer = Tracer()
    with tracer.collect(_one_trace()) as spans:
        for _ in range(5):
            with tracer.stage("passes"):
                pass
    assert fold_stages(spans)[1] == {"passes": 5}
    # A new collect scope starts from an empty buffer.
    with tracer.collect(_one_trace()) as spans:
        pass
    assert fold_stages(spans) == ({}, {})


def test_snapshot_merge_folds_worker_totals():
    parent = Tracer()
    with parent.collect(_one_trace()) as spans:
        worker = Tracer()                # another process in production
        with worker.worker_scope(parent.capture()) as shipped:
            with worker.stage("embed"):
                time.sleep(0.01)
        with parent.stage("embed"):
            time.sleep(0.01)
        with parent.stage("compile"):
            pass
        parent.merge_spans(shipped)
        parent.merge_spans(shipped)      # merging twice doubles, not replaces
    sec, counts = fold_stages(spans)
    assert counts["embed"] == 3
    assert sec["embed"] >= 0.03
    assert counts["compile"] == 1


def test_global_registry_default_disabled():
    # Production default: instrumentation sites must cost ~nothing.
    assert TRACER.enabled is False
    assert TRACER.stage("compile") is TRACER.stage("embed")


# ---------------------------------------------------------------------------
# Profile document validation / io
# ---------------------------------------------------------------------------

def _minimal_doc():
    return {
        "kind": "repro-perf-profile",
        "schema_version": 1,
        "dataset": "mbi",
        "samples": 4,
        "method": "ir2vec",
        "opt_level": "Os",
        "workers": 0,
        "wall_sec": 1.0,
        "samples_per_sec": 4.0,
        "stage_sec": {"compile": 0.5, "embed": 0.4},
        "stage_counts": {"compile": 4, "embed": 1},
        "stage_total_sec": 0.9,
        "coverage": 0.9,
    }


def test_validate_profile_accepts_minimal_doc():
    validate_profile(_minimal_doc())


def test_validate_profile_rejects_missing_field_and_bad_version():
    doc = _minimal_doc()
    del doc["coverage"]
    with pytest.raises(SchemaError):
        validate_profile(doc)
    doc = _minimal_doc()
    doc["schema_version"] = 99
    with pytest.raises(SchemaError):
        validate_profile(doc)


def test_validate_profile_rejects_unknown_stage_names():
    doc = _minimal_doc()
    doc["stage_sec"]["totally-new-stage"] = 1.0
    with pytest.raises(SchemaError):
        validate_profile(doc)


def test_save_load_roundtrip_and_save_rejects_invalid(tmp_path):
    path = str(tmp_path / "PERF_profile.json")
    save_profile(_minimal_doc(), path)
    assert load_profile(path) == _minimal_doc()
    bad = _minimal_doc()
    bad["stage_sec"] = {"nonsense": 1.0}
    with pytest.raises(SchemaError):
        save_profile(bad, str(tmp_path / "bad.json"))
    assert not (tmp_path / "bad.json").exists()


# ---------------------------------------------------------------------------
# collect_profile: the guts of `repro profile`
# ---------------------------------------------------------------------------

def test_collect_profile_serial_covers_wall_clock(tmp_path):
    samples = _samples(24)
    doc = collect_profile("mbi", samples,
                          engine=ExecutionEngine(EngineConfig(workers=0)))
    validate_profile(doc)
    assert doc["samples"] == 24
    assert doc["workers"] == 0
    assert set(doc["stage_sec"]) <= set(STAGES)
    for stage in ("compile", "verify", "passes", "embed"):
        assert doc["stage_sec"][stage] > 0
    # The acceptance bar: disjoint stage totals sum to within 10% of the
    # instrumented wall clock on a serial run.
    assert 0.9 <= doc["coverage"] <= 1.05
    assert doc["samples_per_sec"] > 0
    save_profile(doc, str(tmp_path / "PERF_profile.json"))


def test_collect_profile_merges_worker_stage_time(fan_out_small):
    samples = _samples(16)
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        doc = collect_profile("mbi", samples, engine=engine, classify=False)
    validate_profile(doc)
    assert doc["workers"] == 2
    # Worker snapshots made it back: per-stage CPU seconds are present
    # even though the work ran in child processes.
    assert doc["stage_sec"]["compile"] > 0
    assert doc["stage_sec"]["embed"] > 0
    assert doc["stage_counts"]["compile"] >= 16
    assert doc["engine_counters"]["parallel_chunks"] > 0


def test_collect_profile_leaves_registry_disabled_on_failure():
    class ExplodingEngine:
        workers = 0
        counters = {}

        def featurize_samples(self, *a, **k):
            raise RuntimeError("boom")

    for enabled in (False, True):
        TRACER.enabled = enabled
        try:
            with pytest.raises(RuntimeError):
                collect_profile("mbi", _samples(2), engine=ExplodingEngine())
            # The tracer is back as the profile found it.
            assert TRACER.enabled is enabled
            assert TRACER._collect is None
            assert TRACER.current() is None
        finally:
            TRACER.enabled = False


def test_collect_profile_folds_every_frame_past_the_span_cap():
    TRACER.max_spans_per_trace = 4
    try:
        doc = collect_profile("mbi", _samples(6), classify=False,
                              engine=ExecutionEngine(EngineConfig(workers=0)))
    finally:
        del TRACER.max_spans_per_trace
    assert doc["stage_counts"] == {"compile": 6, "verify": 12,
                                   "passes": 6, "embed": 1}


def test_collect_profile_gnn_skips_classify_with_note():
    doc = collect_profile("mbi", _samples(6), method="gnn", opt_level="O0",
                          engine=ExecutionEngine(EngineConfig(workers=0)))
    validate_profile(doc)
    assert doc["stage_sec"]["graph"] > 0
    assert "classify" not in doc["stage_sec"]
    assert "notes" in doc


# ---------------------------------------------------------------------------
# CLI face
# ---------------------------------------------------------------------------

def test_cli_profile_writes_schema_valid_artifact(tmp_path, capsys):
    from repro.cli import main

    out_path = str(tmp_path / "PERF_profile.json")
    assert main(["profile", "mbi", "--profile", "smoke",
                 "--subsample", "12", "-o", out_path]) == 0
    doc = load_profile(out_path)         # validates on load
    assert doc["dataset"] == "mbi"
    assert doc["samples"] == 12
    out = capsys.readouterr().out
    assert "profiled 12 mbi samples" in out
    assert "coverage" in out


def test_cli_cache_stats_reports_engine_counters(tmp_path, capsys):
    from repro.cli import main

    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "engine (this process)" in out
    assert "payload_bytes_per_task" in out
    assert "pool_utilization" in out
