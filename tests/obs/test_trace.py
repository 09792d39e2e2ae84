"""Tracer contracts: parenting, fan-out over coalesced traces, the
bounded ring, the span cap, cross-thread activation, and the worker
collect/merge transport."""

import collections
import os
import threading

import pytest

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER, Tracer, new_id


@pytest.fixture()
def tracer():
    t = Tracer(ring_size=8)
    t.enabled = True
    yield t
    t.enabled = False


def _spans_by_name(doc):
    out = {}
    for span in doc["spans"]:
        out.setdefault(span["name"], []).append(span)
    return out


# -- basics -----------------------------------------------------------------

def test_disabled_tracer_returns_shared_noop():
    t = Tracer()
    assert t.start_trace("x") is t.span("y")      # one shared _NOOP_SPAN
    assert t.stage("compile") is t.stage("verify") is t.span("y")
    assert t.capture() is None


def test_new_ids_are_distinct_hex():
    ids = {new_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)


def test_root_and_child_parenting(tracer):
    with tracer.start_trace("GET /v1/check", trace_id="t1") as root:
        root.set(status=200)
        with tracer.span("inner", kind="server") as _inner:
            with tracer.span("leaf", kind="engine"):
                pass
    doc = tracer.get_trace("t1")
    assert doc is not None and doc["name"] == "GET /v1/check"
    spans = _spans_by_name(doc)
    root_span = spans["GET /v1/check"][0]
    assert root_span["parent_id"] is None
    assert root_span["attrs"] == {"status": 200}
    inner = spans["inner"][0]
    assert inner["parent_id"] == root_span["span_id"]
    assert spans["leaf"][0]["parent_id"] == inner["span_id"]


def test_span_without_open_trace_is_noop(tracer):
    with tracer.span("orphan"):
        pass
    assert tracer.stats()["recorded_traces"] == 0


def test_record_leaf_does_not_mutate_context(tracer):
    with tracer.start_trace("t", trace_id="t2"):
        before = tracer.current()
        tracer.record("fanout", kind="engine", start_s=1.0, elapsed_s=0.5,
                      attrs={"chunks": 3})
        assert tracer.current() == before
    spans = _spans_by_name(tracer.get_trace("t2"))
    leaf = spans["fanout"][0]
    assert leaf["parent_id"] == spans["t"][0]["span_id"]
    assert leaf["attrs"] == {"chunks": 3}


def test_batch_span_fans_out_over_all_traces(tracer):
    """A micro-batch serves several requests: one span context manager
    must record one span per originating trace."""
    with tracer.start_trace("a", trace_id="ta"):
        ctx_a = tracer.capture()
    # ctx entries survive capture; build a two-trace context by hand the
    # way the server's _run_batch does.
    tracer._register("tb")
    tracer._register("tc")
    batch_ctx = (("tb", "parent-b"), ("tc", "parent-c"))
    with tracer.activate(batch_ctx):
        with tracer.span("serve.batch", kind="batcher"):
            pass
    for trace_id, parent in batch_ctx:
        # still open: close them to inspect
        tracer._finish(trace_id, {"trace_id": trace_id, "span_id": new_id(),
                                  "parent_id": None, "name": "root",
                                  "kind": "server", "start_s": 0.0,
                                  "elapsed_s": 0.0, "process": os.getpid()})
        spans = _spans_by_name(tracer.get_trace(trace_id))
        assert spans["serve.batch"][0]["parent_id"] == parent
    assert ctx_a is not None and ctx_a[0][0] == "ta"


# -- ring + cap -------------------------------------------------------------

def test_ring_evicts_oldest(tracer):
    for i in range(12):
        with tracer.start_trace("t", trace_id=f"trace-{i}"):
            pass
    stats = tracer.stats()
    assert stats["ring_traces"] == 8
    assert tracer.get_trace("trace-0") is None
    assert tracer.get_trace("trace-11") is not None
    assert stats["recorded_traces"] == 12


def test_span_cap_drops_but_keeps_root(tracer):
    tracer.max_spans_per_trace = 10
    with tracer.start_trace("big", trace_id="tbig"):
        for i in range(50):
            tracer.record(f"s{i}")
    doc = tracer.get_trace("tbig")
    assert len(doc["spans"]) == 11              # 10 capped + exempt root
    assert any(s["parent_id"] is None for s in doc["spans"])
    assert tracer.stats()["dropped_spans"] == 40


def test_record_span_after_finish_counts_dropped(tracer):
    with tracer.start_trace("t", trace_id="tdone"):
        pass
    tracer.record_span("tdone", new_id(), None, "late", "server", 0.0, 0.0)
    assert tracer.stats()["dropped_spans"] == 1
    assert len(tracer.get_trace("tdone")["spans"]) == 1


# -- cross-thread activation ------------------------------------------------

def test_activate_carries_context_into_another_thread(tracer):
    recorded = {}

    def work(ctx):
        # run_in_executor does not propagate contextvars: without
        # activate() this thread would see no context at all.
        assert tracer.current() is None
        with tracer.activate(ctx):
            with tracer.span("thread-work", kind="engine"):
                recorded["ctx"] = tracer.current()

    with tracer.start_trace("t", trace_id="tt") as _root:
        ctx = tracer.capture()
        thread = threading.Thread(target=work, args=(ctx,))
        thread.start()
        thread.join()
    spans = _spans_by_name(tracer.get_trace("tt"))
    assert "thread-work" in spans
    assert recorded["ctx"][0][0] == "tt"


# -- worker transport -------------------------------------------------------

def test_worker_scope_collects_and_merge_spans_folds(tracer):
    with tracer.start_trace("t", trace_id="tw") as _root:
        ctx = tracer.capture()

    # Simulate the pool worker: a *different* tracer instance (another
    # process in production) collects into a buffer...
    worker = Tracer()
    with worker.worker_scope(ctx) as buffer:
        with worker.span("chunk", kind="worker"):
            pass
    assert worker.enabled is False and worker._collect is None
    assert len(buffer) == 1
    assert buffer[0]["trace_id"] == "tw"

    # ...which the parent folds into the still-open trace.  "tw" is
    # already finished here, so reopen a fresh one to verify the merge.
    tracer._register("tw2")
    buffer2 = [dict(buffer[0], trace_id="tw2")]
    tracer.merge_spans(buffer2)
    tracer._finish("tw2", {"trace_id": "tw2", "span_id": new_id(),
                           "parent_id": None, "name": "root",
                           "kind": "server", "start_s": 0.0,
                           "elapsed_s": 0.0, "process": os.getpid()})
    assert "chunk" in _spans_by_name(tracer.get_trace("tw2"))


def test_worker_scope_without_ctx_neutralizes_inherited_tracer():
    worker = Tracer()
    worker.enabled = True          # forked child inherits an enabled tracer
    with worker.worker_scope(None) as buffer:
        assert worker.enabled is False
        assert worker.stage("compile") is worker.span("ignored")
        with worker.span("ignored"):
            pass
    assert buffer == []


# -- stage frames -----------------------------------------------------------

def _stage_count(stage):
    series = METRICS.as_dict()["repro_stage_seconds"]["series"]
    return sum(s["count"] for s in series if s["labels"]["stage"] == stage)


@pytest.fixture()
def stage_metrics():
    """The real TRACER and METRICS, enabled, restored afterwards."""
    metrics_on = METRICS.enabled
    METRICS.enabled = True
    TRACER.enable()
    try:
        yield _stage_count
    finally:
        TRACER.disable()
        METRICS.enabled = metrics_on


def test_perf_stage_frames_become_spans(stage_metrics):
    """End to end over the real globals: stage() frames land as
    stage.<name> spans, nested stages as children, and each frame
    observes repro_stage_seconds once."""
    before = stage_metrics("compile")
    with TRACER.start_trace("t", trace_id="tperf"):
        with TRACER.stage("compile"):
            with TRACER.stage("verify"):
                pass
    spans = _spans_by_name(TRACER.get_trace("tperf"))
    outer, = spans["stage.compile"]
    inner, = spans["stage.verify"]
    assert outer["kind"] == inner["kind"] == "stage"
    assert inner["parent_id"] == outer["span_id"]
    assert stage_metrics("compile") == before + 1


def test_stage_without_trace_still_observes_latency(stage_metrics):
    before = stage_metrics("embed")
    with TRACER.stage("embed"):
        pass
    assert stage_metrics("embed") == before + 1


def test_merged_worker_stage_frames_observe_once_per_frame(tracer,
                                                           stage_metrics):
    """A worker frame under two coalesced traces ships as two spans;
    the parent observes it once, and the worker not at all."""
    tracer._register("ta")
    tracer._register("tb")
    worker = Tracer()
    before = stage_metrics("passes")
    with worker.worker_scope((("ta", new_id()), ("tb", new_id()))) as spans:
        with worker.stage("passes"):
            pass
    assert len(spans) == 2
    assert stage_metrics("passes") == before
    tracer.merge_spans(spans)
    assert stage_metrics("passes") == before + 1
    assert len(tracer._open["ta"]) == len(tracer._open["tb"]) == 1


# -- collect buffers --------------------------------------------------------

def _one_trace():
    return ((new_id(), new_id()),)


def test_global_tracer_is_disabled_by_default():
    # Production default: stage sites must cost ~nothing.
    assert TRACER.enabled is False
    assert TRACER.stage("compile") is TRACER.stage("embed")


def test_reentered_stage_records_one_span_per_entry():
    tracer = Tracer()
    with tracer.collect(_one_trace()) as spans:
        for _ in range(5):
            with tracer.stage("passes"):
                pass
    assert [s["name"] for s in spans] == ["stage.passes"] * 5
    assert len({s["span_id"] for s in spans}) == 5
    # A new collect scope starts from an empty buffer.
    with tracer.collect(_one_trace()) as spans:
        pass
    assert spans == []


def test_collect_restores_the_tracer_after_an_exception():
    for enabled in (False, True):
        tracer = Tracer()
        tracer.enabled = enabled
        with pytest.raises(RuntimeError):
            with tracer.collect(_one_trace()):
                assert tracer.enabled is True
                with tracer.stage("embed"):
                    raise RuntimeError("boom")
        assert tracer.enabled is enabled
        assert tracer._collect is None
        assert tracer.current() is None


def test_collect_buffer_keeps_spans_past_the_span_cap():
    tracer = Tracer()
    tracer.max_spans_per_trace = 4
    with tracer.collect(_one_trace()) as spans:
        for _ in range(10):
            with tracer.stage("verify"):
                pass
    assert len(spans) == 10
    assert tracer.stats()["dropped_spans"] == 0


def test_merge_spans_while_collecting_extends_the_buffer():
    parent = Tracer()
    with parent.collect(_one_trace()) as spans:
        worker = Tracer()                # another process in production
        with worker.worker_scope(parent.capture()) as shipped:
            with worker.stage("embed"):
                pass
        with parent.stage("compile"):
            pass
        parent.merge_spans(shipped)
        parent.merge_spans(shipped)      # merging twice doubles
    names = collections.Counter(s["name"] for s in spans)
    assert names == {"stage.embed": 2, "stage.compile": 1}
