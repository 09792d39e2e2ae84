"""Stage frames (``Tracer.stage``): the disabled path records nothing, and
nested frames are intervals from which exclusive time follows."""

import time

from repro.obs.trace import Tracer, new_id


def _one_trace():
    return ((new_id(), new_id()),)


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
    # The outer stage's exclusive time leaves out the whole nested interval.
    exclusive = outer["elapsed_s"] - inner["elapsed_s"]
    assert 0.03 <= exclusive < 0.05
    assert inner["elapsed_s"] >= 0.05
    assert inner["start_s"] >= outer["start_s"]
