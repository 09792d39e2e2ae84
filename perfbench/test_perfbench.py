"""Tests of the benchmark's own arithmetic and input generation.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import inputs, layers, spans, stats  # noqa: E402


# -- percentile chooser -----------------------------------------------------

@pytest.mark.parametrize("n, label", [
    (10_000, "p99.9"), (9_999, "p99"), (1_000, "p99"), (999, "p95"),
    (200, "p95"), (199, "p90"), (100, "p90"), (99, "p75"), (40, "p75"),
    (39, "p50"), (20, "p50"),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, label):
    tenths = stats.tail_tenths(n)
    assert stats.tail_label(tenths) == label
    assert stats.samples_beyond(n, tenths) >= 10
    higher = [t for t in stats.TAIL_CANDIDATES_TENTHS if t > tenths]
    assert all(stats.samples_beyond(n, t) < 10 for t in higher)


def test_too_few_samples_have_no_tail():
    assert stats.tail_tenths(19) is None
    with pytest.raises(ValueError):
        stats.latency_summary([0.001] * 19)


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 25) == pytest.approx(1.75)


def test_latency_summary_reports_ms_and_its_percentile():
    summary = stats.latency_summary([i / 1000 for i in range(1, 201)])
    assert summary["n"] == 200 and summary["tail"] == "p95"
    assert summary["p50_ms"] == pytest.approx(100.5)
    assert summary["tail_ms"] == pytest.approx(190.05)


def test_chunk_rates_cover_every_unit_once():
    assert stats.chunk_bounds(25) == [0, 2, 5, 8, 10, 12, 15, 18, 20, 22,
                                      25]
    rates = stats.chunk_rates([0.5] * 25)
    assert len(rates) == 10 and all(r == 2.0 for r in rates)


def test_unit_times_rescale_by_the_speed_around_their_part():
    times = [0.2] * 20
    loops = [0.02, 0.02] + [0.01] * 9        # part 0 ran at half speed
    scaled = stats.at_reference_speed(times, loops, reference_s=0.01)
    assert scaled[:2] == [0.1, 0.1]          # factor 2 in part 0
    assert scaled[2:4] == pytest.approx([0.2 / 1.5] * 2)  # mean(2, 1)
    assert scaled[4:] == [0.2] * 16
    with pytest.raises(ValueError):
        stats.at_reference_speed(times, loops[:-1], reference_s=0.01)


# -- self time --------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children_cover():
    assert spans.self_time((0, 10), [(2, 5), (6, 7)]) == 6
    # Overlapping children count once; parts outside the span not at all.
    assert spans.self_time((0, 10), [(1, 4), (3, 6), (9, 12)]) == 4
    assert spans.self_time((0, 10), []) == 10


def test_recorder_self_time_matches_the_definition():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)
    outer = rec.enter("a")
    clock.now = 2
    child = rec.enter("b")
    clock.now = 5
    rec.exit(child)
    clock.now = 6
    child = rec.enter("c")
    clock.now = 7
    rec.exit(child)
    clock.now = 10
    rec.exit(outer)
    dump = rec.dump()
    calls, incl, self_s = dump["layers"]["a"]
    assert (calls, incl) == (1, 10)
    assert self_s == spans.self_time((0, 10), [(2, 5), (6, 7)])
    assert dump["layers"]["b"] == [1, 3, 3]
    assert dump["top"] == [(0, 10)]


def test_recursive_spans_count_inclusive_time_once():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)
    outer = rec.enter("a")
    clock.now = 1
    inner = rec.enter("a")
    clock.now = 3
    rec.exit(inner, count=2)
    clock.now = 4
    rec.exit(outer, count=5)
    calls, incl, self_s = rec.dump()["layers"]["a"]
    assert (calls, incl, self_s) == (2, 4, 4)
    assert rec.counts["a"] == 5


def test_install_wraps_functions_imported_by_name():
    lib = types.ModuleType("repro_perfbench_lib")
    lib.work = lambda n: list(range(n))
    user = types.ModuleType("repro_perfbench_user")
    user.work = lib.work
    sys.modules.update({lib.__name__: lib, user.__name__: user})
    try:
        rec = spans.Recorder()
        missing = spans.install(rec, [
            layers.Span("lib.work", "repro_perfbench_lib:work",
                        count=len),
            layers.Span("lib.gone", "repro_perfbench_lib:absent")])
        assert user.work(3) == [0, 1, 2]
        assert rec.layers["lib.work"][0] == 1
        assert rec.counts["lib.work"] == 3
        assert missing == ["repro_perfbench_lib:absent"]
    finally:
        for name in (lib.__name__, user.__name__):
            sys.modules.pop(name, None)


# -- shares carry their base ------------------------------------------------

def test_empty_base_gives_zero_share_with_its_base():
    assert stats.share(0, 0) == (0.0, 0, 0)
    assert stats.share(3, 4) == (0.75, 3, 4)
    assert stats.share_detail(3, 4, "lookups") == "3 of 4 lookups"


def test_end_to_end_shares_are_reported_with_their_base():
    from perfbench.run import end_to_end
    from perfbench.workloads import Outcome

    outcome = Outcome(
        setup_s=[2.0, 1.0, 3.0], units=40, work_s=4.0, rates=[9.0, 11.0],
        latencies_s=[0.01] * 40, attempted=50, failed=1, accuracy=0.75,
        accuracy_base=8, peak_rss_mb=100.0, launch=0.0, wall_s=7.0,
        outputs=[])
    metrics = end_to_end(outcome)
    assert metrics["setup_s"]["value"] == 2.0
    assert metrics["throughput_per_s"]["value"] == 10.0
    assert metrics["success_share"]["value"] == 0.98
    assert metrics["success_share"]["detail"] == "49 of 50 attempted"
    assert metrics["accuracy"]["detail"] == "6 of 8 outputs"
    assert metrics["latency_tail_ms"]["detail"] == "p75 of 40"


def _trace_dump():
    return {"layers": {"frontend.compile": [4, 2.0, 1.5],
                       "repair.gate": [6, 1.0, 0.5]},
            "counts": {}, "ends": {"nn.optim": [1.0, 1.2, 1.5]},
            "top": [], "detached": {}, "samples": {}}


def test_every_per_layer_share_is_reported_with_its_base():
    facts = {"memo": {"hits": 3, "misses": 1},
             "repair": {"cases": 3, "attempts": 4, "validated": 2},
             "coverage": {"wall_s": 10.0, "covered_s": 9.5,
                          "residue": "loop"},
             "overhead_share": 0.02, "untraced_busy_s": 5.0}
    values = layers.per_layer(_trace_dump(), facts)
    assert list(values) == [m.name for m in layers.METRICS]
    shares = [m.name for m in layers.METRICS if m.unit == "share"]
    assert shares
    for name in shares:
        assert "of" in values[name], name
    assert values["frontend.memo_hit_share"]["value"] == 0.75
    assert values["frontend.memo_hit_share"]["of"] == 4
    assert values["repair.gate_calls_per_case"]["value"] == 2.0
    assert values["trace.unattributed_share"]["value"] == \
        pytest.approx(0.05)
    assert values["models.step_ms_p50"]["value"] == pytest.approx(250.0)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    from perfbench.run import E2E_UNITS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in layers.METRICS]


# -- inputs -----------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_gives_byte_identical_inputs(workload):
    generate = inputs.GENERATORS[workload]
    first = inputs.canonical(generate(3, 1, set()))
    assert inputs.canonical(generate(3, 1, set())) == first
    assert inputs.canonical(generate(4, 1, set())) != first


def test_serve_schedule_never_repeats_a_hot_source_within_the_gap():
    _program, answers = inputs.serve_mixed(5, 2, set())
    last = {}
    for request in answers["requests"]:
        seen = set()
        for _name, source, _label in request["sources"]:
            assert source not in seen
            seen.add(source)
            if source in last:
                assert request["due_s"] - last[source] >= \
                    inputs.HOT_REUSE_S
            last[source] = request["due_s"]
