"""Metric primitives: registration, histogram math, merge algebra,
and the Prometheus text exposition (validated with the same checker
CI runs against a live server)."""

import math
import os
import sys

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "ci"))
from check_metrics import check_text  # noqa: E402


@pytest.fixture()
def registry():
    r = MetricsRegistry()
    r.enabled = True
    return r


# -- enable gate ------------------------------------------------------------

def test_disabled_registry_drops_observations():
    r = MetricsRegistry()          # disabled by default
    counter = r.counter("repro_t_total", "t")
    hist = r.histogram("repro_t_seconds", "t")
    counter.inc()
    hist.observe(0.5)
    assert counter.labels().value == 0.0
    assert hist.quantile(0.5) is None
    doc = r.as_dict()
    assert doc["repro_t_total"]["series"][0]["value"] == 0.0
    assert doc["repro_t_seconds"]["series"][0]["count"] == 0


def test_registration_is_idempotent_but_kind_checked(registry):
    a = registry.counter("repro_x_total", "x")
    assert registry.counter("repro_x_total", "x") is a
    with pytest.raises(ValueError):
        registry.gauge("repro_x_total", "x")
    with pytest.raises(ValueError):
        registry.counter("repro_x_total", "x", labelnames=("path",))
    with pytest.raises(ValueError):
        registry.counter("0bad", "starts with a digit")


def test_labels_arity_checked(registry):
    c = registry.counter("repro_l_total", "l", labelnames=("a", "b"))
    with pytest.raises(ValueError):
        c.labels("only-one")
    c.labels("x", "y").inc(2)
    assert c.labels("x", "y").value == 2.0


# -- histogram edge cases (the satellite) -----------------------------------

def test_empty_histogram_quantiles_are_none(registry):
    h = registry.histogram("repro_h_seconds", "h")
    for q in (0.0, 0.5, 0.99, 1.0):
        assert h.quantile(q) is None


def test_single_observation_lands_in_its_bucket(registry):
    h = registry.histogram("repro_h1_seconds", "h", buckets=(1.0, 2.0, 4.0))
    h.observe(1.5)
    for q in (0.01, 0.5, 0.99):
        value = h.quantile(q)
        assert 1.0 <= value <= 2.0, q


def test_observations_beyond_top_bucket_clamp(registry):
    h = registry.histogram("repro_h2_seconds", "h", buckets=(1.0, 2.0))
    for _ in range(10):
        h.observe(100.0)           # all land in the +Inf overflow bucket
    # The overflow bucket has no upper edge: quantiles clamp to the top
    # declared bound instead of inventing a number.
    assert h.quantile(0.5) == 2.0
    assert h.quantile(0.99) == 2.0
    child = h.labels()
    assert child.count == 10
    assert child.counts[-1] == 10
    assert child.sum == pytest.approx(1000.0)


def test_quantile_interpolates_within_bucket(registry):
    h = registry.histogram("repro_h3_seconds", "h", buckets=(0.0, 10.0))
    for _ in range(100):
        h.observe(5.0)
    # 100 observations spread (by assumption) across (0, 10]: the median
    # interpolates to the middle of the winning bucket.
    assert h.quantile(0.5) == pytest.approx(5.0)
    assert 0.0 < h.quantile(0.1) < h.quantile(0.9) <= 10.0


def test_default_buckets_are_sorted_and_used(registry):
    h = registry.histogram("repro_h4_seconds", "h")
    assert h.buckets == tuple(sorted(DEFAULT_BUCKETS))
    h.observe(0.003)
    assert h.labels().counts[2] == 1   # (0.0025, 0.005]


# -- exposition -------------------------------------------------------------

def test_prometheus_output_passes_the_ci_checker(registry):
    c = registry.counter("repro_req_total", "Requests.",
                         labelnames=("path", "status"))
    c.labels("/v1/check", 200).inc(7)
    c.labels('quo"te\\path\nx', 500).inc()
    registry.gauge("repro_up", "Up.").set(1)
    h = registry.histogram("repro_lat_seconds", "Latency.")
    for v in (0.002, 0.03, 0.3, 42.0):
        h.observe(v)
    text = registry.render_prometheus()
    assert check_text(text) == []
    assert "# TYPE repro_lat_seconds histogram" in text
    assert 'le="+Inf"' in text
    assert "repro_req_total" in text


def test_as_dict_reports_quantiles(registry):
    h = registry.histogram("repro_q_seconds", "q", buckets=(0.0, 10.0))
    for _ in range(10):
        h.observe(5.0)
    series = registry.as_dict()["repro_q_seconds"]["series"][0]
    assert series["count"] == 10
    assert 0.0 < series["p50"] <= 10.0
    assert series["p50"] <= series["p90"] <= series["p99"]
    assert not math.isnan(series["sum"])
