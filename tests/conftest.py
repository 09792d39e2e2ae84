"""Test-suite-wide configuration.

Hypothesis is pinned to a deterministic profile so `pytest tests/` is
reproducible run-to-run: property tests still explore the strategy space,
but from a fixed derivation seed rather than fresh entropy per run.
Override locally with ``--hypothesis-seed=random`` to fuzz.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def fan_out_small(monkeypatch):
    """Let the engine's stage path fan out tiny test batches: the
    production guard keeps batches under 32 samples per worker serial."""
    monkeypatch.setattr("repro.engine.engine.MIN_SAMPLES_PER_WORKER", 1)
