"""Shared configuration for the per-table/figure benchmark harness.

Profile selection: set ``REPRO_PROFILE`` to ``smoke`` (default; minutes),
``fast`` (tens of minutes), or ``paper`` (paper-scale: full suites, 10
folds, GA population 2500 — hours in pure Python).  docs/experiments.md
lists what each profile runs.

Every paper benchmark runs its driver from the experiment registry and
emits through the registry's renderer, so its printout is exactly what
``repro experiment <name>`` prints.
"""

import os

import pytest

from repro.eval.config import ReproConfig
from repro.eval.experiments import EXPERIMENTS

_PROFILES = {
    "smoke": ReproConfig.smoke,
    "fast": ReproConfig.fast,
    "paper": ReproConfig.paper,
}


@pytest.fixture(scope="session")
def config() -> ReproConfig:
    name = os.environ.get("REPRO_PROFILE", "smoke")
    if name not in _PROFILES:
        raise ValueError(f"REPRO_PROFILE must be one of {sorted(_PROFILES)}")
    return _PROFILES[name]()


@pytest.fixture(scope="session")
def profile_name() -> str:
    return os.environ.get("REPRO_PROFILE", "smoke")


def emit(title: str, body: str) -> None:
    print(f"\n=== {title} ===")
    print(body)


def run_experiment(benchmark, name: str, config: ReproConfig,
                   profile_name: str):
    """Time one registry driver, emit its rendering, return its result."""
    experiment = EXPERIMENTS[name]
    result = benchmark.pedantic(experiment.run, args=(config,),
                                rounds=1, iterations=1)
    emit(f"{experiment.paper} (profile={profile_name})",
         experiment.render(result))
    return result
