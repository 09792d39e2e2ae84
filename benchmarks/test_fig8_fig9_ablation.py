"""Figs. 8 and 9: single- and pair-label ablation studies."""

from benchmarks.conftest import run_experiment
from repro.eval import experiments as E


def test_fig8_single_ablation(benchmark, config, profile_name):
    result = run_experiment(benchmark, "fig8", config, profile_name)
    for suite, series in result.items():
        assert all(0.0 <= v <= 1.0 for v in series.values())


def test_fig9_pair_ablation(benchmark, config, profile_name):
    result = run_experiment(benchmark, "fig9", config, profile_name)
    assert len(result) == len(E.FIG9_PAIRS)
