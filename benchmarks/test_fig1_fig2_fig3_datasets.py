"""Figures 1-3: dataset statistics (error distribution, code size, counts)."""

from benchmarks.conftest import run_experiment


def test_fig1_error_distribution(benchmark, config, profile_name):
    run_experiment(benchmark, "fig1", config, profile_name)


def test_fig2_code_size(benchmark, config, profile_name):
    sizes = run_experiment(benchmark, "fig2", config, profile_name)
    biased = sizes["MPI-CorrBench (biased)"]["Correct"]["min"]
    assert biased >= 103, "paper: biased correct codes have >= 103 LoC"


def test_fig3_correct_incorrect(benchmark, config, profile_name):
    run_experiment(benchmark, "fig3", config, profile_name)
