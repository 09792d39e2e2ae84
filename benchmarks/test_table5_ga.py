"""Table V: GA feature selection on/off, Intra and Cross."""

from benchmarks.conftest import run_experiment


def test_table5_ga_effect(benchmark, config, profile_name):
    rows = run_experiment(benchmark, "table5", config, profile_name)
    assert len(rows) == 8
    assert {r["scenario"] for r in rows} == {"Intra", "Cross"}
