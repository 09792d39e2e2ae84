"""Fig. 7: metric bars — verification tools vs ML models on both suites."""

from benchmarks.conftest import run_experiment


def test_fig7_tool_comparison(benchmark, config, profile_name):
    results = run_experiment(benchmark, "fig7", config, profile_name)
    # Shape assertions: the ideal tool dominates; the ML Intra rows are
    # competitive with the best expert tool on each suite.
    for suite, tools in results.items():
        assert tools["Ideal tool"]["F1"] == 1.0
        best_tool_f1 = max(m["F1"] for name, m in tools.items()
                           if "Intra" not in name and "Cross" not in name
                           and name != "Ideal tool")
        assert tools["IR2vec Intra"]["F1"] >= best_tool_f1 - 0.25
