"""Table III: detailed evaluation against MBI (tools + models)."""

from benchmarks.conftest import run_experiment


def test_table3_mbi_tools(benchmark, config, profile_name):
    rows = run_experiment(benchmark, "table3", config, profile_name)
    by_tool = {r["tool"]: r for r in rows}
    # Shape: ITAC times out on hangs, PARCOACH never does; PARCOACH has the
    # worst specificity; ML rows are fully conclusive.
    assert by_tool["ITAC"]["TO"] > 0
    assert by_tool["PARCOACH"]["TO"] == 0
    assert by_tool["PARCOACH"]["Specificity"] <= by_tool["ITAC"]["Specificity"]
    assert by_tool["IR2vec Intra"]["Conclusiveness"] == 1.0
