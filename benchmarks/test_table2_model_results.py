"""Table II: IR2vec and GNN over Intra / Cross / Mix."""

from benchmarks.conftest import run_experiment


def test_table2_model_results(benchmark, config, profile_name):
    rows = run_experiment(benchmark, "table2", config, profile_name)
    by_key = {(r["model"], r["scenario"], r["train"]): r["Accuracy"] for r in rows}
    # Shape assertions from the paper: Intra beats the hard Cross direction.
    assert by_key[("IR2vec", "Intra", "MBI")] > by_key[("IR2vec", "Cross", "CORR")]
    assert by_key[("GNN", "Intra", "MBI")] > by_key[("GNN", "Cross", "CORR")]
