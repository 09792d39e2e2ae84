"""Table IV: IR2vec Intra across compiler options and normalizations."""

from benchmarks.conftest import run_experiment


def test_table4_options(benchmark, config, profile_name):
    rows = run_experiment(benchmark, "table4", config, profile_name)
    # Paper: compiler option / normalization impact is bounded (~5% / ~3%);
    # verify the sweep produced the full grid and sane accuracies.
    assert len(rows) == 18
    accs = [r["Accuracy"] for r in rows]
    assert all(0.3 <= a <= 1.0 for a in accs)
