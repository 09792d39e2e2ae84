"""Table VI: Hypre-like real-case predictions."""

from benchmarks.conftest import run_experiment


def test_table6_hypre(benchmark, config, profile_name):
    rows = run_experiment(benchmark, "table6", config, profile_name)
    assert len(rows) == 4
    # Each row classifies all six Hypre columns.
    for row in rows:
        hits = [row[f"{c}_hit"] for c in
                ("O0-ok", "O2-ok", "Os-ok", "O0-ko", "O2-ko", "Os-ko")]
        assert len(hits) == 6
