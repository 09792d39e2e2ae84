"""Section V-A "Seeds": sensitivity of GA features to the embedding seed.

The paper regenerates IR2vec vectors with a different seed while keeping
the GA-selected coordinates and observes small Intra losses (−0.6% MBI,
0% CorrBench) but a large loss for Cross MBI→CorrBench (−40.81%), because
the selected coordinates only mean something in the embedding basis the
GA searched.
"""

from benchmarks.conftest import run_experiment


def test_seed_sensitivity(benchmark, config, profile_name):
    rows = run_experiment(benchmark, "seeds", config, profile_name)
    assert len(rows) == 4
    for row in rows:
        assert 0.0 <= row["acc_original"] <= 1.0
        assert 0.0 <= row["acc_reseeded"] <= 1.0
    # Paper shape: Intra is robust to reseeding (small |delta|); the
    # brittle scenario is a Cross direction, where reused GA coordinates
    # can lose a large fraction of their accuracy.  At the smoke profile
    # the base models sit at noise level (see docs/experiments.md), so deltas
    # are noise too — shape is asserted from the fast profile up.
    if profile_name != "smoke":
        intra_deltas = [abs(r["delta"]) for r in rows if r["scenario"] == "Intra"]
        cross_deltas = [abs(r["delta"]) for r in rows if r["scenario"] == "Cross"]
        assert max(intra_deltas) <= 0.25
        assert max(cross_deltas) >= max(intra_deltas) - 1e-9
