"""Design-choice ablations (docs/experiments.md): choices the paper fixed.

* IR2vec concatenates symbolic + flow-aware encodings — what does each
  half contribute on its own?
* The GNN fixes adaptive max pooling, GATv2 attention, and heterogeneous
  edge types — what happens when each is flipped?
"""

from benchmarks.conftest import run_experiment


def test_ir2vec_encoding_ablation(benchmark, config, profile_name):
    rows = run_experiment(benchmark, "ablation-encoding", config, profile_name)
    assert len(rows) == 6          # 2 suites x 3 encodings
    for row in rows:
        assert 0.0 <= row["accuracy"] <= 1.0
    # Structural check: the concat rows exist for both suites and use the
    # full 512 dimensions.
    concat = [r for r in rows if r["encoding"] == "concat (paper)"]
    assert {r["suite"] for r in concat} == {"MBI", "CORR"}
    assert all(r["dim"] == 512 for r in concat)


def test_gnn_design_ablation(benchmark, config, profile_name):
    rows = run_experiment(benchmark, "ablation-gnn", config, profile_name)
    assert [r["variant"] for r in rows] == [
        "paper (max, GATv2, hetero)", "mean pooling", "no attention",
        "homogeneous edges"]
    for row in rows:
        assert 0.0 <= row["accuracy"] <= 1.0
