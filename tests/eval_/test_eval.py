"""Experiment-harness tests (smoke profile)."""

import numpy as np
import pytest

from repro.datasets.labels import CORR_LABELS, MBI_LABELS
from repro.eval import (
    ReproConfig,
    run_cross,
    run_intra_cv,
    run_pair_ablation,
    run_single_ablation,
)
from repro.eval import experiments as E
from repro.eval.reporting import render_series, render_table


@pytest.fixture(scope="module")
def cfg():
    return ReproConfig.smoke()


def test_fig1_distribution_structure(cfg):
    dist = E.fig1_error_distribution(cfg)
    assert set(dist) == {"MBI", "MPI-CorrBench"}
    assert set(dist["MBI"]) <= set(MBI_LABELS)
    assert set(dist["MPI-CorrBench"]) <= set(CORR_LABELS)
    # Dominant labels per the paper's Fig. 1.
    assert max(dist["MBI"], key=dist["MBI"].get) == "Call Ordering"
    assert max(dist["MPI-CorrBench"], key=dist["MPI-CorrBench"].get) == "ArgError"


def test_fig2_bias_visible(cfg):
    sizes = E.fig2_code_size(cfg)
    biased = sizes["MPI-CorrBench (biased)"]["Correct"]
    debiased = sizes["MPI-CorrBench (debiased)"]["Correct"]
    assert biased["min"] >= 103               # the paper's bias threshold
    assert debiased["max"] < biased["min"]


def test_fig3_counts(cfg):
    counts = E.fig3_correct_incorrect(ReproConfig.paper())
    assert counts["MBI"] == (745, 1116)
    assert counts["MPI-CorrBench"] == (202, 214)


def test_intra_cv_aggregates_all_folds(cfg):
    ds = cfg.mbi()
    report, y_true, y_pred = run_intra_cv("ir2vec", ds, cfg)
    assert len(y_true) == len(ds)
    assert report.counts.total == len(ds)
    assert 0.0 <= report.accuracy <= 1.0


def test_cross_direction_matters(cfg):
    a = run_cross("ir2vec", cfg.mbi(), cfg.corrbench(), cfg)
    b = run_cross("ir2vec", cfg.corrbench(), cfg.mbi(), cfg)
    assert a.counts.total == len(cfg.corrbench())
    assert b.counts.total == len(cfg.mbi())


def test_single_ablation_excludes_label(cfg):
    result = run_single_ablation(cfg.corrbench(), cfg, ["ArgError"])
    assert set(result) == {"ArgError"}
    assert 0.0 <= result["ArgError"] <= 1.0


def test_single_ablation_rejects_absent_label(cfg):
    """A label no sample carries has no detection accuracy — not 0.0."""
    with pytest.raises(ValueError, match="'Invalid Parameter'"):
        run_single_ablation(cfg.corrbench(), cfg, ["Invalid Parameter"])


def test_pair_ablation_names_each_absent_label(cfg):
    with pytest.raises(ValueError) as info:
        run_pair_ablation(cfg.corrbench(), cfg,
                          [("Invalid Parameter", "Resource Leak")])
    assert "'Invalid Parameter'" in str(info.value)
    assert "'Resource Leak'" in str(info.value)
    with pytest.raises(ValueError, match="'Resource Leak'") as info:
        run_pair_ablation(cfg.corrbench(), cfg,
                          [("ArgError", "Resource Leak")])
    assert "ArgError" not in str(info.value)


def test_per_label_keys_are_plain_str():
    from repro.ml.genetic import GAConfig

    tiny = ReproConfig(folds=2, mbi_subsample=40,
                       ga=GAConfig(population_size=10, generations=1))
    acc, support = E.fig6_per_label_with_support(tiny)
    assert acc and set(acc) <= set(support)
    assert all(type(k) is str for k in (*acc, *support))


def test_registry_covers_every_experiment():
    assert sorted(E.EXPERIMENTS) == sorted([
        "fig1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9",
        "table2", "table3", "table4", "table5", "table6",
        "seeds", "mutation", "ablation-encoding", "ablation-gnn"])
    for experiment in E.EXPERIMENTS.values():
        assert callable(experiment.run) and callable(experiment.render)


def test_table5_rows_cover_grid(cfg):
    rows = E.table5_ga_effect(cfg)
    assert len(rows) == 8      # 2 GA x 4 scenarios
    assert {r["GA"] for r in rows} == {"ON", "OFF"}


def test_table6_hypre_structure(cfg):
    rows = E.table6_hypre(cfg)
    assert len(rows) == 4      # 2 training sets x {all, GA}
    for row in rows:
        for col in ("O0-ok", "O2-ok", "Os-ok", "O0-ko", "O2-ko", "Os-ko"):
            assert row[col] in ("ok", "ko")
    text = E.render_table6(rows)
    assert "Hypre" in text


def test_seed_sensitivity_rows(cfg):
    rows = E.seed_sensitivity(cfg, alt_seed=1337)
    assert [(r["scenario"], r["train"], r["val"]) for r in rows] == [
        ("Intra", "MBI", "MBI"), ("Intra", "CORR", "CORR"),
        ("Cross", "MBI", "CORR"), ("Cross", "CORR", "MBI")]
    for row in rows:
        assert abs(row["delta"] - (row["acc_reseeded"] - row["acc_original"])) < 1e-12
        assert row["paper_delta"] is not None
    text = E.render_seed_study(rows)
    assert "Seed study" in text


def test_fixed_features_skip_ga(cfg):
    import numpy as np

    from repro.models.ir2vec_model import IR2vecModel

    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 16))
    y = np.where(X[:, 3] > 0, "Incorrect", "Correct")
    model = IR2vecModel(normalization="none", fixed_features=(3, 5))
    model.fit(X, y)
    assert model.selected == (3, 5)
    assert model.score(X, y) == 1.0


def test_encoding_ablation_structure():
    from repro.eval.config import ReproConfig
    from repro.ml.genetic import GAConfig

    tiny = ReproConfig(folds=2, mbi_subsample=40, corr_subsample=30,
                       ga=GAConfig(population_size=10, generations=1))
    rows = E.ir2vec_encoding_ablation(tiny)
    assert {(r["suite"], r["encoding"]) for r in rows} == {
        (s, e) for s in ("MBI", "CORR")
        for e in ("symbolic", "flow-aware", "concat (paper)")}
    dims = {r["encoding"]: r["dim"] for r in rows}
    assert dims == {"symbolic": 256, "flow-aware": 256, "concat (paper)": 512}


def test_gnn_ablation_structure():
    from repro.eval.config import ReproConfig
    from repro.ml.genetic import GAConfig

    tiny = ReproConfig(folds=2, corr_subsample=24, gnn_epochs=1,
                       ga=GAConfig(population_size=10, generations=1))
    rows = E.gnn_design_ablation(tiny, "CORR")
    assert len(rows) == 4
    assert all(r["suite"] == "CORR" for r in rows)


def test_mutation_experiments_structure():
    from repro.eval.config import ReproConfig
    from repro.ml.genetic import GAConfig

    tiny = ReproConfig(folds=2, mbi_subsample=50, corr_subsample=30,
                       ga=GAConfig(population_size=10, generations=1))
    det = E.mutation_detection(tiny, "MBI", per_sample=1)
    assert det and det[-1]["operator"] == "ALL"
    cross = E.mutation_augmented_cross(tiny, per_sample=1)
    assert len(cross) == 2


def test_reporting_renders():
    table = render_table(["a", "b"], [[1, 2.5], ["x", 0.125]], "T")
    assert "T" in table and "2.500" in table
    series = render_series({"Recall": 0.5, "Precision": 1.0})
    assert "#" in series and "0.500" in series
