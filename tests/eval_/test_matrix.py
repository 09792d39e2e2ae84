"""Evaluation-matrix harness: grid expansion, artifact schema, the
compare gate, warm-cache reruns, and the ``repro eval`` CLI."""

import copy
import json

import pytest

from repro.eval import (
    CompareThresholds,
    MatrixSpec,
    ReproConfig,
    compare_artifacts,
    load_matrix_artifact,
    run_matrix,
    save_matrix_artifact,
)
from repro.eval.matrix import CellSpec
from repro.ml.genetic import GAConfig
from repro.schema import SchemaError, validate_kind
from repro.schema.kinds import EVAL_MATRIX


def _tiny_config(**overrides):
    defaults = dict(folds=2, mbi_subsample=40, corr_subsample=30,
                    ga=GAConfig(population_size=10, generations=1))
    defaults.update(overrides)
    return ReproConfig(**defaults)


def _tiny_spec():
    return MatrixSpec(train_datasets=("corrbench",),
                      test_datasets=("corrbench", "hypre"),
                      methods=("ir2vec",), mutation_levels=(0, 1))


@pytest.fixture(scope="module")
def tiny_doc():
    return run_matrix(_tiny_spec(), _tiny_config(), profile="tiny")


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------

def test_spec_expands_full_grid_in_stable_order():
    spec = MatrixSpec(train_datasets=("mbi", "corrbench"),
                      test_datasets=("mbi", "hypre"),
                      methods=("ir2vec", "gnn"), mutation_levels=(0, 2))
    cells = spec.cells()
    assert len(cells) == 2 * 2 * 2 * 2
    assert len({c.cell_id for c in cells}) == len(cells)
    assert cells == spec.cells()            # deterministic order


def test_spec_rejects_bad_axes():
    with pytest.raises(ValueError):
        MatrixSpec(train_datasets=())
    with pytest.raises(ValueError):
        MatrixSpec(mutation_levels=(0, -1))
    with pytest.raises(ValueError):
        MatrixSpec(train_datasets=("hypre",))     # test-only dataset


def test_cell_scenario_classification():
    assert CellSpec("mbi", "mbi", "ir2vec", 0).scenario == "split"
    assert CellSpec("mbi", "corrbench", "ir2vec", 0).scenario == "cross"


def test_profile_grids():
    smoke = MatrixSpec.for_profile("smoke")
    full = MatrixSpec.for_profile("fast")
    assert smoke.methods == ("ir2vec", "static")
    assert set(full.methods) == {"ir2vec", "gnn", "static"}
    assert len(full.mutation_levels) > len(smoke.mutation_levels)
    # Both grids contain at least one cross-dataset combination.
    for spec in (smoke, full):
        assert any(c.scenario == "cross" for c in spec.cells())


def test_static_cells_are_one_per_test_dataset():
    spec = MatrixSpec(train_datasets=("mbi", "corrbench"),
                      test_datasets=("mbi", "hypre"),
                      methods=("ir2vec", "static"), mutation_levels=(0, 2))
    static_cells = [c for c in spec.cells() if c.method == "static"]
    # Training-free: no train x mutation fan-out, one cell per test side.
    assert len(static_cells) == 2
    assert {c.test_dataset for c in static_cells} == {"mbi", "hypre"}
    for cell in static_cells:
        assert cell.mutation_level == 0
    # Identity where legal (mbi trains), first train dataset otherwise.
    by_test = {c.test_dataset: c for c in static_cells}
    assert by_test["mbi"].train_dataset == "mbi"
    assert by_test["hypre"].train_dataset == "mbi"


# ---------------------------------------------------------------------------
# Matrix execution + artifact shape
# ---------------------------------------------------------------------------

def test_matrix_covers_every_cell_with_per_class_metrics(tiny_doc):
    assert len(tiny_doc["cells"]) == 4       # 1 train x 2 test x 1 m x 2 mut
    scenarios = {c["scenario"] for c in tiny_doc["cells"]}
    assert scenarios == {"split", "cross"}
    for cell in tiny_doc["cells"]:
        assert cell["n_test"] > 0
        assert cell["per_class"], cell["id"]
        for metrics in cell["per_class"].values():
            assert set(metrics) >= {"precision", "recall", "f1", "support"}
        prov = cell["provenance"]
        assert len(prov["train_digest"]) == 64
        assert len(prov["test_digest"]) == 64
        assert prov["train_digest"] != prov["test_digest"]


def test_matrix_cells_fan_out_and_match_serial(tiny_doc):
    """A ``workers=2`` engine submits the cell jobs to its pool — a grid
    far below the stage path's small-batch guard still fans out — and
    the parallel cell docs equal the serial run's."""
    config = _tiny_config(workers=2)
    engine = config.engine()
    try:
        doc = run_matrix(_tiny_spec(), config, profile="tiny")
        assert engine.counters["tasks"] >= len(doc["cells"])
        assert engine.counters["parallel_chunks"] == 0   # features serial
    finally:
        engine.close()
    assert doc["cells"] == tiny_doc["cells"]


def test_matrix_split_cells_hold_out_data(tiny_doc):
    split = next(c for c in tiny_doc["cells"]
                 if c["scenario"] == "split" and c["mutation_level"] == 0)
    total = tiny_doc["datasets"]["corrbench"]["n_samples"]
    assert split["n_train"] + split["n_test"] == total
    assert 0 < split["n_test"] < total


def test_matrix_mutation_level_grows_training_side_only(tiny_doc):
    by_mut = {c["mutation_level"]: c for c in tiny_doc["cells"]
              if c["scenario"] == "split"}
    assert by_mut[1]["n_train"] > by_mut[0]["n_train"]
    assert by_mut[1]["n_test"] == by_mut[0]["n_test"]
    assert (by_mut[1]["provenance"]["test_digest"]
            == by_mut[0]["provenance"]["test_digest"])


def test_matrix_generalization_deltas(tiny_doc):
    gen = tiny_doc["generalization"]
    assert len(gen) == 2                     # one cross cell per mut level
    for entry in gen:
        assert entry["train_dataset"] == "corrbench"
        assert entry["test_dataset"] == "hypre"
        if entry["intra_f1"] is not None and entry["cross_f1"] is not None:
            assert entry["delta"] == pytest.approx(
                entry["cross_f1"] - entry["intra_f1"])
        else:
            assert entry["delta"] is None


def test_matrix_static_backend_scores_held_out_split():
    """The training-free static column: no classifier fit, predictions
    sliced to the same held-out split as the learned identity cells,
    and perfect precision on this labeled suite (trusted-oracle bar)."""
    spec = MatrixSpec(train_datasets=("corrbench",),
                      test_datasets=("corrbench",),
                      methods=("static",), mutation_levels=(0,))
    doc = run_matrix(spec, _tiny_config(), profile="tiny")
    (cell,) = doc["cells"]
    assert cell["method"] == "static"
    assert cell["scenario"] == "split"
    assert cell["n_train"] == 0              # nothing is ever fitted
    assert 0 < cell["n_test"] < doc["datasets"]["corrbench"]["n_samples"]
    assert cell["per_class"]
    overall = cell["overall"]
    assert overall["support"] == cell["n_test"]
    # Zero false alarms on the correct half is the analyzer's contract;
    # precision is None only if it flagged nothing at all.
    if overall["precision"] is not None:
        assert overall["precision"] == 1.0
    prov = cell["provenance"]
    assert prov["train_digest"] == "static:untrained"
    assert len(prov["test_digest"]) == 64


def test_cell_payload_survives_empty_mutant_keep_list():
    """No mutant of a train-side origin → augmentation is a clean no-op
    (take() must never see an empty float index array)."""
    import numpy as np

    from repro.datasets.loader import Dataset, Sample
    from repro.datasets.mutation import Mutant
    from repro.eval.matrix import CellSpec, _cell_payload, _MethodFeatures

    def mk(name, label):
        return Sample(name=name, source=f"int {name.split('.')[0]};",
                      label=label, suite="MBI")

    ds = Dataset("T", [mk("a.c", "Correct"), mk("b.c", "Call Ordering"),
                       mk("c.c", "Correct"), mk("d.c", "Call Ordering")])
    held_out_mutant = Mutant(sample=mk("Mutant-drop_call-c.c",
                                       "Call Ordering"),
                             operator="drop_call", origin="c.c")
    mf = _MethodFeatures("ir2vec", None, "decision-tree", None,
                         per_dataset={"t": np.arange(8.0).reshape(4, 2)},
                         per_mutants={("t", 1): np.ones((1, 2))})
    spec = MatrixSpec(train_datasets=("t",), test_datasets=("t",),
                      mutation_levels=(0, 1))
    payload = _cell_payload(
        CellSpec("t", "t", "ir2vec", 1), spec, ReproConfig.smoke(),
        {"t": ds}, {"t": ([0, 1], [2, 3])},      # origin c.c held out
        {("t", 1): [held_out_mutant]}, mf)
    assert payload["y_train"] == ["Correct", "Incorrect"]   # no mutants
    assert payload["X_train"].shape == (2, 2)
    on_train = _cell_payload(
        CellSpec("t", "t", "ir2vec", 1), spec, ReproConfig.smoke(),
        {"t": ds}, {"t": ([2, 3], [0, 1])},      # origin c.c on train side
        {("t", 1): [held_out_mutant]}, mf)
    assert on_train["y_train"] == ["Correct", "Incorrect", "Incorrect"]
    assert on_train["X_train"].shape == (3, 2)


def test_matrix_artifact_roundtrip(tiny_doc, tmp_path):
    path = str(tmp_path / "EVAL_matrix.json")
    save_matrix_artifact(tiny_doc, path)
    loaded = load_matrix_artifact(path)
    assert loaded == json.loads(json.dumps(tiny_doc))  # JSON-stable


def test_matrix_warm_rerun_does_zero_recompiles(tmp_path):
    spec = MatrixSpec(train_datasets=("corrbench",),
                      test_datasets=("corrbench",),
                      methods=("ir2vec",), mutation_levels=(0, 1))
    cache_dir = str(tmp_path / "cache")
    cold_cfg = _tiny_config(corr_subsample=20, cache_dir=cache_dir)
    cold = run_matrix(spec, cold_cfg, profile="tiny")
    warm_cfg = _tiny_config(corr_subsample=20, cache_dir=cache_dir)
    warm = run_matrix(spec, warm_cfg, profile="tiny")
    stats = warm_cfg.engine().stats
    assert stats, "persistent store saw no traffic"
    for stage, counters in stats.items():
        assert counters.misses == 0, (stage, counters)
        assert counters.hits > 0, (stage, counters)
    # And the warm artifact is identical up to provenance-free content.
    assert [c["overall"] for c in warm["cells"]] == \
        [c["overall"] for c in cold["cells"]]
    assert [c["provenance"] for c in warm["cells"]] == \
        [c["provenance"] for c in cold["cells"]]


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def test_schema_accepts_real_artifact(tiny_doc):
    validate_kind(EVAL_MATRIX.name, tiny_doc)   # must not raise


def test_schema_rejects_missing_key(tiny_doc):
    doc = copy.deepcopy(tiny_doc)
    del doc["cells"][0]["per_class"]
    with pytest.raises(SchemaError) as exc:
        validate_kind(EVAL_MATRIX.name, doc)
    assert "per_class" in str(exc.value)


def test_schema_rejects_wrong_type(tiny_doc):
    doc = copy.deepcopy(tiny_doc)
    doc["cells"][0]["overall"]["f1"] = "0.9"
    with pytest.raises(SchemaError) as exc:
        validate_kind(EVAL_MATRIX.name, doc)
    assert ".f1" in str(exc.value)


def test_schema_rejects_duplicate_cells_and_bad_version(tiny_doc):
    doc = copy.deepcopy(tiny_doc)
    doc["cells"].append(copy.deepcopy(doc["cells"][0]))
    with pytest.raises(SchemaError):
        validate_kind(EVAL_MATRIX.name, doc)
    doc = copy.deepcopy(tiny_doc)
    doc["schema_version"] = 99
    with pytest.raises(SchemaError):
        validate_kind(EVAL_MATRIX.name, doc)


def test_schema_allows_null_metrics(tiny_doc):
    doc = copy.deepcopy(tiny_doc)
    doc["cells"][0]["overall"]["f1"] = None
    validate_kind(EVAL_MATRIX.name, doc)


# ---------------------------------------------------------------------------
# Compare gate
# ---------------------------------------------------------------------------

def test_compare_identity_passes(tiny_doc):
    result = compare_artifacts(tiny_doc, tiny_doc)
    assert result.passed
    assert not result.regressions
    assert result.checked_cells == len(tiny_doc["cells"])


def test_compare_flags_overall_f1_drop(tiny_doc):
    cand = copy.deepcopy(tiny_doc)
    victim = next(c for c in cand["cells"]
                  if c["overall"]["f1"] is not None)
    victim["overall"]["f1"] -= 0.5
    result = compare_artifacts(tiny_doc, cand,
                               CompareThresholds(max_f1_drop=0.1))
    assert not result.passed
    assert any(r.scope == "overall" and r.cell_id == victim["id"]
               for r in result.regressions)


def test_compare_flags_per_class_drop_with_class_threshold(tiny_doc):
    base = copy.deepcopy(tiny_doc)
    cell = base["cells"][0]
    cls = next(iter(cell["per_class"]))
    cell["per_class"][cls].update(f1=0.9, support=10)
    cand = copy.deepcopy(base)
    next(c for c in cand["cells"]
         if c["id"] == cell["id"])["per_class"][cls]["f1"] = 0.7
    strict = compare_artifacts(base, cand, CompareThresholds(
        max_f1_drop=0.5, per_class={cls: 0.1}, min_support=1))
    assert not strict.passed
    assert any(r.scope == cls for r in strict.regressions)
    lenient = compare_artifacts(base, cand, CompareThresholds(
        max_f1_drop=0.5, per_class={cls: 0.3}, min_support=1))
    assert lenient.passed


def test_compare_null_baseline_gates_nothing(tiny_doc):
    base = copy.deepcopy(tiny_doc)
    for cell in base["cells"]:
        cell["overall"]["f1"] = None
        for metrics in cell["per_class"].values():
            metrics["f1"] = None
    cand = copy.deepcopy(tiny_doc)
    result = compare_artifacts(base, cand)
    assert result.passed
    assert result.checked_cells == len(base["cells"])
    assert all(s["reason"] == "baseline f1 undefined"
               for s in result.skipped)


def test_compare_defined_to_null_is_a_regression(tiny_doc):
    base = copy.deepcopy(tiny_doc)
    cell = next(c for c in base["cells"] if c["overall"]["f1"] is not None)
    cand = copy.deepcopy(base)
    next(c for c in cand["cells"]
         if c["id"] == cell["id"])["overall"]["f1"] = None
    result = compare_artifacts(base, cand)
    assert not result.passed
    assert any("null" in r.reason for r in result.regressions)


def test_compare_missing_cell_is_a_regression(tiny_doc):
    cand = copy.deepcopy(tiny_doc)
    cand["cells"] = cand["cells"][1:]
    cand["generalization"] = []
    result = compare_artifacts(tiny_doc, cand)
    assert not result.passed
    assert any(r.scope == "cell" for r in result.regressions)


def test_compare_missing_low_support_class_is_skipped_not_gated(tiny_doc):
    base = copy.deepcopy(tiny_doc)
    cell = base["cells"][0]
    low_cls = next(cls for cls, m in cell["per_class"].items()
                   if m["support"] == 1)
    cell["per_class"][low_cls]["f1"] = 0.9       # defined but support 1
    cand = copy.deepcopy(base)
    del next(c for c in cand["cells"]
             if c["id"] == cell["id"])["per_class"][low_cls]
    # Below min_support the vanished class is noise → skipped…
    result = compare_artifacts(base, cand,
                               CompareThresholds(min_support=2))
    assert not any(r.scope == low_cls for r in result.regressions)
    assert any(s["scope"] == low_cls for s in result.skipped)
    # …at min_support 1 the disappearance is a real coverage loss.
    strict = compare_artifacts(base, cand,
                               CompareThresholds(min_support=1))
    assert any(r.scope == low_cls and "missing" in r.reason
               for r in strict.regressions)


def test_compare_low_support_classes_skipped(tiny_doc):
    cand = copy.deepcopy(tiny_doc)
    # Tank every class with support 1 — below min_support they must be
    # skipped, not gated.
    for cell in cand["cells"]:
        for metrics in cell["per_class"].values():
            if metrics["support"] == 1 and metrics["f1"] is not None:
                metrics["f1"] = 0.0
    result = compare_artifacts(tiny_doc, cand,
                               CompareThresholds(max_f1_drop=1.1,
                                                 min_support=2))
    assert result.passed


def test_parse_class_thresholds():
    from repro.eval.compare import parse_class_thresholds

    assert parse_class_thresholds(["Call Ordering=0.1", "A=0.2"]) == {
        "Call Ordering": 0.1, "A": 0.2}
    with pytest.raises(ValueError):
        parse_class_thresholds(["no-equals"])
    with pytest.raises(ValueError):
        parse_class_thresholds(["A=abc"])


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def test_render_matrix_and_generalization(tiny_doc):
    from repro.eval.reporting import render_generalization, render_matrix

    text = render_matrix(tiny_doc)
    assert "Evaluation matrix" in text and "hypre" in text
    gen = render_generalization(tiny_doc)
    assert "Cross-dataset generalization" in gen


def test_render_compare_verdicts(tiny_doc):
    from repro.eval.reporting import render_compare

    passing = compare_artifacts(tiny_doc, tiny_doc)
    assert "PASS" in render_compare(passing)
    cand = copy.deepcopy(tiny_doc)
    cand["cells"] = cand["cells"][1:]
    failing = compare_artifacts(tiny_doc, cand)
    assert "FAIL" in render_compare(failing)
    assert "REGRESSION" in render_compare(failing)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_eval_matrix_and_compare_roundtrip(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    # The smoke profile's grid, shrunk to one train suite via overrides;
    # _tiny-style GA keeps the in-process run quick.
    monkeypatch.setattr(ReproConfig, "smoke", staticmethod(_tiny_config))
    out_path = str(tmp_path / "EVAL_matrix.json")
    rc = main(["eval", "matrix", "--profile", "smoke",
               "--train", "corrbench", "--test", "corrbench,hypre",
               "--methods", "ir2vec", "--mutation-levels", "0",
               "-o", out_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Evaluation matrix" in out and "wrote 2 cells" in out
    doc = load_matrix_artifact(out_path)
    assert {c["scenario"] for c in doc["cells"]} == {"split", "cross"}

    # Identity comparison exits zero…
    assert main(["eval", "compare", out_path, "--baseline", out_path]) == 0
    assert "PASS" in capsys.readouterr().out

    # …a tanked class F1 exits non-zero…
    tanked = copy.deepcopy(doc)
    for cell in tanked["cells"]:
        if cell["overall"]["f1"] is not None:
            cell["overall"]["f1"] = max(0.0, cell["overall"]["f1"] - 0.9)
        for metrics in cell["per_class"].values():
            if metrics["f1"] is not None:
                metrics["f1"] = 0.0
    bad_path = str(tmp_path / "EVAL_bad.json")
    save_matrix_artifact(tanked, bad_path)
    rc = main(["eval", "compare", bad_path, "--baseline", out_path,
               "--min-support", "1", "--json"])
    assert rc == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] is False
    assert verdict["regressions"]

    # …and a schema-invalid artifact is a usage error (exit 2).
    broken = str(tmp_path / "broken.json")
    with open(broken, "w", encoding="utf-8") as fh:
        json.dump({"kind": "nonsense"}, fh)
    assert main(["eval", "compare", broken, "--baseline", out_path]) == 2


def test_cli_eval_matrix_rejects_bad_mutation_levels(tmp_path, capsys):
    from repro.cli import main

    rc = main(["eval", "matrix", "--mutation-levels", "x,y",
               "-o", str(tmp_path / "out.json")])
    assert rc == 1
    assert "mutation-levels" in capsys.readouterr().err
