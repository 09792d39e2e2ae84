"""Null-safe metric core edge cases (evaluation-matrix contract).

The matrix artifact must report ``null`` — never crash, never divide by
zero, never fake a 0.0 — for: an error class with zero test samples, a
single-sample class, and a cell whose test set is empty.
"""

import numpy as np

from repro.ml.metrics import (
    binary_summary,
    compute_metrics,
    confusion_from_predictions,
    per_class_binary_report,
    safe_ratio,
)


def test_safe_ratio_undefined_is_none():
    assert safe_ratio(1, 2) == 0.5
    assert safe_ratio(0, 0) is None
    assert safe_ratio(5, 0) is None


def test_binary_summary_empty_test_set_is_all_null():
    summary = binary_summary([], [])
    assert summary["TP"] == summary["TN"] == summary["FP"] == summary["FN"] == 0
    assert summary["support"] == 0
    assert summary["precision"] is None
    assert summary["recall"] is None
    assert summary["f1"] is None
    assert summary["accuracy"] is None


def test_binary_summary_no_positives_predicted():
    # All-correct ground truth, nothing flagged: precision is undefined
    # (TP+FP = 0) and so are recall and F1 — but accuracy is 1.0.
    summary = binary_summary(["Correct"] * 4, ["Correct"] * 4)
    assert summary["precision"] is None
    assert summary["recall"] is None
    assert summary["f1"] is None
    assert summary["accuracy"] == 1.0


def test_binary_summary_defined_zero_f1_is_zero_not_null():
    # One miss, one false alarm: precision and recall are both a true
    # 0.0, so F1 is a true 0.0 — distinct from "undefined".
    summary = binary_summary(["Incorrect", "Correct"],
                             ["Correct", "Incorrect"])
    assert summary["precision"] == 0.0
    assert summary["recall"] == 0.0
    assert summary["f1"] == 0.0


def test_binary_summary_matches_compute_metrics_when_defined():
    y_true = ["Incorrect", "Incorrect", "Correct", "Correct", "Incorrect"]
    y_pred = ["Incorrect", "Correct", "Correct", "Incorrect", "Incorrect"]
    summary = binary_summary(y_true, y_pred)
    report = compute_metrics(confusion_from_predictions(y_true, y_pred))
    assert summary["precision"] == report.precision
    assert summary["recall"] == report.recall
    assert summary["f1"] == report.f1
    assert summary["accuracy"] == report.accuracy


def test_per_class_zero_sample_class_reports_null():
    report = per_class_binary_report(
        ["Correct", "Call Ordering"], ["Correct", "Incorrect"],
        classes=["Call Ordering", "Resource Leak"])
    ghost = report["Resource Leak"]
    assert ghost["support"] == 0
    assert ghost["precision"] is None
    assert ghost["recall"] is None
    assert ghost["f1"] is None


def test_per_class_single_sample_class():
    report = per_class_binary_report(
        ["Message Race", "Correct"], ["Incorrect", "Correct"])
    race = report["Message Race"]
    assert race["support"] == 1
    assert race["recall"] == 1.0        # the lone sample was detected
    assert race["precision"] == 1.0     # and no correct code was flagged
    assert race["f1"] == 1.0


def test_per_class_one_vs_rest_restriction():
    # Class A's precision is computed against {A samples} + {correct},
    # never against other error classes' samples.
    y_classes = ["A", "A", "B", "Correct", "Correct"]
    y_pred = ["Incorrect", "Correct", "Incorrect", "Incorrect", "Correct"]
    report = per_class_binary_report(y_classes, y_pred)
    a = report["A"]
    assert a["support"] == 2
    assert a["TP"] == 1 and a["FN"] == 1          # one of two A's caught
    assert a["FP"] == 1                           # one correct flagged
    assert a["recall"] == 0.5
    assert a["precision"] == 0.5
    b = report["B"]
    assert b["support"] == 1 and b["recall"] == 1.0


def test_per_class_empty_test_set():
    report = per_class_binary_report([], [], classes=["A"])
    assert report["A"]["support"] == 0
    assert report["A"]["f1"] is None


def test_per_class_defaults_to_observed_classes():
    report = per_class_binary_report(
        ["B", "A", "Correct"], ["Incorrect", "Correct", "Correct"])
    assert sorted(report) == ["A", "B"]       # correct label never a class


def test_per_class_rejects_mismatched_lengths():
    import pytest

    with pytest.raises(ValueError):
        per_class_binary_report(["A", "Correct"], ["Incorrect"])


def test_matrix_cell_with_empty_test_set_survives():
    from repro.eval.matrix import _score_cell

    result = _score_cell({"y_test": [], "test_classes": [],
                          "class_names": ["Call Ordering"]}, None)
    assert result["overall"]["f1"] is None
    assert result["overall"]["support"] == 0
    assert result["per_class"]["Call Ordering"]["f1"] is None


def test_matrix_cell_with_empty_train_set_reports_null_not_crash():
    from repro.datasets.loader import Dataset, Sample
    from repro.eval import MatrixSpec, ReproConfig
    from repro.eval.matrix import (
        CellSpec,
        _cell_payload,
        _MethodFeatures,
        _score_cell,
    )

    test = Dataset("t", [Sample("a.c", "int a;", "Call Ordering", "MBI"),
                         Sample("b.c", "int b;", "Correct", "MBI")])
    mf = _MethodFeatures("ir2vec", None, "decision-tree", None,
                         per_dataset={"e": np.zeros((0, 4)),
                                      "t": np.zeros((2, 4))})
    payload = _cell_payload(
        CellSpec("e", "t", "ir2vec", 0),
        MatrixSpec(train_datasets=("e",), test_datasets=("t",)),
        ReproConfig.smoke(), {"e": Dataset("e", []), "t": test}, {}, mf)
    assert payload["jobs"] == []          # nothing to fit
    result = _score_cell(
        dict(payload, class_names=["Call Ordering", "Message Race"]), None)
    # No model could be fit: scores are null, but supports still count
    # the (non-empty) test side honestly.
    assert result["overall"]["f1"] is None
    assert result["overall"]["support"] == 2
    assert result["per_class"]["Call Ordering"]["support"] == 1
    assert result["per_class"]["Call Ordering"]["f1"] is None
    assert result["per_class"]["Message Race"]["support"] == 0
