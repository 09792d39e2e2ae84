"""Evaluation metrics (paper Table I).

The first block are the usual classification metrics; the second are
MBI-defined tool metrics that additionally account for codes a tool fails
to process: CE (compilation errors), TO (timeouts), RE (runtime errors).

Note: the paper's Table I defines Specificity as ``1 - TN/(TN+FP)`` —
that formula as printed is the false-positive *rate*; the values the
paper reports (e.g. ITAC 0.995, PARCOACH 0.088) are consistent with the
conventional specificity ``TN/(TN+FP)``, which is what we compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0
    ce: int = 0      # compilation errors
    to: int = 0      # timeouts
    re: int = 0      # runtime errors

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def errors(self) -> int:
        return self.ce + self.to + self.re

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.tn + other.tn, self.fp + other.fp,
            self.fn + other.fn, self.ce + other.ce, self.to + other.to,
            self.re + other.re,
        )


@dataclass
class MetricReport:
    counts: ConfusionCounts
    recall: float = 0.0
    precision: float = 0.0
    f1: float = 0.0
    accuracy: float = 0.0
    coverage: float = 0.0
    conclusiveness: float = 0.0
    specificity: float = 0.0
    overall_accuracy: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        c = self.counts
        return {
            "TP": c.tp, "TN": c.tn, "FP": c.fp, "FN": c.fn,
            "CE": c.ce, "TO": c.to, "RE": c.re,
            "Recall": self.recall, "Precision": self.precision,
            "F1": self.f1, "Accuracy": self.accuracy,
            "Coverage": self.coverage, "Conclusiveness": self.conclusiveness,
            "Specificity": self.specificity,
            "OverallAccuracy": self.overall_accuracy,
        }


def compute_metrics(counts: ConfusionCounts) -> MetricReport:
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    total = counts.total
    errors = counts.errors
    denom_all = total + errors

    def safe(num: float, den: float) -> float:
        return num / den if den else 0.0

    recall = safe(tp, tp + fn)
    precision = safe(tp, tp + fp)
    f1 = safe(2 * precision * recall, precision + recall)
    return MetricReport(
        counts=counts,
        recall=recall,
        precision=precision,
        f1=f1,
        accuracy=safe(tp + tn, total),
        coverage=1.0 - safe(counts.ce, denom_all),
        conclusiveness=1.0 - safe(errors, denom_all),
        specificity=safe(tn, tn + fp),
        overall_accuracy=safe(tp + tn, denom_all),
    )


def confusion_from_predictions(y_true: Sequence[str], y_pred: Sequence[str],
                               positive: str = "Incorrect") -> ConfusionCounts:
    """Binary confusion counts; 'positive' = a code containing an error."""
    counts = ConfusionCounts()
    for truth, pred in zip(y_true, y_pred):
        truth_pos = truth == positive
        pred_pos = pred == positive
        if truth_pos and pred_pos:
            counts.tp += 1
        elif truth_pos:
            counts.fn += 1
        elif pred_pos:
            counts.fp += 1
        else:
            counts.tn += 1
    return counts


def per_label_accuracy(labels: Sequence[str], y_true: Sequence[str],
                       y_pred: Sequence[str]) -> Dict[str, float]:
    """Fraction of samples of each true label predicted exactly (Fig. 6)."""
    totals: Dict[str, int] = {}
    hits: Dict[str, int] = {}
    for truth, pred in zip(y_true, y_pred):
        totals[truth] = totals.get(truth, 0) + 1
        if truth == pred:
            hits[truth] = hits.get(truth, 0) + 1
    return {lbl: hits.get(lbl, 0) / totals[lbl] for lbl in labels if lbl in totals}


def per_label_support(labels: Sequence[str],
                      y_true: Sequence[str]) -> Dict[str, int]:
    """Validation-sample count per true label.

    Accuracy estimates on a handful of samples are noise; shape
    assertions over Fig. 6/8-style series should only consider labels
    whose support clears a threshold.
    """
    totals: Dict[str, int] = {}
    for truth in y_true:
        totals[truth] = totals.get(truth, 0) + 1
    return {lbl: totals[lbl] for lbl in labels if lbl in totals}


# ---------------------------------------------------------------------------
# Null-safe metric core (shared by scenarios, the evaluation matrix, and
# artifact comparison).
#
# ``compute_metrics`` above reports 0.0 for undefined ratios, which is the
# right convention for rendering the paper's tables but ambiguous for
# machine comparison: "F1 = 0.0" can mean "detected nothing" or "nothing
# to detect".  The functions below keep the distinction — an undefined
# metric is ``None`` (serialized as JSON ``null``) and never conflated
# with a true zero, so regression gates can skip it instead of failing.
# ---------------------------------------------------------------------------

def safe_ratio(num: float, den: float) -> Optional[float]:
    """``num / den``, or ``None`` when the ratio is undefined."""
    return num / den if den else None


def binary_summary(y_true: Sequence[str], y_pred: Sequence[str],
                   positive: str = "Incorrect") -> Dict[str, Optional[float]]:
    """Confusion counts plus null-safe P/R/F1/accuracy for binary labels.

    An empty prediction set yields counts of zero and every derived
    metric ``None`` — callers (matrix cells with an empty test set, a
    class with no samples) must survive that, not divide by zero.
    """
    counts = confusion_from_predictions(y_true, y_pred, positive)
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    precision = safe_ratio(tp, tp + fp)
    recall = safe_ratio(tp, tp + fn)
    if precision is None or recall is None:
        f1: Optional[float] = None
    else:
        f1 = safe_ratio(2 * precision * recall, precision + recall)
        # Defined precision and recall that are both zero give a 0/0 F1:
        # the detector found nothing and everything it said was wrong.
        if f1 is None:
            f1 = 0.0
    return {
        "TP": tp, "TN": tn, "FP": fp, "FN": fn,
        "precision": precision, "recall": recall, "f1": f1,
        "accuracy": safe_ratio(tp + tn, counts.total),
        "support": len(list(y_true)),
    }


def per_class_binary_report(
        y_true_classes: Sequence[str], y_pred: Sequence[str],
        classes: Optional[Sequence[str]] = None,
        correct_label: str = "Correct",
        positive: str = "Incorrect",
) -> Dict[str, Dict[str, Optional[float]]]:
    """Per-error-class P/R/F1 of a *binary* detector.

    ``y_true_classes`` carries the fine-grained ground-truth label of each
    test sample (error class, or ``correct_label``); ``y_pred`` the binary
    verdicts.  For every error class ``c`` the detector is scored on the
    one-vs-rest restriction {samples of class c} ∪ {correct samples}: TP =
    class-c samples flagged, FN = class-c samples missed, FP = correct
    samples flagged.  That keeps precision meaningful per class while the
    recall is exactly the class detection rate.

    Passing ``classes`` pins the report's keys: classes absent from the
    test set appear with ``support`` 0 and every metric ``None`` (never a
    crash, never a fake zero).  Without it, the classes present in
    ``y_true_classes`` (minus ``correct_label``) are reported.
    """
    y_true_classes = list(y_true_classes)
    y_pred = list(y_pred)
    if len(y_true_classes) != len(y_pred):
        raise ValueError(
            f"ground truth and predictions disagree on length "
            f"({len(y_true_classes)} vs {len(y_pred)})")
    if classes is None:
        classes = sorted({c for c in y_true_classes if c != correct_label})
    correct_idx = [i for i, c in enumerate(y_true_classes)
                   if c == correct_label]
    report: Dict[str, Dict[str, Optional[float]]] = {}
    for cls in classes:
        cls_idx = [i for i, c in enumerate(y_true_classes) if c == cls]
        idx = cls_idx + correct_idx
        summary = binary_summary(
            [positive if y_true_classes[i] == cls else correct_label
             for i in idx],
            [y_pred[i] for i in idx], positive)
        summary["support"] = len(cls_idx)
        if not cls_idx:
            # Zero-sample class: nothing to detect, all metrics undefined
            # (precision could technically be computed against the correct
            # samples alone, but a score for a class with no instances is
            # noise a gate must not act on).
            summary.update(precision=None, recall=None, f1=None,
                           accuracy=None)
        report[cls] = summary
    return report
