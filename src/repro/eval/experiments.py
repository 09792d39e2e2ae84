"""One driver per paper artifact (tables II–VI, figures 1–3 and 6–9).

:data:`EXPERIMENTS` maps every name ``repro experiment`` accepts to its
driver (``ReproConfig`` → structured result) and its renderer (result →
text).  The CLI prints ``render(run(config))``; the pytest-benchmark
harness under ``benchmarks/`` runs the same drivers and emits through the
same renderers.  docs/experiments.md maps each name to the paper.

Tables II, III and V and Fig. 7's learned bars are evaluation-matrix
grids whose cell docs the drivers turn into rows.  The other learned
drivers hand their fits, as :class:`~repro.eval.scenarios.FitJob` items,
to :func:`~repro.eval.scenarios.fit_all` or
:func:`~repro.eval.scenarios.cross_validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.labels import CORR_LABELS, CORRECT, MBI_LABELS
from repro.engine import default_engine
from repro.eval.config import ReproConfig
from repro.eval.matrix import NO_GA_METHOD, MatrixSpec, cell_report, run_matrix
from repro.eval.reporting import render_series, render_table
from repro.eval.scenarios import (
    FitJob,
    accuracy,
    binary_labels,
    cross_validate,
    featurize,
    fit_all,
    folds,
    run_pair_ablation,
    run_single_ablation,
    stage_specs,
)
from repro.frontend import preprocess_and_count_loc
from repro.ml.metrics import (
    ConfusionCounts,
    MetricReport,
    compute_metrics,
    confusion_from_predictions,
    per_label_accuracy,
    per_label_support,
)


# ---------------------------------------------------------------------------
# Figures 1-3: dataset statistics
# ---------------------------------------------------------------------------

def fig1_error_distribution(config: ReproConfig) -> Dict[str, Dict[str, int]]:
    """Codes per error type in each suite (paper Fig. 1)."""
    out: Dict[str, Dict[str, int]] = {}
    for name, ds in (("MPI-CorrBench", config.corrbench()), ("MBI", config.mbi())):
        counts = ds.label_counts()
        counts.pop(CORRECT, None)
        out[name] = dict(sorted(counts.items(), key=lambda kv: -kv[1]))
    return out


def render_fig1(dist: Dict[str, Dict[str, int]]) -> str:
    return "\n".join(
        render_table(["label", "codes"],
                     [[label, n] for label, n in counts.items()],
                     f"Fig. 1 — {suite}")
        for suite, counts in dist.items())


def fig2_code_size(config: ReproConfig) -> Dict[str, Dict[str, Dict[str, float]]]:
    """LoC (after preprocessing) per label: min/median/max (paper Fig. 2)."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    suites = (("MPI-CorrBench (biased)", config.corrbench(debias=False)),
              ("MPI-CorrBench (debiased)", config.corrbench(debias=True)),
              ("MBI", config.mbi()))
    for name, ds in suites:
        per_label: Dict[str, List[int]] = {}
        for sample in ds:
            per_label.setdefault(sample.label, []).append(
                preprocess_and_count_loc(sample.source))
        out[name] = {
            label: {
                "min": float(np.min(v)), "median": float(np.median(v)),
                "max": float(np.max(v)),
            }
            for label, v in sorted(per_label.items())
        }
    return out


def render_fig2(sizes: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    return "\n".join(
        render_table(["label", "min", "median", "max"],
                     [[lbl, v["min"], v["median"], v["max"]]
                      for lbl, v in rows.items()], f"Fig. 2 — {suite}")
        for suite, rows in sizes.items())


def fig3_correct_incorrect(config: ReproConfig) -> Dict[str, Tuple[int, int]]:
    """Correct vs incorrect counts per suite (paper Fig. 3)."""
    return {
        "MBI": config.mbi().correct_incorrect_counts(),
        "MPI-CorrBench": config.corrbench().correct_incorrect_counts(),
    }


def render_fig3(counts: Dict[str, Tuple[int, int]]) -> str:
    return "\n".join(f"{suite}: correct={ok} incorrect={ko}"
                     for suite, (ok, ko) in counts.items())


# ---------------------------------------------------------------------------
# Tables II, III, V and Fig. 7: evaluation-matrix grids
# ---------------------------------------------------------------------------

_MODEL = {"ir2vec": "IR2vec", "gnn": "GNN"}
_SUITE = {"mbi": "MBI", "corrbench": "CORR", "mix": "Mix"}

#: The four (scenario, train, test) rows Tables II and V and the seeds
#: study share, in the paper's order.
_PAPER_ROWS = (("Intra", "mbi", "mbi"), ("Intra", "corrbench", "corrbench"),
               ("Cross", "mbi", "corrbench"), ("Cross", "corrbench", "mbi"))


def _cv_grid(datasets: Tuple[str, ...],
             methods: Tuple[str, ...]) -> MatrixSpec:
    """Every (train, test) pair of ``datasets``; identity cells by k folds."""
    return MatrixSpec(train_datasets=datasets, test_datasets=datasets,
                      methods=methods, mutation_levels=(0,), identity="cv")


def _reports(spec: MatrixSpec, config: ReproConfig
             ) -> Dict[Tuple[str, str, str], MetricReport]:
    """Run a grid; each cell's metrics keyed by (method, train, test)."""
    return {(c["method"], c["train_dataset"], c["test_dataset"]):
            cell_report(c) for c in run_matrix(spec, config)["cells"]}


#: Table II: both backends over MBI, CorrBench and their union.  The
#: overlap rule drops the cross cells into and out of Mix, which leaves
#: the paper's Intra, Cross and Mix rows.
TABLE2 = _cv_grid(("mbi", "corrbench", "mix"), ("ir2vec", "gnn"))
_TABLE2_ROWS = _PAPER_ROWS + (("Mix", "mix", "mix"),)

#: The accuracies the paper reports, per method in _TABLE2_ROWS order.
_TABLE2_PAPER = {"ir2vec": (0.917, 0.923, 0.860, 0.713, 0.882),
                 "gnn": (0.914, 0.803, 0.858, 0.605, 0.911)}


def table2_model_results(config: ReproConfig) -> List[dict]:
    """Reproduce Table II: every (model, scenario) row with full metrics."""
    reports = _reports(TABLE2, config)
    return [{"model": _MODEL[method], "scenario": scenario,
             "train": _SUITE[train], "val": _SUITE[test],
             **reports[(method, train, test)].as_dict(),
             "paper_accuracy": paper}
            for method in TABLE2.methods
            for (scenario, train, test), paper
            in zip(_TABLE2_ROWS, _TABLE2_PAPER[method])]


def render_table2(rows: List[dict]) -> str:
    headers = ["Model", "Scenario", "Train", "Val", "TP", "TN", "FP", "FN",
               "Recall", "Precision", "F1", "Accuracy", "Paper Acc."]
    data = [[r["model"], r["scenario"], r["train"], r["val"], r["TP"], r["TN"],
             r["FP"], r["FN"], r["Recall"], r["Precision"], r["F1"],
             r["Accuracy"], r["paper_accuracy"] if r["paper_accuracy"] else "-"]
            for r in rows]
    return render_table(headers, data, "Table II — model results")


#: ITAC / PARCOACH numbers the paper reports on MBI (Table III).
TABLE3_PAPER = {
    "ITAC": dict(CE=0, TO=157, RE=1, TP=859, TN=738, FP=4, FN=102,
                 Recall=0.894, Precision=0.995, F1=0.942, Specificity=0.995),
    "PARCOACH": dict(CE=0, TO=0, RE=0, TP=775, TN=66, FP=679, FN=341,
                     Recall=0.694, Precision=0.533, F1=0.603, Specificity=0.088),
}

#: Table III's model rows: both backends' Intra cells on MBI.
TABLE3_MODELS = _cv_grid(("mbi",), ("ir2vec", "gnn"))


def table3_tool_comparison(config: ReproConfig) -> List[dict]:
    """Reproduce Table III: detailed evaluation against MBI."""
    from repro.verify import ITACTool, ParcoachTool

    mbi = config.mbi()
    rows: List[dict] = []
    for tool in (ITACTool(nprocs=config.nprocs), ParcoachTool()):
        counts = tool.evaluate(mbi.samples)
        report = compute_metrics(counts)
        rows.append({"tool": tool.name, **report.as_dict(),
                     "paper": TABLE3_PAPER.get(tool.name)})
    reports = _reports(TABLE3_MODELS, config)
    for method in TABLE3_MODELS.methods:
        rows.append({"tool": f"{_MODEL[method]} Intra",
                     **reports[(method, "mbi", "mbi")].as_dict(),
                     "paper": None})
    # The ideal tool row.
    correct, incorrect = mbi.correct_incorrect_counts()
    ideal = compute_metrics(ConfusionCounts(tp=incorrect, tn=correct))
    rows.append({"tool": "Ideal tool", **ideal.as_dict(), "paper": None})
    return rows


def render_table3(rows: List[dict]) -> str:
    data = [[r["tool"], r["TP"], r["TN"], r["FP"], r["FN"], r["TO"],
             r["Recall"], r["Precision"], r["F1"], r["Accuracy"]]
            for r in rows]
    return render_table(["tool", "TP", "TN", "FP", "FN", "TO", "Recall",
                         "Precision", "F1", "Accuracy"], data,
                        "Table III — MBI tools")


def _bar_metrics(report: MetricReport) -> Dict[str, float]:
    return {"Recall": report.recall, "Precision": report.precision,
            "F1": report.f1, "Accuracy": report.accuracy}


#: Fig. 7's learned bars: both backends' Intra and Cross cells.
FIG7 = _cv_grid(("mbi", "corrbench"), ("ir2vec", "gnn"))


def fig7_tool_metric_bars(config: ReproConfig) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 7: Recall/Precision/F1/Accuracy per tool on both suites."""
    from repro.verify import ITACTool, MPICheckerTool, MUSTTool, ParcoachTool

    reports = _reports(FIG7, config)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for suite_name, name, other in (("MPI-CorrBench", "corrbench", "mbi"),
                                    ("MBI", "mbi", "corrbench")):
        ds = config.dataset(name)
        suite: Dict[str, Dict[str, float]] = {}
        tools = [ITACTool(nprocs=config.nprocs), ParcoachTool()]
        if name == "corrbench":
            tools += [MUSTTool(nprocs=config.nprocs), MPICheckerTool()]
        for tool in tools:
            suite[tool.name] = _bar_metrics(
                compute_metrics(tool.evaluate(ds.samples)))
        for method in FIG7.methods:
            suite[f"{_MODEL[method]} Intra"] = _bar_metrics(
                reports[(method, name, name)])
            suite[f"{_MODEL[method]} Cross"] = _bar_metrics(
                reports[(method, other, name)])
        suite["Ideal tool"] = {"Recall": 1.0, "Precision": 1.0, "F1": 1.0,
                               "Accuracy": 1.0}
        out[suite_name] = suite
    return out


def render_fig7(results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    return "\n".join(
        render_table(["tool", "Recall", "Precision", "F1", "Accuracy"],
                     [[tool, *m.values()] for tool, m in tools.items()],
                     f"Fig. 7 — {suite}")
        for suite, tools in results.items())


#: Table V: the IR2vec backend without and with the GA.
TABLE5 = _cv_grid(("mbi", "corrbench"), (NO_GA_METHOD, "ir2vec"))


def table5_ga_effect(config: ReproConfig) -> List[dict]:
    """Reproduce Table V: IR2vec Intra and Cross with and without GA."""
    reports = _reports(TABLE5, config)
    return [{"GA": "ON" if method == "ir2vec" else "OFF",
             "scenario": scenario, "train": _SUITE[train],
             "val": _SUITE[test], **reports[(method, train, test)].as_dict()}
            for method in TABLE5.methods
            for scenario, train, test in _PAPER_ROWS]


def render_table5(rows: List[dict]) -> str:
    data = [[r["GA"], r["scenario"], r["train"], r["val"], r["Accuracy"]]
            for r in rows]
    return render_table(["GA", "scenario", "train", "val", "Accuracy"],
                        data, "Table V")


# ---------------------------------------------------------------------------
# Table IV: compilation & normalization options
# ---------------------------------------------------------------------------

def _report(y_true: Sequence[str], y_pred: Sequence[str]) -> MetricReport:
    return compute_metrics(confusion_from_predictions(y_true, y_pred))


def table4_options(config: ReproConfig) -> List[dict]:
    """Reproduce Table IV: IR2vec Intra × compiler option × normalization."""
    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs("ir2vec", config)
    suites = {"MBI": config.mbi(), "CORR": config.corrbench()}
    opts, norms = ("O0", "O2", "Os"), ("none", "vector", "index")
    features = {(name, opt): featurize(feat_name,
                                       replace(feat_cfg, opt_level=opt), ds)
                for name, ds in suites.items() for opt in opts}
    grid = [(name, norm, opt) for name in suites
            for norm in norms for opt in opts]
    pooled = cross_validate(config, [
        (suites[name], features[(name, opt)], binary_labels(suites[name]),
         clf_name, replace(clf_cfg, normalization=norm))
        for name, norm, opt in grid])
    return [{"dataset": name, "normalization": norm, "opt": f"-{opt}",
             **_report(y_true, y_pred).as_dict()}
            for (name, norm, opt), (y_true, y_pred) in zip(grid, pooled)]


def render_table4(rows: List[dict]) -> str:
    data = [[r["dataset"], r["normalization"], r["opt"], r["Recall"],
             r["Precision"], r["F1"], r["Accuracy"]] for r in rows]
    return render_table(["dataset", "norm", "opt", "Recall", "Precision",
                         "F1", "Accuracy"], data, "Table IV")


# ---------------------------------------------------------------------------
# Fig. 6: per-label prediction accuracy (multi-class, MBI)
# ---------------------------------------------------------------------------

def fig6_per_label_with_support(
        config: ReproConfig) -> Tuple[Dict[str, float], Dict[str, int]]:
    """IR2vec per-label accuracy on MBI (multi-class labels), plus the
    validation support per label, both keyed by the plain-``str`` label.

    Support matters when shape-checking the series: a subsampled profile
    can leave a rare label (Resource Leak has 14 instances even at paper
    scale) with one or two validation samples, where accuracy is noise.
    """
    mbi = config.mbi()
    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs("ir2vec", config)
    type_labels = np.array([s.label for s in mbi.samples])
    ((y_true, y_pred),) = cross_validate(config, [
        (mbi, featurize(feat_name, feat_cfg, mbi), type_labels,
         clf_name, clf_cfg)])
    all_labels = sorted({s.label for s in mbi.samples})
    return (per_label_accuracy(all_labels, y_true, y_pred),
            per_label_support(all_labels, y_true))


def render_fig6(result: Tuple[Dict[str, float], Dict[str, int]]) -> str:
    acc, support = result
    return (render_series(acc, title="Fig. 6 — per-label accuracy (MBI)")
            + f"\nsupport: {dict(sorted(support.items()))}")


# ---------------------------------------------------------------------------
# Figs. 8 / 9: ablations
# ---------------------------------------------------------------------------

def fig8_single_ablation(config: ReproConfig) -> Dict[str, Dict[str, float]]:
    return {
        "MPI-CorrBench": run_single_ablation(config.corrbench(), config,
                                             CORR_LABELS),
        "MBI": run_single_ablation(config.mbi(), config, MBI_LABELS),
    }


def render_fig8(result: Dict[str, Dict[str, float]]) -> str:
    return "\n".join(render_series(accs, title=f"Fig. 8 — {suite}")
                     for suite, accs in result.items())


#: The pairings visible in Fig. 9 (CorrBench; first excluded + second excluded).
FIG9_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("MissingCall", "ArgError"),
    ("MissingCall", "ArgMismatch"),
    ("MissingCall", "MissplacedCall"),
    ("MissplacedCall", "ArgError"),
    ("MissplacedCall", "ArgMismatch"),
    ("ArgMismatch", "ArgError"),
)


def fig9_pair_ablation(config: ReproConfig) -> Dict[Tuple[str, str], Tuple[float, float]]:
    return run_pair_ablation(config.corrbench(), config, FIG9_PAIRS)


def render_fig9(pairs: Dict[Tuple[str, str], Tuple[float, float]]) -> str:
    data = [[f"{a} + {b}", v1, v2] for (a, b), (v1, v2) in pairs.items()]
    return render_table(["pair", "1st excluded", "2nd excluded"], data,
                        "Fig. 9 — pair ablation (CorrBench)")


# ---------------------------------------------------------------------------
# Section V-A "Seeds": embedding-seed sensitivity of GA-selected features
# ---------------------------------------------------------------------------

#: Accuracy deltas the paper reports when vectors are regenerated with a
#: different IR2vec seed but the GA features selected on the original seed
#: are reused (Section V-A, "Seeds" paragraph).
SEED_STUDY_PAPER = {
    ("Intra", "MBI", "MBI"): -0.006,
    ("Intra", "CORR", "CORR"): 0.0,
    ("Cross", "MBI", "CORR"): -0.4081,
    ("Cross", "CORR", "MBI"): -0.0279,
}


def seed_sensitivity(config: ReproConfig, alt_seed: int = 1337) -> List[dict]:
    """Reproduce the paper's seed study.

    Protocol: run the GA over vectors generated with the original
    embedding seed; then regenerate vectors with ``alt_seed``, keep the
    GA-selected coordinates, retrain the decision tree, and compare
    accuracies.  The paper found Intra nearly seed-invariant but Cross
    (MBI→CorrBench in particular) brittle, because the GA coordinates are
    meaningful only in the embedding basis they were selected in.

    Round one fits every partition of the four scenarios on the
    original vectors; round two refits each partition on the reseeded
    vectors with the coordinates its round-one model selected.
    """
    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs("ir2vec", config)
    suites = {name: config.dataset(name) for name in ("mbi", "corrbench")}
    labels = {name: binary_labels(ds) for name, ds in suites.items()}
    vectors = {(name, cfg.seed): featurize(feat_name, cfg, ds)
               for name, ds in suites.items()
               for cfg in (feat_cfg, replace(feat_cfg, seed=alt_seed))}

    # (train suite, train idx, test suite, test idx) per partition.
    partitions = [
        [(train, tr, train, va) for tr, va in folds(suites[train], config)]
        if scenario == "Intra" else
        [(train, np.arange(len(suites[train])),
          test, np.arange(len(suites[test])))]
        for scenario, train, test in _PAPER_ROWS]
    flat = [part for parts in partitions for part in parts]

    def fit_round(seed: int, clf_cfgs: Sequence[Any]):
        return fit_all([
            FitJob(clf_name, cfg, vectors[(train, seed)][tr],
                   labels[train][tr], vectors[(test, seed)][va])
            for (train, tr, test, va), cfg in zip(flat, clf_cfgs)])

    original = fit_round(feat_cfg.seed, [clf_cfg] * len(flat))
    reseeded = fit_round(alt_seed, [
        replace(clf_cfg, use_ga=False, fixed_features=tuple(selected))
        for _, selected in original])

    rows: List[dict] = []
    done = 0
    for (scenario, train, test), parts in zip(_PAPER_ROWS, partitions):
        span = slice(done, done + len(parts))
        done += len(parts)
        y_true = np.concatenate([labels[test][va] for *_, va in parts])
        acc_orig, acc_reseeded = (
            accuracy(y_true, np.concatenate([p for p, _ in fits[span]]))
            for fits in (original, reseeded))
        key = (scenario, _SUITE[train], _SUITE[test])
        rows.append({
            "scenario": scenario, "train": key[1], "val": key[2],
            "acc_original": acc_orig, "acc_reseeded": acc_reseeded,
            "delta": acc_reseeded - acc_orig,
            "paper_delta": SEED_STUDY_PAPER[key],
        })
    return rows


def render_seed_study(rows: List[dict]) -> str:
    headers = ["Scenario", "Train", "Val", "Acc (orig seed)",
               "Acc (new seed)", "Delta", "Paper delta"]
    data = [[r["scenario"], r["train"], r["val"], r["acc_original"],
             r["acc_reseeded"], r["delta"], r["paper_delta"]] for r in rows]
    return render_table(headers, data,
                        "Seed study — GA features reused across embedding seeds")


# ---------------------------------------------------------------------------
# Design-choice ablations (choices the paper fixed; docs/experiments.md)
# ---------------------------------------------------------------------------

def ir2vec_encoding_ablation(config: ReproConfig) -> List[dict]:
    """Symbolic-only vs flow-aware-only vs the paper's concatenation.

    The paper concatenates both encodings "because the cost of inferring
    the embedding is negligible".  This ablation quantifies what each
    half contributes: per suite, Intra CV accuracy when the DT (with GA)
    only sees the symbolic 256-d half, only the flow-aware half, or the
    full 512-d concatenation.
    """
    dim = 256
    slices = {
        "symbolic": slice(0, dim),
        "flow-aware": slice(dim, 2 * dim),
        "concat (paper)": slice(0, 2 * dim),
    }
    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs("ir2vec", config)
    runs, grid = [], []
    for suite in ("MBI", "CORR"):
        ds = config.dataset(suite)
        X_full = featurize(feat_name, feat_cfg, ds)
        for encoding, sl in slices.items():
            runs.append((ds, X_full[:, sl], binary_labels(ds),
                         clf_name, clf_cfg))
            grid.append((suite, encoding, sl))
    return [{"suite": suite, "encoding": encoding,
             "dim": sl.stop - sl.start, "accuracy": accuracy(y_true, y_pred)}
            for (suite, encoding, sl), (y_true, y_pred)
            in zip(grid, cross_validate(config, runs))]


def gnn_design_ablation(config: ReproConfig, suite: str = "CORR") -> List[dict]:
    """GNN architecture ablations: pooling, attention, heterogeneity.

    Each variant flips exactly one of the paper's fixed choices (adaptive
    max pooling, GATv2 attention, heterogeneous edge types) and re-runs
    Intra CV with binary labels.
    """
    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs("gnn", config)
    ds = config.dataset(suite)
    graphs = featurize(feat_name, feat_cfg, ds)
    y = binary_labels(ds)

    variants = (
        ("paper (max, GATv2, hetero)", {}),
        ("mean pooling", {"pooling": "mean"}),
        ("no attention", {"attention": False}),
        ("homogeneous edges", {"hetero": False}),
    )
    pooled = cross_validate(config, [
        (ds, graphs, y, clf_name, replace(clf_cfg, **overrides))
        for _, overrides in variants])
    return [{"variant": name, "suite": suite,
             "accuracy": accuracy(y_true, y_pred),
             **{k: str(v) for k, v in overrides.items()}}
            for (name, overrides), (y_true, y_pred) in zip(variants, pooled)]


def render_encoding_ablation(rows: List[dict]) -> str:
    headers = ["Suite", "Encoding", "Dim", "Accuracy"]
    data = [[r["suite"], r["encoding"], r["dim"], r["accuracy"]] for r in rows]
    return render_table(headers, data,
                        "Ablation — IR2vec encoding halves (Intra CV)")


def render_gnn_ablation(rows: List[dict]) -> str:
    headers = ["Variant", "Suite", "Accuracy"]
    data = [[r["variant"], r["suite"], r["accuracy"]] for r in rows]
    return render_table(headers, data,
                        "Ablation — GNN architecture choices (Intra CV)")


# ---------------------------------------------------------------------------
# Extension (paper Section V-F / VI): mutation-injected bugs
# ---------------------------------------------------------------------------

def mutation_detection(config: ReproConfig, suite: str = "MBI",
                       per_sample: int = 2) -> List[dict]:
    """Detection rate of mutation-injected bugs, per operator.

    The paper proposes mutation techniques to acquire incorrect codes
    beyond the two suites.  Here we train the IR2vec detector on a suite
    (binary labels) and measure how often it flags programs whose bugs
    were injected by each mutation operator into the suite's *correct*
    codes — new incorrect programs the model has never seen.
    """
    from repro.datasets.loader import Dataset
    from repro.datasets.mutation import MutationEngine

    ds = config.dataset(suite)
    mutants = MutationEngine(seed=config.seed).mutants_of(
        ds, per_sample=per_sample)
    if not mutants:
        return []

    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs("ir2vec", config)
    mutant_ds = Dataset(f"{ds.name}-mutants", [m.sample for m in mutants])
    ((pred, _),) = fit_all([FitJob(
        clf_name, clf_cfg, featurize(feat_name, feat_cfg, ds),
        binary_labels(ds), featurize(feat_name, feat_cfg, mutant_ds))])

    rows: List[dict] = []
    by_op: Dict[str, List[int]] = {}
    for i, m in enumerate(mutants):
        by_op.setdefault(m.operator, []).append(i)
    for op, idxs in sorted(by_op.items()):
        hits = int(np.sum(pred[idxs] == "Incorrect"))
        rows.append({"operator": op, "mutants": len(idxs),
                     "detected": hits, "rate": hits / len(idxs)})
    total = len(mutants)
    detected = int(np.sum(pred == "Incorrect"))
    rows.append({"operator": "ALL", "mutants": total, "detected": detected,
                 "rate": detected / total})
    return rows


def mutation_augmented_cross(config: ReproConfig,
                             per_sample: int = 2) -> List[dict]:
    """Does mutant-augmented training help cross-suite transfer?

    Compares Cross accuracy (train one suite → validate the other) with
    and without adding mutants of the training suite's correct codes to
    the training set — the augmentation loop the paper sketches for the
    GitHub-scale setting.
    """
    from repro.datasets.mutation import MutationEngine

    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs("ir2vec", config)
    mbi = config.mbi()
    corr = config.corrbench()
    engine = MutationEngine(seed=config.seed)
    directions = [(train_ds, engine.augment(train_ds, per_sample=per_sample),
                   val_ds, train_name, val_name)
                  for train_ds, val_ds, train_name, val_name in (
                      (mbi, corr, "MBI", "CORR"), (corr, mbi, "CORR", "MBI"))]
    fits = iter(fit_all([
        FitJob(clf_name, clf_cfg, featurize(feat_name, feat_cfg, train),
               binary_labels(train), featurize(feat_name, feat_cfg, val_ds))
        for base, augmented, val_ds, _, _ in directions
        for train in (base, augmented)]))
    rows: List[dict] = []
    for base_ds, augmented_ds, val_ds, train_name, val_name in directions:
        base, augmented = (_report(binary_labels(val_ds), next(fits)[0])
                           for _ in range(2))
        rows.append({
            "train": train_name, "val": val_name,
            "n_train_base": len(base_ds), "n_train_aug": len(augmented_ds),
            "acc_base": base.accuracy, "acc_augmented": augmented.accuracy,
            "recall_base": base.recall, "recall_augmented": augmented.recall,
        })
    return rows


def render_mutation_detection(rows: List[dict], suite: str) -> str:
    headers = ["Operator", "Mutants", "Detected", "Rate"]
    data = [[r["operator"], r["mutants"], r["detected"], r["rate"]]
            for r in rows]
    return render_table(headers, data,
                        f"Mutation study — injected-bug detection ({suite})")


def render_mutation_cross(rows: List[dict]) -> str:
    headers = ["Train", "Val", "N train", "N train+mut",
               "Acc base", "Acc augmented", "Recall base", "Recall augmented"]
    data = [[r["train"], r["val"], r["n_train_base"], r["n_train_aug"],
             r["acc_base"], r["acc_augmented"], r["recall_base"],
             r["recall_augmented"]] for r in rows]
    return render_table(headers, data,
                        "Mutation study — mutant-augmented Cross transfer")


# ---------------------------------------------------------------------------
# Table VI: Hypre case study
# ---------------------------------------------------------------------------

def table6_hypre(config: ReproConfig) -> List[dict]:
    """Reproduce Table VI: cross-trained models applied to the Hypre pair."""
    from repro.datasets.hypre import hypre_pair
    from repro.pipeline import FEATURIZERS, make_frontend

    feat_name, feat_cfg, clf_name, clf_cfg = stage_specs("ir2vec", config)
    ok, ko = hypre_pair()
    featurizer = FEATURIZERS.create(feat_name, feat_cfg)
    columns: List[str] = []
    vectors: List[np.ndarray] = []
    for opt in ("O0", "O2", "Os"):
        vectors.extend(default_engine().featurize_sources(
            make_frontend("mini-c", opt_level=opt), featurizer,
            [(ok.name, ok.source), (ko.name, ko.source)]))
        columns += [f"{opt}-ok", f"{opt}-ko"]

    grid = [(train_name, features_mode)
            for train_name in ("MBI", "MPI-CorrBench")
            for features_mode in ("all", "GA")]
    suites = {"MBI": config.mbi(), "MPI-CorrBench": config.corrbench()}
    fits = fit_all([
        FitJob(clf_name, replace(clf_cfg, use_ga=features_mode == "GA"),
               featurize(feat_name, feat_cfg, suites[train_name]),
               binary_labels(suites[train_name]), np.stack(vectors))
        for train_name, features_mode in grid])

    rows: List[dict] = []
    for (train_name, features_mode), (pred, _) in zip(grid, fits):
        row = {"train": train_name, "features": features_mode}
        for col, label in zip(columns, pred):
            verdict = "ok" if label == CORRECT else "ko"
            row[col] = verdict
            row[f"{col}_hit"] = verdict == col[-2:]
        rows.append(row)
    return rows


def render_table6(rows: List[dict]) -> str:
    cols = ["O0-ok", "O2-ok", "Os-ok", "O0-ko", "O2-ko", "Os-ko"]
    headers = ["Training", "Features"] + cols
    data = []
    for r in rows:
        data.append([r["train"], r["features"]]
                    + [f"{r[c]}{'*' if r[f'{c}_hit'] else '!'}" for c in cols])
    return render_table(headers, data,
                        "Table VI — Hypre predictions (*=correct, !=wrong)")


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """A paper artifact: ``run(config)`` computes it, ``render`` prints it."""

    paper: str
    run: Callable[[ReproConfig], Any]
    render: Callable[[Any], str]


def _mutation_study(config: ReproConfig) -> Tuple[List[dict], List[dict]]:
    return mutation_detection(config, "MBI"), mutation_augmented_cross(config)


def _render_mutation_study(result: Tuple[List[dict], List[dict]]) -> str:
    detection, cross = result
    return (render_mutation_detection(detection, "MBI") + "\n"
            + render_mutation_cross(cross))


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment("Fig. 1", fig1_error_distribution, render_fig1),
    "fig2": Experiment("Fig. 2", fig2_code_size, render_fig2),
    "fig3": Experiment("Fig. 3", fig3_correct_incorrect, render_fig3),
    "fig6": Experiment("Fig. 6", fig6_per_label_with_support, render_fig6),
    "fig7": Experiment("Fig. 7", fig7_tool_metric_bars, render_fig7),
    "fig8": Experiment("Fig. 8", fig8_single_ablation, render_fig8),
    "fig9": Experiment("Fig. 9", fig9_pair_ablation, render_fig9),
    "table2": Experiment("Table II", table2_model_results, render_table2),
    "table3": Experiment("Table III", table3_tool_comparison, render_table3),
    "table4": Experiment("Table IV", table4_options, render_table4),
    "table5": Experiment("Table V", table5_ga_effect, render_table5),
    "table6": Experiment("Table VI", table6_hypre, render_table6),
    "seeds": Experiment("Section V-A (Seeds)", seed_sensitivity,
                        render_seed_study),
    "mutation": Experiment("Section V-F / VI (mutation)", _mutation_study,
                           _render_mutation_study),
    "ablation-encoding": Experiment("IR2vec encoding halves",
                                    ir2vec_encoding_ablation,
                                    render_encoding_ablation),
    "ablation-gnn": Experiment("GNN architecture choices",
                               gnn_design_ablation, render_gnn_ablation),
}
