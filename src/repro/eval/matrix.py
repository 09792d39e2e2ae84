"""Declarative evaluation matrix: the one evaluation orchestrator.

The paper's core evidence is a grid: embedding backend × train suite ×
test suite, scored per MPI error class, with cross-dataset cells (train
on MBI, test on CorrBench / the Hypre pair) measuring generalization.

* :class:`MatrixSpec` declares the axes — train dataset × test dataset ×
  method × mutation-augmentation level — and expands them into
  :class:`CellSpec` cells.
* :func:`run_matrix` extracts features once per (dataset, backend) on
  the execution engine.  Each cell expands into fit partitions; every
  partition of every cell is one :class:`~repro.eval.scenarios.FitJob`
  of a single :func:`~repro.eval.scenarios.fit_all` (one
  ``engine.map``), and each cell pools its partitions' predictions in
  partition order and scores them once.
* Every cell reports overall *and* per-error-class precision/recall/F1
  through the null-safe metric core (:mod:`repro.ml.metrics`), plus
  provenance: dataset content digests, the pipeline config hash, and
  the seed.  The result is a schema-checked ``EVAL_matrix.json`` (kind
  ``repro-eval-matrix``) that :mod:`repro.eval.compare` gates on.

Identity cells (train == test) hold out by partition: one deterministic
stratified split under ``identity="split"`` (reproducible from the
artifact alone), or the profile's k folds under ``identity="cv"`` (the
paper's Intra/Mix protocol).  Cross cells train on the full train suite
and score the full test suite; a cross cell whose train suite shares a
sample with its test suite (Mix holds every MBI and CorrBench sample)
is never emitted.  Mutation level ``L`` adds ``L`` injected-bug mutants
per correct sample to the *training* side only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import __version__
from repro.datasets.loader import Dataset, Sample, stratified_split_indices
from repro.datasets.mutation import Mutant, MutationEngine, leak_safe_indices
from repro.engine import default_engine
from repro.eval.config import ReproConfig
from repro.eval.scenarios import FitJob, fit_all, folds, stage_specs
from repro.ml.metrics import (
    ConfusionCounts,
    MetricReport,
    binary_summary,
    compute_metrics,
    per_class_binary_report,
)
from repro.models.features import featurize_dataset
from repro.pipeline import FEATURIZERS, source_digest, take

#: Bumped whenever the artifact layout changes incompatibly.
MATRIX_SCHEMA_VERSION = 1

#: Datasets that only ever appear on the test axis (too small to train on).
TEST_ONLY_DATASETS = ("hypre",)

#: How identity cells hold out: one stratified split, or the k folds.
IDENTITY_PROTOCOLS = ("split", "cv")

#: The IR2vec backend on all 512 coordinates, without the GA (Table V).
NO_GA_METHOD = "ir2vec-noga"


# ---------------------------------------------------------------------------
# Declarative grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellSpec:
    """One (train × test × method × mutation level) combination."""

    train_dataset: str
    test_dataset: str
    method: str
    mutation_level: int
    identity: str = "split"

    @property
    def scenario(self) -> str:
        return (self.identity if self.train_dataset == self.test_dataset
                else "cross")

    @property
    def cell_id(self) -> str:
        return (f"train={self.train_dataset}|test={self.test_dataset}"
                f"|method={self.method}|mut={self.mutation_level}"
                + ("|protocol=cv" if self.scenario == "cv" else ""))


@dataclass(frozen=True)
class MatrixSpec:
    """The declarative grid; profiles pick sensible default axes."""

    train_datasets: Tuple[str, ...] = ("mbi", "corrbench")
    test_datasets: Tuple[str, ...] = ("mbi", "corrbench", "hypre")
    methods: Tuple[str, ...] = ("ir2vec",)
    mutation_levels: Tuple[int, ...] = (0, 1)
    test_frac: float = 0.35
    split_seed: int = 0
    identity: str = "split"

    def __post_init__(self):
        if not self.train_datasets or not self.test_datasets:
            raise ValueError("matrix needs at least one train and one "
                             "test dataset")
        if any(level < 0 for level in self.mutation_levels):
            raise ValueError("mutation levels must be >= 0")
        for name in self.train_datasets:
            if name in TEST_ONLY_DATASETS:
                raise ValueError(f"{name!r} is test-only (too small to "
                                 "train on)")
        if self.identity not in IDENTITY_PROTOCOLS:
            raise ValueError(f"identity must be one of {IDENTITY_PROTOCOLS}, "
                             f"got {self.identity!r}")

    def cells(self, datasets: Optional[Mapping[str, Dataset]] = None
              ) -> List[CellSpec]:
        """Expand the grid in a stable, documented order.

        Given the loaded ``datasets``, a cross cell whose train suite
        shares a sample (name and source) with its test suite is left
        out: it would score samples it trained on.  The training-free
        ``static`` backend gets one cell per test dataset, at the first
        mutation level, with ``train == test`` where legal so it scores
        the same held-out partitions as the learned identity cells.
        """
        keys = {name: {(s.name, source_digest(s.source)) for s in ds}
                for name, ds in (datasets or {}).items()}

        def leaks(train: str, test: str) -> bool:
            return (train != test and train in keys and test in keys
                    and not keys[train].isdisjoint(keys[test]))

        out: List[CellSpec] = []
        for method in self.methods:
            if method == "static":
                level = self.mutation_levels[0] if self.mutation_levels \
                    else 0
                for test in self.test_datasets:
                    train = (test if test in self.train_datasets
                             else self.train_datasets[0])
                    out.append(CellSpec(train, test, method, level,
                                        self.identity))
                continue
            out.extend(CellSpec(train, test, method, level, self.identity)
                       for level in self.mutation_levels
                       for train in self.train_datasets
                       for test in self.test_datasets
                       if not leaks(train, test))
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {
            "train_datasets": list(self.train_datasets),
            "test_datasets": list(self.test_datasets),
            "methods": list(self.methods),
            "mutation_levels": list(self.mutation_levels),
            "test_frac": self.test_frac,
            "split_seed": self.split_seed,
            "identity": self.identity,
        }

    @staticmethod
    def for_profile(profile: str) -> "MatrixSpec":
        """The default grid per scaling profile.

        ``smoke`` keeps the PR gate to the IR2vec backend (plus the
        training-free static-analyzer column) and one augmentation
        step; ``fast``/``paper`` run the full grid — both learned
        backends, three mutation levels — for the nightly sweep.
        """
        if profile == "smoke":
            return MatrixSpec(methods=("ir2vec", "static"))
        return MatrixSpec(methods=("ir2vec", "gnn", "static"),
                          mutation_levels=(0, 1, 2))


# ---------------------------------------------------------------------------
# Cell partitions and scoring
# ---------------------------------------------------------------------------

def _concat_features(a: Any, b: Any) -> Any:
    """Stack two feature batches of the same kind (matrix or graph list)."""
    if isinstance(a, np.ndarray):
        if len(b) == 0:
            return a
        return np.concatenate([a, np.asarray(b)])
    return list(a) + list(b)


def _partitions(cell: CellSpec, spec: MatrixSpec, config: ReproConfig,
                train_ds: Dataset, test_ds: Dataset
                ) -> List[Tuple[List[int], List[int]]]:
    """The cell's (train, test) index partitions, in pooling order."""
    if cell.scenario == "cross":
        return [(list(range(len(train_ds))), list(range(len(test_ds))))]
    if cell.scenario == "cv":
        return [(list(tr), list(va)) for tr, va in folds(train_ds, config)]
    return [stratified_split_indices(train_ds.labels(), spec.test_frac,
                                     spec.split_seed)]


def _train_side(train_ds: Dataset, indices: List[int],
                mutants: List[Mutant]) -> Tuple[List[Sample], List[int]]:
    """A training side's samples plus its leak-safe mutants (origin on
    this side, by name and source digest), and those mutants' indices."""
    samples = [train_ds.samples[i] for i in indices]
    keep = leak_safe_indices(mutants, samples) if mutants else []
    return samples + [mutants[i].sample for i in keep], keep


@dataclass
class _MethodFeatures:
    """Features for every dataset under one embedding backend."""

    feat_name: str
    feat_cfg: Any
    clf_name: str
    clf_cfg: Any
    per_dataset: Dict[str, Any] = field(default_factory=dict)
    per_mutants: Dict[Tuple[str, int], Any] = field(default_factory=dict)


def _config_hash(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _cell_payload(cell: CellSpec, spec: MatrixSpec, config: ReproConfig,
                  datasets: Dict[str, Dataset],
                  mutant_sets: Dict[Tuple[str, int], List[Mutant]],
                  mf: Optional[_MethodFeatures],
                  static_preds: Optional[Mapping[str, List[str]]] = None,
                  ) -> Dict[str, Any]:
    """One cell's fit jobs (one per partition) and pooled scoring
    inputs.  A learned cell with an empty train or test side gets no
    jobs; the static backend's predictions come in ``y_pred``."""
    train_ds = datasets[cell.train_dataset]
    test_ds = datasets[cell.test_dataset]
    parts = _partitions(cell, spec, config, train_ds, test_ds)
    test_samples = [test_ds.samples[i] for _, test_idx in parts
                    for i in test_idx]
    payload: Dict[str, Any] = {
        "jobs": [],
        "y_test": [s.binary for s in test_samples],
        "test_classes": [s.label for s in test_samples],
        "class_names": sorted({s.label for s in test_ds.samples
                               if not s.is_correct}),
    }
    protocol = (("cv", config.folds) if cell.scenario == "cv"
                else (spec.test_frac, spec.split_seed))

    if cell.method == "static":
        # Training-free backend: the analyzer scored every sample of the
        # test dataset up front; the cell just slices the held-out side
        # so its support matches the learned identity cells exactly.
        preds = (static_preds or {})[cell.test_dataset]
        payload["y_pred"] = [preds[i] for _, test_idx in parts
                             for i in test_idx]
        trained, train_digest = [], "static:untrained"
        hashed: Tuple[Any, ...] = ("static", config.nprocs)
    else:
        mutants = mutant_sets.get((cell.train_dataset, cell.mutation_level),
                                  [])
        train_features = mf.per_dataset[cell.train_dataset]
        test_features = mf.per_dataset[cell.test_dataset]
        for train_idx, test_idx in parts:
            samples, keep = _train_side(train_ds, train_idx, mutants)
            if not samples or not test_idx:
                payload["jobs"] = []
                break
            X_train = take(train_features, train_idx)
            if keep:
                X_train = _concat_features(X_train, take(mf.per_mutants[
                    (cell.train_dataset, cell.mutation_level)], keep))
            payload["jobs"].append(FitJob(
                mf.clf_name, mf.clf_cfg, X_train,
                [s.binary for s in samples], take(test_features, test_idx)))
        # Provenance covers every sample that trains in some partition.
        trained, _ = _train_side(
            train_ds, sorted({i for tr, _ in parts for i in tr}), mutants)
        train_digest = Dataset(
            f"{train_ds.name}-train+mut{cell.mutation_level}"
            if cell.mutation_level > 0 else f"{train_ds.name}-train",
            trained).content_digest()
        hashed = (mf.feat_name, mf.feat_cfg, mf.clf_name, mf.clf_cfg,
                  cell.mutation_level)
    payload.update(n_train=len(trained), provenance={
        "train_digest": train_digest,
        "test_digest": Dataset(f"{test_ds.name}-test",
                               test_samples).content_digest(),
        "config_hash": _config_hash(*hashed, *protocol, config.seed),
        "seed": config.seed,
    })
    return payload


def _score_cell(payload: Dict[str, Any],
                y_pred: Optional[List[str]]) -> Dict[str, Any]:
    """Score a cell's pooled predictions once.  ``y_pred`` is ``None``
    when nothing could be fit or scored: a valid, fully-null cell whose
    supports still count the test side; scores are never fake zeros."""
    y_test = list(payload["y_test"])
    test_classes = list(payload["test_classes"])
    if y_pred is None:
        overall = binary_summary([], [])
        overall["support"] = len(y_test)
        per_class = {
            cls: {"TP": 0, "TN": 0, "FP": 0, "FN": 0,
                  "precision": None, "recall": None, "f1": None,
                  "accuracy": None, "support": test_classes.count(cls)}
            for cls in payload["class_names"]}
        return {"overall": overall, "per_class": per_class}
    return {"overall": binary_summary(y_test, y_pred),
            "per_class": per_class_binary_report(
                test_classes, y_pred, classes=payload["class_names"])}


def cell_report(cell: Dict[str, Any]) -> MetricReport:
    """The paper-table metrics (:class:`MetricReport`) of a cell doc."""
    overall = cell["overall"]
    return compute_metrics(ConfusionCounts(
        tp=overall["TP"], tn=overall["TN"], fp=overall["FP"],
        fn=overall["FN"]))


def _static_predict_worker(payload: Tuple[str, str, int]) -> str:
    """Static-analyzer verdict for one sample: the engine.map job body.

    A frontend rejection counts as ``Incorrect`` — the dataset labels
    broken programs as buggy, and so does the analyzer.
    """
    name, source, nprocs = payload
    from repro.verify.static.analyzer import analyze_source

    verdict, _findings = analyze_source(source, name, nprocs)
    return "Correct" if verdict == "correct" else "Incorrect"


# ---------------------------------------------------------------------------
# Matrix runner
# ---------------------------------------------------------------------------

def run_matrix(spec: MatrixSpec, config: Optional[ReproConfig] = None,
               profile: str = "custom") -> Dict[str, Any]:
    """Execute every cell of ``spec``; return the versioned artifact doc.

    Feature extraction runs once per (dataset, backend) on the process
    default engine (:func:`~repro.engine.set_default_engine` picks its
    workers and cache directory), and cells slice the shared batches,
    so adding grid axes costs classifier fits, not recompiles.  Every
    partition of every cell is one fit job of one ``engine.map``.
    """
    config = config or ReproConfig.smoke()
    engine = default_engine()

    dataset_names = sorted(set(spec.train_datasets) | set(spec.test_datasets))
    datasets: Dict[str, Dataset] = {name: config.dataset(name)
                                    for name in dataset_names}
    digests = {name: ds.content_digest() for name, ds in datasets.items()}
    cells = spec.cells(datasets)

    # Mutation augmentation: one mutant set per (train suite, level);
    # each partition admits the mutants whose ``origin`` it trains on.
    mutation = MutationEngine(seed=config.seed)
    mutant_sets: Dict[Tuple[str, int], List[Mutant]] = {}
    for name in spec.train_datasets:
        for level in spec.mutation_levels:
            if level > 0:
                mutant_sets[(name, level)] = mutation.mutants_of(
                    datasets[name], per_sample=level)

    # Training-free static backend: one verdict per sample, computed once
    # per dataset on the engine and sliced per cell — no features, no fit.
    static_preds: Dict[str, List[str]] = {}
    for name in sorted({c.test_dataset for c in cells
                        if c.method == "static"}):
        jobs = [(s.name, s.source, config.nprocs)
                for s in datasets[name].samples]
        static_preds[name] = list(engine.map(_static_predict_worker, jobs))

    # Featurize once per (backend, dataset) on the engine.
    methods: Dict[str, _MethodFeatures] = {}
    for method in spec.methods:
        if method == "static":
            continue
        mf = _MethodFeatures(*stage_specs(
            "ir2vec" if method == NO_GA_METHOD else method, config))
        if method == NO_GA_METHOD:
            mf.clf_cfg = replace(mf.clf_cfg, use_ga=False)
        featurizer = FEATURIZERS.create(mf.feat_name, mf.feat_cfg)
        for name in dataset_names:
            mf.per_dataset[name] = featurize_dataset(
                featurizer, datasets[name], engine=engine)
        for (name, level), mutants in mutant_sets.items():
            mf.per_mutants[(name, level)] = featurize_dataset(
                featurizer,
                Dataset(f"{name}-mutants-x{level}",
                        [m.sample for m in mutants]),
                engine=engine)
        methods[method] = mf

    payloads = [_cell_payload(cell, spec, config, datasets, mutant_sets,
                              methods.get(cell.method), static_preds)
                for cell in cells]
    results = iter(fit_all([job for p in payloads for job in p["jobs"]]))

    cell_docs: List[Dict[str, Any]] = []
    for cell, payload in zip(cells, payloads):
        y_pred = ([p for _ in payload["jobs"] for p in next(results)[0]]
                  if payload["jobs"] else payload.get("y_pred"))
        cell_docs.append({
            "id": cell.cell_id,
            "train_dataset": cell.train_dataset,
            "test_dataset": cell.test_dataset,
            "method": cell.method,
            "mutation_level": cell.mutation_level,
            "scenario": cell.scenario,
            "n_train": payload["n_train"],
            "n_test": len(payload["y_test"]),
            **_score_cell(payload, y_pred),
            "provenance": payload["provenance"],
        })

    doc = {
        "kind": "repro-eval-matrix",
        "schema_version": MATRIX_SCHEMA_VERSION,
        "repro_version": __version__,
        "profile": profile,
        "seed": config.seed,
        "spec": spec.as_dict(),
        "datasets": {name: {"digest": digests[name],
                            "n_samples": len(datasets[name])}
                     for name in dataset_names},
        "cells": cell_docs,
        "generalization": _generalization(cell_docs),
    }
    from repro.schema import validate_kind
    from repro.schema.kinds import EVAL_MATRIX

    validate_kind(EVAL_MATRIX.name, doc)   # never emit an invalid artifact
    return doc


def _generalization(cell_docs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Cross-dataset deltas: cross-cell F1 minus the matching identity
    cell's F1, per (method, mutation level, train dataset) — the
    train-MBI→test-CorrBench/Hypre generalization gap of the paper."""
    identity: Dict[Tuple[str, int, str], Optional[float]] = {}
    for doc in cell_docs:
        if doc["scenario"] != "cross":
            key = (doc["method"], doc["mutation_level"], doc["train_dataset"])
            identity[key] = doc["overall"]["f1"]
    out: List[Dict[str, Any]] = []
    for doc in cell_docs:
        if doc["scenario"] != "cross":
            continue
        key = (doc["method"], doc["mutation_level"], doc["train_dataset"])
        intra_f1 = identity.get(key)
        cross_f1 = doc["overall"]["f1"]
        delta = (cross_f1 - intra_f1
                 if intra_f1 is not None and cross_f1 is not None else None)
        out.append({
            "method": doc["method"],
            "mutation_level": doc["mutation_level"],
            "train_dataset": doc["train_dataset"],
            "test_dataset": doc["test_dataset"],
            "intra_f1": intra_f1,
            "cross_f1": cross_f1,
            "delta": delta,
        })
    return out


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------

def save_matrix_artifact(doc: Dict[str, Any], path: str) -> None:
    """Write the matrix in envelope form (kind + content digest)."""
    from repro.schema import save_envelope
    from repro.schema.kinds import EVAL_MATRIX

    save_envelope(doc, path, kind=EVAL_MATRIX.name)


def load_matrix_artifact(path: str) -> Dict[str, Any]:
    """Read an envelope-form matrix artifact; return the flat document."""
    from repro.schema import load_envelope
    from repro.schema.kinds import EVAL_MATRIX

    return load_envelope(path, kind=EVAL_MATRIX.name)
