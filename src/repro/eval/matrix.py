"""Declarative evaluation-matrix harness.

The paper's core evidence is a grid: embedding backend × train suite ×
test suite, scored per MPI error class, with cross-dataset cells (train
on MBI, test on CorrBench / the Hypre pair) measuring generalization.
This module makes that grid a first-class, machine-comparable artifact:

* :class:`MatrixSpec` declares the axes — train dataset × test dataset ×
  embedding backend (method) × mutation-augmentation level — and expands
  them into :class:`CellSpec` cells.
* :func:`run_matrix` executes every cell on the execution engine:
  featurization fans out over the engine's worker pool and persistent
  content-addressed store (a warm rerun recompiles nothing), features
  are extracted once per (dataset, backend) and sliced per cell, and the
  independent (fit, predict, score) cell jobs fan out through
  :meth:`~repro.engine.ExecutionEngine.map`.
* Every cell reports overall *and* per-error-class precision/recall/F1
  through the null-safe metric core (:mod:`repro.ml.metrics`) — a class
  with no test samples scores ``null``, never a fake zero — plus
  provenance: dataset content digests, the pipeline config hash, and
  the seed.
* The result serializes to a schema-checked ``EVAL_matrix.json``
  (kind ``repro-eval-matrix`` in :mod:`repro.schema.kinds`); :mod:`repro.eval.compare` turns any two
  such artifacts into a pass/fail regression verdict.

Identity cells (train == test) use a deterministic stratified split
rather than cross-validation so that the trained model, the held-out
digest, and the per-class scores are all reproducible from the artifact
alone.  Cross cells train on the full train suite and score the full
test suite, mirroring the paper's Cross scenario.  Mutation level ``L``
augments the *training* side with ``L`` injected-bug mutants per correct
training sample (never the test side — the ground truth stays pristine).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import __version__
from repro.datasets.loader import Dataset, stratified_split_indices
from repro.datasets.mutation import Mutant, MutationEngine, leak_safe_indices
from repro.eval.config import ReproConfig
from repro.eval.scenarios import fit_predict, stage_specs
from repro.ml.metrics import binary_summary, per_class_binary_report
from repro.models.features import featurize_dataset
from repro.pipeline import FEATURIZERS, take

#: Bumped whenever the artifact layout changes incompatibly.
MATRIX_SCHEMA_VERSION = 1

#: Datasets that only ever appear on the test axis (too small to train on).
TEST_ONLY_DATASETS = ("hypre",)


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

    @property
    def scenario(self) -> str:
        return "split" if self.train_dataset == self.test_dataset else "cross"

    @property
    def cell_id(self) -> str:
        return (f"train={self.train_dataset}|test={self.test_dataset}"
                f"|method={self.method}|mut={self.mutation_level}")


@dataclass(frozen=True)
class MatrixSpec:
    """The declarative grid; profiles pick sensible default axes."""

    train_datasets: Tuple[str, ...] = ("mbi", "corrbench")
    test_datasets: Tuple[str, ...] = ("mbi", "corrbench", "hypre")
    methods: Tuple[str, ...] = ("ir2vec",)
    mutation_levels: Tuple[int, ...] = (0, 1)
    test_frac: float = 0.35
    split_seed: int = 0

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

    def cells(self) -> List[CellSpec]:
        """Expand the grid in a stable, documented order.

        The ``static`` backend is training-free, so the train and
        mutation axes would only replicate identical columns: it gets
        one cell per test dataset (at the first mutation level, with
        ``train == test`` where legal so it scores the same held-out
        split as the learned identity cells).
        """
        out: List[CellSpec] = []
        for method in self.methods:
            if method == "static":
                level = self.mutation_levels[0] if self.mutation_levels \
                    else 0
                for test in self.test_datasets:
                    train = (test if test in self.train_datasets
                             else self.train_datasets[0])
                    out.append(CellSpec(train, test, method, level))
                continue
            out.extend(CellSpec(train, test, method, level)
                       for level in self.mutation_levels
                       for train in self.train_datasets
                       for test in self.test_datasets)
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {
            "train_datasets": list(self.train_datasets),
            "test_datasets": list(self.test_datasets),
            "methods": list(self.methods),
            "mutation_levels": list(self.mutation_levels),
            "test_frac": self.test_frac,
            "split_seed": self.split_seed,
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
# Cell execution (module-level → picklable for engine.map fan-out)
# ---------------------------------------------------------------------------

def _concat_features(a: Any, b: Any) -> Any:
    """Stack two feature batches of the same kind (matrix or graph list)."""
    if isinstance(a, np.ndarray):
        if len(b) == 0:
            return a
        return np.concatenate([a, np.asarray(b)])
    return list(a) + list(b)


def _evaluate_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Fit the cell's classifier and score it: the engine.map job body.

    ``payload`` is fully self-contained (stage specs plus materialized
    feature batches), so serial and parallel execution are byte-identical
    and a worker process needs no shared state beyond the module imports.
    """
    y_test = list(payload["y_test"])
    test_classes = list(payload["test_classes"])
    if "y_pred" in payload:
        # Training-free backend (the static analyzer): predictions were
        # computed per dataset and sliced per cell — just score them.
        y_pred = list(payload["y_pred"])
        overall = binary_summary(y_test, y_pred)
        per_class = per_class_binary_report(test_classes, y_pred,
                                            classes=payload["class_names"])
        return {"overall": overall, "per_class": per_class}
    if len(payload["y_train"]) == 0 or len(y_test) == 0:
        # Nothing to fit or nothing to score: a valid, fully-null cell.
        # Supports still reflect the (possibly non-empty) test side; the
        # scores are undefined, never fake zeros.
        overall = binary_summary([], [])
        overall["support"] = len(y_test)
        per_class = {
            cls: {"TP": 0, "TN": 0, "FP": 0, "FN": 0,
                  "precision": None, "recall": None, "f1": None,
                  "accuracy": None, "support": test_classes.count(cls)}
            for cls in payload["class_names"]}
        return {"overall": overall, "per_class": per_class}
    _, y_pred = fit_predict(payload["clf_name"], payload["clf_cfg"],
                            payload["X_train"], payload["y_train"],
                            payload["X_test"])
    y_pred = list(y_pred)
    overall = binary_summary(y_test, y_pred)
    per_class = per_class_binary_report(test_classes, y_pred,
                                        classes=payload["class_names"])
    return {"overall": overall, "per_class": per_class}


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

def _config_hash(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


@dataclass
class _MethodFeatures:
    """Features for every dataset under one embedding backend."""

    feat_name: str
    feat_cfg: Any
    clf_name: str
    clf_cfg: Any
    per_dataset: Dict[str, Any] = field(default_factory=dict)
    per_mutants: Dict[Tuple[str, int], Any] = field(default_factory=dict)


def run_matrix(spec: MatrixSpec, config: Optional[ReproConfig] = None,
               profile: str = "custom") -> Dict[str, Any]:
    """Execute every cell of ``spec``; return the versioned artifact doc.

    Feature extraction runs once per (dataset, backend) on the config's
    execution engine — parallel fan-out and the persistent store come
    from ``config.workers`` / ``config.cache_dir`` — and cells slice the
    shared batches, so adding grid axes costs classifier fits, not
    recompiles.  Cell jobs themselves fan out via ``engine.map``.
    """
    config = config or ReproConfig.smoke()
    engine = config.engine()

    dataset_names = sorted(set(spec.train_datasets) | set(spec.test_datasets))
    datasets: Dict[str, Dataset] = {name: config.dataset(name)
                                    for name in dataset_names}
    digests = {name: ds.content_digest() for name, ds in datasets.items()}

    # Deterministic stratified splits for identity (train == test) cells.
    splits: Dict[str, Tuple[List[int], List[int]]] = {}
    for name in spec.train_datasets:
        if name in spec.test_datasets:
            splits[name] = stratified_split_indices(
                datasets[name].labels(), spec.test_frac, spec.split_seed)

    # Mutation augmentation: L mutants per correct sample of each train
    # side (full suite for cross cells, train split for identity cells
    # — the split part is a subset, so one mutant set per (name, level)
    # keyed on the origin sample covers both via filtering).  The
    # Mutant objects are kept whole: their ``origin`` field drives the
    # identity-cell leak guard.
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
    if "static" in spec.methods:
        for name in sorted({c.test_dataset for c in spec.cells()
                            if c.method == "static"}):
            jobs = [(s.name, s.source, config.nprocs)
                    for s in datasets[name].samples]
            static_preds[name] = list(
                engine.map(_static_predict_worker, jobs))

    # Featurize once per (backend, dataset) on the engine.
    methods: Dict[str, _MethodFeatures] = {}
    for method in spec.methods:
        if method == "static":
            continue
        feat_name, feat_cfg, clf_name, clf_cfg = stage_specs(method, config)
        mf = _MethodFeatures(feat_name, feat_cfg, clf_name, clf_cfg)
        featurizer = FEATURIZERS.create(feat_name, feat_cfg)
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

    cells = spec.cells()
    payloads = [_cell_payload(cell, spec, config, datasets, splits,
                              mutant_sets, methods.get(cell.method),
                              static_preds)
                for cell in cells]
    results = engine.map(_evaluate_cell, payloads)

    cell_docs: List[Dict[str, Any]] = []
    for cell, payload, result in zip(cells, payloads, results):
        cell_docs.append({
            "id": cell.cell_id,
            "train_dataset": cell.train_dataset,
            "test_dataset": cell.test_dataset,
            "method": cell.method,
            "mutation_level": cell.mutation_level,
            "scenario": cell.scenario,
            "n_train": len(payload["y_train"]),
            "n_test": len(payload["y_test"]),
            "overall": result["overall"],
            "per_class": result["per_class"],
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


def _cell_payload(cell: CellSpec, spec: MatrixSpec, config: ReproConfig,
                  datasets: Dict[str, Dataset],
                  splits: Dict[str, Tuple[List[int], List[int]]],
                  mutant_sets: Dict[Tuple[str, int], List[Mutant]],
                  mf: Optional[_MethodFeatures],
                  static_preds: Optional[Dict[str, List[str]]] = None,
                  ) -> Dict[str, Any]:
    """Materialize one cell's self-contained train/test job payload."""
    train_ds = datasets[cell.train_dataset]
    test_ds = datasets[cell.test_dataset]

    if cell.scenario == "split":
        train_idx, test_idx = splits[cell.train_dataset]
    else:
        train_idx = list(range(len(train_ds)))
        test_idx = list(range(len(test_ds)))

    if cell.method == "static":
        # Training-free backend: the analyzer scored every sample of the
        # test dataset up front; the cell just slices the held-out side
        # so its support matches the learned identity cells exactly.
        preds = (static_preds or {})[cell.test_dataset]
        test_samples = [test_ds.samples[i] for i in test_idx]
        return {
            "y_train": [],
            "y_pred": [preds[i] for i in test_idx],
            "y_test": [s.binary for s in test_samples],
            "test_classes": [s.label for s in test_samples],
            "class_names": sorted({s.label for s in test_ds.samples
                                   if not s.is_correct}),
            "provenance": {
                "train_digest": "static:untrained",
                "test_digest": Dataset(f"{test_ds.name}-test",
                                       test_samples).content_digest(),
                "config_hash": _config_hash(
                    "static", config.nprocs, spec.test_frac,
                    spec.split_seed, config.seed),
                "seed": config.seed,
            },
        }

    train_features = mf.per_dataset[cell.train_dataset]
    test_features = mf.per_dataset[cell.test_dataset]

    train_samples = [train_ds.samples[i] for i in train_idx]
    X_train = take(train_features, train_idx)
    y_train = [s.binary for s in train_samples]

    kept_samples: List[Any] = []
    if cell.mutation_level > 0:
        mutants = mutant_sets[(cell.train_dataset, cell.mutation_level)]
        # Identity cells train on a split: only admit mutants whose
        # origin sample is on the train side, or held-out information
        # would leak into training through its mutated copies.  The
        # guard matches origin name *and* source digest (see
        # leak_safe_indices) so name collisions never leak either.
        keep = leak_safe_indices(mutants, train_samples)
        if keep:
            mutant_features = take(
                mf.per_mutants[(cell.train_dataset,
                                cell.mutation_level)], keep)
            kept_samples = [mutants[i].sample for i in keep]
            X_train = _concat_features(X_train, mutant_features)
            y_train = y_train + [s.binary for s in kept_samples]
    train_digest_ds = Dataset(
        f"{train_ds.name}-train+mut{cell.mutation_level}"
        if cell.mutation_level > 0 else f"{train_ds.name}-train",
        train_samples + kept_samples)

    test_samples = [test_ds.samples[i] for i in test_idx]
    class_names = sorted({s.label for s in test_ds.samples
                          if not s.is_correct})
    return {
        "clf_name": mf.clf_name,
        "clf_cfg": mf.clf_cfg,
        "X_train": X_train,
        "y_train": y_train,
        "X_test": take(test_features, test_idx),
        "y_test": [s.binary for s in test_samples],
        "test_classes": [s.label for s in test_samples],
        "class_names": class_names,
        "provenance": {
            "train_digest": train_digest_ds.content_digest(),
            "test_digest": Dataset(f"{test_ds.name}-test",
                                   test_samples).content_digest(),
            "config_hash": _config_hash(
                mf.feat_name, mf.feat_cfg, mf.clf_name, mf.clf_cfg,
                cell.mutation_level, spec.test_frac, spec.split_seed,
                config.seed),
            "seed": config.seed,
        },
    }


def _generalization(cell_docs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Cross-dataset deltas: cross-cell F1 minus the matching identity
    cell's F1, per (method, mutation level, train dataset) — the
    train-MBI→test-CorrBench/Hypre generalization gap of the paper."""
    identity: Dict[Tuple[str, int, str], Optional[float]] = {}
    for doc in cell_docs:
        if doc["scenario"] == "split":
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
