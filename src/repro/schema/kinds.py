"""Built-in artifact kinds.

One :class:`~repro.schema.envelope.KindSpec` per persisted artifact the
project ships: the evaluation matrix (``EVAL_matrix.json``), the fuzz
campaign report (``FUZZ_report.json``) and the pipeline-artifact
manifest (``manifest.json``).  Importing this module registers them
all.  The repair report (:mod:`repro.repair.report`) registers its
own kind.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.schema.envelope import KindSpec, register_kind
from repro.schema.validator import SchemaError

# ---------------------------------------------------------------------------
# repro-eval-matrix
# ---------------------------------------------------------------------------

_NULLABLE_NUMBER = {"type": ["number", "null"]}

#: Overall and per-class metric blocks share this shape.
_METRIC_BLOCK = {
    "type": "object",
    "required": ["precision", "recall", "f1", "support"],
    "properties": {
        "TP": {"type": "integer"}, "TN": {"type": "integer"},
        "FP": {"type": "integer"}, "FN": {"type": "integer"},
        "precision": _NULLABLE_NUMBER,
        "recall": _NULLABLE_NUMBER,
        "f1": _NULLABLE_NUMBER,
        "accuracy": _NULLABLE_NUMBER,
        "support": {"type": "integer"},
    },
}

_CELL_SCHEMA = {
    "type": "object",
    "required": ["id", "train_dataset", "test_dataset", "method",
                 "mutation_level", "scenario", "n_train", "n_test",
                 "overall", "per_class", "provenance"],
    "properties": {
        "id": {"type": "string"},
        "train_dataset": {"type": "string"},
        "test_dataset": {"type": "string"},
        "method": {"type": "string"},
        "mutation_level": {"type": "integer"},
        "scenario": {"enum": ["split", "cv", "cross"]},
        "n_train": {"type": "integer"},
        "n_test": {"type": "integer"},
        "overall": _METRIC_BLOCK,
        "per_class": {"type": "object",
                      "additionalProperties": _METRIC_BLOCK},
        "provenance": {
            "type": "object",
            "required": ["train_digest", "test_digest", "config_hash",
                         "seed"],
            "properties": {
                "train_digest": {"type": "string"},
                "test_digest": {"type": "string"},
                "config_hash": {"type": "string"},
                "seed": {"type": "integer"},
            },
        },
    },
}

MATRIX_SCHEMA = {
    "type": "object",
    "required": ["kind", "schema_version", "repro_version", "profile",
                 "seed", "spec", "datasets", "cells", "generalization"],
    "properties": {
        "kind": {"const": "repro-eval-matrix"},
        "schema_version": {"type": "integer"},
        "repro_version": {"type": "string"},
        "profile": {"type": "string"},
        "seed": {"type": "integer"},
        "spec": {
            "type": "object",
            "required": ["train_datasets", "test_datasets", "methods",
                         "mutation_levels", "test_frac", "split_seed"],
            "properties": {
                "train_datasets": {"type": "array", "minItems": 1,
                                   "items": {"type": "string"}},
                "test_datasets": {"type": "array", "minItems": 1,
                                  "items": {"type": "string"}},
                "methods": {"type": "array", "minItems": 1,
                            "items": {"type": "string"}},
                "mutation_levels": {"type": "array", "minItems": 1,
                                    "items": {"type": "integer"}},
                "test_frac": {"type": "number"},
                "split_seed": {"type": "integer"},
                "identity": {"enum": ["split", "cv"]},
            },
        },
        "datasets": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["digest", "n_samples"],
                "properties": {"digest": {"type": "string"},
                               "n_samples": {"type": "integer"}},
            },
        },
        "cells": {"type": "array", "minItems": 1, "items": _CELL_SCHEMA},
        "generalization": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["method", "mutation_level", "train_dataset",
                             "test_dataset", "intra_f1", "cross_f1",
                             "delta"],
                "properties": {
                    "method": {"type": "string"},
                    "mutation_level": {"type": "integer"},
                    "train_dataset": {"type": "string"},
                    "test_dataset": {"type": "string"},
                    "intra_f1": _NULLABLE_NUMBER,
                    "cross_f1": _NULLABLE_NUMBER,
                    "delta": _NULLABLE_NUMBER,
                },
            },
        },
    },
}


def _check_matrix(doc: Mapping[str, Any]) -> None:
    version = doc["schema_version"]
    if version != 1:
        raise SchemaError("$.schema_version",
                          f"unsupported schema version {version} "
                          f"(this build understands 1)")
    cell_ids: List[str] = [cell["id"] for cell in doc["cells"]]
    if len(set(cell_ids)) != len(cell_ids):
        dupes = sorted({c for c in cell_ids if cell_ids.count(c) > 1})
        raise SchemaError("$.cells", f"duplicate cell ids {dupes}")


EVAL_MATRIX = register_kind(KindSpec(
    name="repro-eval-matrix", schema_version=1,
    flat_schema=MATRIX_SCHEMA, check=_check_matrix))


# ---------------------------------------------------------------------------
# repro-fuzz-report
# ---------------------------------------------------------------------------

_SIGNATURE = {
    "type": "object",
    "required": ["status", "kind", "oracle"],
    "properties": {
        "status": {"type": "string"},
        "kind": {"type": "string"},
        "oracle": {"type": "string"},
    },
}

_NULLABLE_STRING = {"type": ["string", "null"]}

FUZZ_SCHEMA = {
    "type": "object",
    "required": ["kind", "schema_version", "repro_version", "config",
                 "oracles", "counts", "detection", "replay", "findings",
                 "model"],
    "properties": {
        "kind": {"const": "repro-fuzz-report"},
        "schema_version": {"type": "integer"},
        "repro_version": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["seed", "budget", "nprocs", "max_steps",
                         "max_stmts", "bug_ratio", "corpus_dir",
                         "include_known_bugs", "chunk_size"],
            "properties": {
                "seed": {"type": "integer"},
                "budget": {"type": "integer"},
                "nprocs": {"type": "integer"},
                "max_steps": {"type": "integer"},
                "max_stmts": {"type": "integer"},
                "bug_ratio": {"type": "number"},
                "corpus_dir": _NULLABLE_STRING,
                "include_known_bugs": {"type": "boolean"},
                "chunk_size": {"type": "integer"},
            },
        },
        "oracles": {"type": "array", "minItems": 1,
                    "items": {"type": "string"}},
        "counts": {
            "type": "object",
            "required": ["programs", "generated", "seeded", "agree",
                         "rejected", "disagreements",
                         "static_disagreements", "hard_failures",
                         "generator_rejects", "replayed",
                         "replay_mismatches", "minimized",
                         "new_corpus_cases", "corpus_cases"],
            "additionalProperties": {"type": "integer"},
        },
        "detection": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["detected", "missed"],
                "additionalProperties": {"type": "integer"},
            },
        },
        "replay": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["digest", "name", "ok", "recorded",
                             "observed"],
                "properties": {
                    "digest": {"type": "string"},
                    "name": {"type": "string"},
                    "ok": {"type": "boolean"},
                    "recorded": _SIGNATURE,
                    "observed": _SIGNATURE,
                },
            },
        },
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "kind", "oracle",
                             "expected", "origin", "source",
                             "minimized_source", "digest", "in_corpus"],
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["rejected", "disagreement",
                                        "static_disagreement",
                                        "hard_failure"]},
                    "kind": {"type": "string"},
                    "oracle": {"type": "string"},
                    "detail": {"type": "string"},
                    "expected": {"enum": ["correct", "incorrect"]},
                    "origin": {"type": "string"},
                    "source": {"type": "string"},
                    "minimized_source": _NULLABLE_STRING,
                    "digest": _NULLABLE_STRING,
                    "in_corpus": {"type": "boolean"},
                },
            },
        },
        "model": {
            "type": ["object", "null"],
            "required": ["method", "checked", "agreements",
                         "disagreements"],
            "properties": {
                "method": {"type": "string"},
                "checked": {"type": "integer"},
                "agreements": {"type": "integer"},
                "disagreements": {"type": "integer"},
            },
        },
    },
}


def _check_fuzz(doc: Mapping[str, Any]) -> None:
    version = doc["schema_version"]
    if version != 1:
        raise SchemaError("$.schema_version",
                          f"unsupported fuzz report schema {version} "
                          f"(this build understands 1)")


FUZZ_REPORT = register_kind(KindSpec(
    name="repro-fuzz-report", schema_version=1,
    flat_schema=FUZZ_SCHEMA, check=_check_fuzz))


# ---------------------------------------------------------------------------
# repro.detection-pipeline (the pipeline-artifact manifest)
# ---------------------------------------------------------------------------

#: The manifest predates the ``kind`` convention: its flat form carries
#: the kind name under ``format``.  The envelope form uses ``kind`` like
#: everyone else; flattening restores ``format`` for old consumers.
MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["format", "schema_version", "stages", "label_mode"],
    "properties": {
        "format": {"const": "repro.detection-pipeline"},
        "schema_version": {"type": "integer"},
        "repro_version": {"type": "string"},
        "method": _NULLABLE_STRING,
        "fitted": {"type": "boolean"},
        "stages": {"type": "object"},
        "label_mode": {"type": "string"},
    },
}


def _check_manifest(doc: Mapping[str, Any]) -> None:
    version = doc.get("schema_version")
    if not isinstance(version, bool) and isinstance(version, int):
        if version < 1:
            raise SchemaError("$.schema_version",
                              f"bad schema_version {version!r}")
        if version > 1:
            raise SchemaError(
                "$.schema_version",
                f"artifact schema v{version} is newer than this build "
                f"(supports up to v1); upgrade repro to load it")
    else:
        raise SchemaError("$.schema_version",
                          f"bad schema_version {version!r}")
    stages = doc.get("stages")
    if not isinstance(stages, Mapping):
        raise SchemaError("$.stages",
                          "manifest is missing its 'stages' table")
    for role in ("frontend", "featurizer", "classifier"):
        entry = stages.get(role)
        if not isinstance(entry, Mapping) or "name" not in entry:
            raise SchemaError(f"$.stages.{role}",
                              f"manifest stage {role!r} is missing or "
                              "has no 'name'")
        if entry.get("state") and not isinstance(entry.get("sha256"), str):
            raise SchemaError(f"$.stages.{role}.sha256",
                              f"manifest stage {role!r} names state blob "
                              f"{entry['state']!r} but records no sha256")
    if doc.get("label_mode") not in ("binary", "type"):
        raise SchemaError("$.label_mode",
                          f"bad label_mode {doc.get('label_mode')!r}")


PIPELINE_MANIFEST = register_kind(KindSpec(
    name="repro.detection-pipeline", schema_version=1,
    flat_schema=MANIFEST_SCHEMA, check=_check_manifest,
    kind_key="format"))
