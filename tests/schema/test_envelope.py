"""The unified artifact envelope: framing, digests, kind registry."""

import glob
import json
import os

import pytest

from repro.schema import (
    KindSpec,
    SchemaError,
    is_envelope,
    load_envelope,
    make_envelope,
    payload_digest,
    register_kind,
    registered_kinds,
    save_envelope,
    validate_envelope,
    validate_kind,
)


def _matrix_doc():
    metric = {"precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 2}
    return {
        "kind": "repro-eval-matrix",
        "schema_version": 1,
        "repro_version": "0.0-test",
        "profile": "smoke",
        "seed": 0,
        "spec": {"train_datasets": ["mbi"], "test_datasets": ["mbi"],
                 "methods": ["ir2vec"], "mutation_levels": [0],
                 "test_frac": 0.3, "split_seed": 7},
        "datasets": {"mbi": {"digest": "d" * 16, "n_samples": 4}},
        "cells": [{
            "id": "c1", "train_dataset": "mbi", "test_dataset": "mbi",
            "method": "ir2vec", "mutation_level": 0, "scenario": "split",
            "n_train": 2, "n_test": 2, "overall": metric, "per_class": {},
            "provenance": {"train_digest": "a" * 16, "test_digest": "b" * 16,
                           "config_hash": "c" * 16, "seed": 0},
        }],
        "generalization": [],
    }


def _fuzz_doc():
    return {
        "kind": "repro-fuzz-report",
        "schema_version": 1,
        "repro_version": "0.0-test",
        "config": {"seed": 0, "budget": 1, "nprocs": 2, "max_steps": 100,
                   "max_stmts": 10, "bug_ratio": 0.5, "corpus_dir": None,
                   "include_known_bugs": False, "chunk_size": 4},
        "oracles": ["simulator"],
        "counts": {"programs": 1, "generated": 1, "seeded": 0, "agree": 1,
                   "rejected": 0, "disagreements": 0,
                   "static_disagreements": 0, "hard_failures": 0,
                   "generator_rejects": 0, "replayed": 0,
                   "replay_mismatches": 0, "minimized": 0,
                   "new_corpus_cases": 0, "corpus_cases": 0},
        "detection": {},
        "replay": [],
        "findings": [],
        "model": None,
    }


def _cas_stats_doc():
    # Registered by repro.fleet.cas; its flat shape has no repro_version,
    # so it checks that _flatten does not add one.
    import repro.fleet.cas  # noqa: F401

    return {
        "kind": "repro-cas-stats",
        "schema_version": 1,
        "entries": 2,
        "bytes": 64,
        "max_bytes": 1024,
        "counters": {"hits": 1, "misses": 0},
    }


def _manifest_doc():
    stage = {"name": "mini-c", "config": {}}
    return {
        "format": "repro.detection-pipeline",
        "schema_version": 1,
        "repro_version": "0.0-test",
        "method": "ir2vec",
        "label_mode": "binary",
        "fitted": True,
        "stages": {"frontend": stage,
                   "featurizer": {"name": "ir2vec", "config": {}},
                   "classifier": {"name": "decision-tree", "config": {}}},
    }


ALL_KINDS = [
    ("repro-eval-matrix", _matrix_doc),
    ("repro-fuzz-report", _fuzz_doc),
    ("repro-cas-stats", _cas_stats_doc),
    ("repro.detection-pipeline", _manifest_doc),
]


@pytest.mark.parametrize("kind,factory", ALL_KINDS,
                         ids=[k for k, _ in ALL_KINDS])
def test_all_kinds_roundtrip_through_envelope(kind, factory):
    """Acceptance: every artifact kind survives flat → envelope → flat."""
    flat = factory()
    envelope = make_envelope(flat)
    assert envelope["kind"] == kind
    assert is_envelope(envelope) and not is_envelope(flat)
    assert envelope["digest"] == payload_digest(envelope["payload"])
    assert validate_envelope(envelope) == flat
    # Flat docs validate in memory too (writers check before saving).
    assert validate_envelope(flat) == flat
    assert validate_kind(kind, envelope) == flat


@pytest.mark.parametrize("kind,factory", ALL_KINDS,
                         ids=[k for k, _ in ALL_KINDS])
def test_save_load_file_roundtrip(kind, factory, tmp_path):
    flat = factory()
    path = str(tmp_path / "artifact.json")
    save_envelope(flat, path, kind=kind)
    with open(path) as fh:
        on_disk = json.load(fh)
    assert is_envelope(on_disk)            # written in envelope form
    assert load_envelope(path) == flat
    assert load_envelope(path, kind=kind) == flat


@pytest.mark.parametrize("kind,factory", ALL_KINDS,
                         ids=[k for k, _ in ALL_KINDS])
def test_load_envelope_rejects_flat_file(kind, factory, tmp_path):
    """The file loader reads envelopes only; a flat file is refused."""
    path = str(tmp_path / "flat.json")
    with open(path, "w") as fh:
        json.dump(factory(), fh)
    with pytest.raises(SchemaError, match="not an artifact envelope"):
        load_envelope(path)
    with pytest.raises(SchemaError, match="not an artifact envelope"):
        load_envelope(path, kind=kind)


def test_load_envelope_pins_kind(tmp_path):
    path = str(tmp_path / "matrix.json")
    save_envelope(_matrix_doc(), path)
    with pytest.raises(SchemaError, match="expected 'repro-fuzz-report'"):
        load_envelope(path, kind="repro-fuzz-report")


def _committed_ci_artifacts():
    root = os.path.join(os.path.dirname(__file__), "..", "..", "ci")
    kinds = registered_kinds()
    for path in sorted(glob.glob(os.path.join(root, "**", "*.json"),
                                 recursive=True)):
        with open(path) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and doc.get("kind") in kinds:
            yield os.path.relpath(path, root)


def test_eval_baseline_is_a_committed_ci_artifact():
    assert "eval-baseline.json" in list(_committed_ci_artifacts())


@pytest.mark.parametrize("relpath", list(_committed_ci_artifacts()))
def test_committed_ci_artifacts_load_as_envelopes(relpath):
    """Every committed ci/ file of a registered kind is an envelope."""
    path = os.path.join(os.path.dirname(__file__), "..", "..", "ci", relpath)
    with open(path) as fh:
        kind = json.load(fh)["kind"]
    assert load_envelope(path, kind=kind)["kind"] == kind


def test_digest_tamper_detected():
    envelope = make_envelope(_cas_stats_doc())
    envelope["payload"]["entries"] = 999
    with pytest.raises(SchemaError, match="digest mismatch"):
        validate_envelope(envelope)


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError, match="unknown artifact kind"):
        validate_envelope({"kind": "no-such-kind", "schema_version": 1,
                           "repro_version": "x", "digest": "0" * 64,
                           "payload": {}})
    with pytest.raises(SchemaError, match="declares no artifact kind"):
        validate_envelope({"whatever": 1})


def test_wrong_kind_pinned_by_validate_kind():
    envelope = make_envelope(_matrix_doc())
    with pytest.raises(SchemaError, match="expected 'repro-fuzz-report'"):
        validate_kind("repro-fuzz-report", envelope)


def test_kind_semantic_checks_still_fire_through_envelope():
    flat = _matrix_doc()
    flat["cells"] = flat["cells"] + [dict(flat["cells"][0])]  # dup id
    envelope = make_envelope(flat)
    with pytest.raises(SchemaError, match="duplicate cell ids"):
        validate_envelope(envelope)
    newer = make_envelope(_manifest_doc())
    newer["schema_version"] = 99
    with pytest.raises(SchemaError, match="newer than this build"):
        validate_envelope(newer)


def test_custom_kind_registration():
    """Third parties (the fleet CAS, for one) can register kinds."""
    spec = register_kind(KindSpec(
        name="repro-test-kind", schema_version=1,
        flat_schema={"type": "object", "required": ["kind", "value"],
                     "properties": {"kind": {"const": "repro-test-kind"},
                                    "value": {"type": "integer"}}}))
    assert registered_kinds()["repro-test-kind"] is spec
    flat = {"kind": "repro-test-kind", "schema_version": 1, "value": 3}
    assert validate_envelope(make_envelope(flat))["value"] == 3
    with pytest.raises(SchemaError):
        validate_envelope({"kind": "repro-test-kind", "schema_version": 1,
                           "value": "not-an-integer"})


def test_payload_digest_is_canonical():
    """Key order and whitespace don't change the digest."""
    a = {"x": 1, "y": [1, 2], "z": {"nested": True}}
    b = json.loads(json.dumps(a, indent=4))
    assert payload_digest(a) == payload_digest(b)
