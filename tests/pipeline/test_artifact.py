"""Versioned artifact format: manifest, round-trips, legacy rejection."""

import hashlib
import json
import os
import pickle
import shutil

import numpy as np
import pytest

from repro.datasets import load_corrbench
from repro.ml import GAConfig
from repro.pipeline import (
    SCHEMA_VERSION,
    ArtifactError,
    DetectionPipeline,
    inspect_artifact,
    load_pipeline,
    save_pipeline,
)
from repro.pipeline.artifact import FORMAT_NAME, MANIFEST_NAME
from repro.schema import payload_digest, validate_envelope

SMOKE_GA = GAConfig(population_size=20, generations=2)


@pytest.fixture(scope="module")
def dataset():
    return load_corrbench(subsample=50)


@pytest.fixture(scope="module", params=["ir2vec", "gnn"])
def fitted(request, dataset):
    if request.param == "ir2vec":
        pipe = DetectionPipeline.from_method("ir2vec", ga_config=SMOKE_GA)
    else:
        pipe = DetectionPipeline.from_method("gnn", epochs=1)
    return pipe.fit(dataset)


def test_roundtrip_identical_predictions(fitted, dataset, tmp_path):
    """Saved → loaded pipelines give byte-identical predictions."""
    path = str(tmp_path / "model.rpd")
    fitted.save(path)
    reloaded = DetectionPipeline.load(path)
    before = fitted.predict_dataset(dataset)
    after = reloaded.predict_dataset(dataset)
    assert np.array_equal(before, after)
    assert reloaded.method == fitted.method
    assert reloaded.label_mode == fitted.label_mode
    assert reloaded.fitted


def test_zip_roundtrip(fitted, dataset, tmp_path):
    path = str(tmp_path / "model.zip")
    fitted.save(path)
    assert os.path.isfile(path)
    reloaded = load_pipeline(path)
    assert np.array_equal(fitted.predict_dataset(dataset),
                          reloaded.predict_dataset(dataset))


def test_manifest_contents(fitted, tmp_path):
    path = str(tmp_path / "model.rpd")
    save_pipeline(fitted, path)
    with open(os.path.join(path, MANIFEST_NAME)) as fh:
        envelope = json.load(fh)
    # On disk the manifest is a unified artifact envelope with a
    # content digest over the payload; validation returns it flat.
    assert envelope["kind"] == FORMAT_NAME
    assert envelope["digest"] == payload_digest(envelope["payload"])
    manifest = validate_envelope(envelope)       # self-consistent
    assert manifest["format"] == FORMAT_NAME
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["fitted"] is True
    assert manifest["label_mode"] == "binary"
    stages = manifest["stages"]
    assert stages["frontend"]["name"] == "mini-c"
    assert stages["featurizer"]["name"] in ("ir2vec", "programl")
    assert stages["classifier"]["name"] in ("decision-tree", "gnn")
    assert "config" in stages["featurizer"]
    # The classifier carries fitted state; its blob must exist on disk.
    blob = stages["classifier"]["state"]
    assert os.path.exists(os.path.join(path, blob))


def test_manifest_records_blob_sha256(fitted, tmp_path):
    path = str(tmp_path / "model.rpd")
    save_pipeline(fitted, path)
    with open(os.path.join(path, MANIFEST_NAME)) as fh:
        stages = validate_envelope(json.load(fh))["stages"]
    roles = {role for role, entry in stages.items() if "state" in entry}
    # An ir2vec featurizer carries its seed table; ProGraML is stateless.
    assert roles == ({"featurizer", "classifier"}
                     if fitted.method == "ir2vec" else {"classifier"})
    for role in roles:
        with open(os.path.join(path, stages[role]["state"]), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert stages[role]["sha256"] == digest


@pytest.fixture(scope="module")
def ir2vec_artifact(dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ir2vec") / "model.rpd")
    DetectionPipeline.from_method("ir2vec", ga_config=SMOKE_GA) \
        .fit(dataset).save(path)
    return path


def test_tampered_featurizer_blob_rejected(ir2vec_artifact, tmp_path):
    path = str(tmp_path / "model.rpd")
    shutil.copytree(ir2vec_artifact, path)
    blob_path = os.path.join(path, "featurizer.bin")
    with open(blob_path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[len(blob) // 2] ^= 0x01                 # a bit of a seed vector
    with open(blob_path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(ArtifactError, match="sha256"):
        load_pipeline(path)
    with pytest.raises(ArtifactError, match="sha256"):
        inspect_artifact(path)


def test_manifest_without_blob_digests_is_rejected(ir2vec_artifact,
                                                   tmp_path):
    """Every state blob is pinned: a manifest that drops a stage's
    sha256 (even with a recomputed envelope digest) would let a changed
    blob through, so it is refused."""
    path = str(tmp_path / "model.rpd")
    shutil.copytree(ir2vec_artifact, path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path) as fh:
        envelope = json.load(fh)
    envelope["payload"]["stages"]["featurizer"].pop("sha256")
    envelope["digest"] = payload_digest(envelope["payload"])
    with open(manifest_path, "w") as fh:
        json.dump(envelope, fh)
    with pytest.raises(ArtifactError, match="records no sha256"):
        load_pipeline(path)
    with pytest.raises(ArtifactError, match="records no sha256"):
        inspect_artifact(path)


def test_flat_manifest_rejected(ir2vec_artifact, tmp_path):
    """Only the envelope form loads: a flat manifest, here with every
    blob digest stripped and the featurizer blob altered, is refused
    before any blob is read."""
    path = str(tmp_path / "model.rpd")
    shutil.copytree(ir2vec_artifact, path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path) as fh:
        flat = validate_envelope(json.load(fh))
    for entry in flat["stages"].values():
        entry.pop("sha256", None)
    with open(manifest_path, "w") as fh:
        json.dump(flat, fh)
    blob_path = os.path.join(path, "featurizer.bin")
    with open(blob_path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[len(blob) // 2] ^= 0x01
    with open(blob_path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(ArtifactError, match="not an envelope-form"):
        load_pipeline(path)
    with pytest.raises(ArtifactError, match="not an envelope-form"):
        inspect_artifact(path)


def test_missing_artifact_errors():
    with pytest.raises(ArtifactError, match="no pipeline artifact"):
        load_pipeline("/nonexistent/model.rpd")


def test_directory_without_manifest_errors(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ArtifactError, match=MANIFEST_NAME):
        load_pipeline(str(empty))


def test_corrupt_manifest_rejected(fitted, tmp_path):
    path = str(tmp_path / "model.rpd")
    save_pipeline(fitted, path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path) as fh:
        envelope = json.load(fh)
    envelope["schema_version"] = SCHEMA_VERSION + 1
    with open(manifest_path, "w") as fh:
        json.dump(envelope, fh)
    with pytest.raises(ArtifactError, match="newer than this build"):
        load_pipeline(path)


def test_tampered_payload_rejected_by_digest(fitted, tmp_path):
    """Envelope integrity: editing the payload without recomputing the
    content digest is detected before any stage is rebuilt."""
    path = str(tmp_path / "model.rpd")
    save_pipeline(fitted, path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path) as fh:
        envelope = json.load(fh)
    envelope["payload"]["method"] = "tampered"
    with open(manifest_path, "w") as fh:
        json.dump(envelope, fh)
    with pytest.raises(ArtifactError, match="digest mismatch"):
        load_pipeline(path)


def test_missing_blob_rejected(fitted, tmp_path):
    path = str(tmp_path / "model.rpd")
    save_pipeline(fitted, path)
    os.remove(os.path.join(path, "classifier.bin"))
    with pytest.raises(ArtifactError, match="missing blob"):
        load_pipeline(path)


def test_garbage_manifest_json_rejected(fitted, tmp_path):
    path = str(tmp_path / "model.rpd")
    save_pipeline(fitted, path)
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        fh.write("{not json")
    with pytest.raises(ArtifactError, match="not valid JSON"):
        load_pipeline(path)


def test_unknown_stage_name_rejected(fitted, tmp_path):
    path = str(tmp_path / "model.rpd")
    save_pipeline(fitted, path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path) as fh:
        envelope = json.load(fh)
    envelope["payload"]["stages"]["featurizer"]["name"] = "never-registered"
    envelope["payload"]["stages"]["featurizer"]["config"] = {}
    envelope["digest"] = payload_digest(envelope["payload"])
    with open(manifest_path, "w") as fh:
        json.dump(envelope, fh)
    with pytest.raises(ArtifactError, match="never-registered"):
        load_pipeline(path)


def test_legacy_pickle_rejected_with_deprecation(tmp_path, dataset):
    """Old raw-pickle artifacts fail loudly, pointing at the new format."""
    legacy = str(tmp_path / "legacy.pkl")
    with open(legacy, "wb") as fh:
        pickle.dump({"model": "pretend-detector"}, fh)
    with pytest.warns(DeprecationWarning, match="raw-pickle"):
        with pytest.raises(ArtifactError, match="legacy raw-pickle"):
            load_pipeline(legacy)
    # The pipeline's own loader rejects it the same way.
    with pytest.warns(DeprecationWarning):
        with pytest.raises(ArtifactError, match="retrain"):
            DetectionPipeline.load(legacy)


def test_detector_facade_roundtrip(tmp_path, dataset):
    """A method preset round-trips its IR level and embedding seed."""
    pipeline = DetectionPipeline.from_method(
        "ir2vec", ga_config=SMOKE_GA, embedding_seed=7).fit(dataset)
    path = str(tmp_path / "detector.rpd")
    pipeline.save(path)
    loaded = DetectionPipeline.load(path)
    assert loaded.method == "ir2vec"
    assert loaded.frontend.opt_level == pipeline.frontend.opt_level
    assert loaded.featurizer.seed == pipeline.featurizer.seed == 7
    before = [r.label for r in pipeline.predict_batch(dataset.samples[:10])]
    after = [r.label for r in loaded.predict_batch(dataset.samples[:10])]
    assert before == after
