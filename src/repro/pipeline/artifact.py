"""Versioned on-disk pipeline artifacts.

An artifact is a directory (or ``.zip``) holding a JSON manifest plus one
opaque blob per stateful stage::

    model.rpd/
        manifest.json       # schema version, stage names + configs, ...
        featurizer.bin      # e.g. the IR2vec seed table (npz, no pickle)
        classifier.bin      # e.g. the fitted decision tree / GNN weights

Each stage entry names its blob and records the blob's ``sha256``;
loading and inspection reject a blob that no longer matches it.

The manifest records everything needed to rebuild the pipeline from the
stage registries — no code objects are pickled wholesale, so artifacts
survive refactors of the facade classes and unknown/corrupt inputs fail
with a diagnosable :class:`ArtifactError` instead of an unpickling crash.

Legacy raw-pickle detectors (the pre-pipeline ``pickle.dump(detector)``
format) are detected by magic bytes and rejected with a
``DeprecationWarning`` and a retraining hint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
import zipfile
from typing import Any, Callable, Dict, Optional, Tuple

from repro.pipeline.registry import CLASSIFIERS, FEATURIZERS, FRONTENDS
from repro.pipeline.pipeline import DetectionPipeline
from repro.schema import SchemaError, is_envelope, make_envelope, validate_kind

SCHEMA_VERSION = 1
FORMAT_NAME = "repro.detection-pipeline"
MANIFEST_NAME = "manifest.json"

_STAGE_REGISTRIES = {
    "frontend": FRONTENDS,
    "featurizer": FEATURIZERS,
    "classifier": CLASSIFIERS,
}

#: Pickle protocol-2+ streams start with \x80; protocol 0/1 streams start
#: with an opcode from this small printable set.
_PICKLE_MAGIC = (b"\x80", b"(", b"c", b"]", b"}")

_LEGACY_MESSAGE = (
    "%s holds a legacy raw-pickle detector, which the versioned artifact "
    "format replaced; retrain and save it again (e.g. "
    "`python -m repro train -o <path>`) to produce a manifest-based artifact"
)


class ArtifactError(ValueError):
    """Raised when an artifact is missing, malformed, or unsupported."""


# ---------------------------------------------------------------------------
# Save
# ---------------------------------------------------------------------------

def _stage_manifest(stage: Any) -> Dict[str, Any]:
    config = getattr(stage, "config", None)
    if dataclasses.is_dataclass(config):
        config = dataclasses.asdict(config)
    elif config is None:
        config = {}
    return {"name": stage.name, "config": config}


def build_manifest(pipeline: DetectionPipeline) -> Dict[str, Any]:
    from repro import __version__

    return {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "repro_version": __version__,
        "method": pipeline.method,
        "label_mode": pipeline.label_mode,
        "fitted": pipeline.fitted,
        "stages": {
            "frontend": _stage_manifest(pipeline.frontend),
            "featurizer": _stage_manifest(pipeline.featurizer),
            "classifier": _stage_manifest(pipeline.classifier),
        },
    }


def save_pipeline(pipeline: DetectionPipeline, path: str) -> None:
    """Write ``pipeline`` to ``path`` (directory, or zip if it ends .zip)."""
    manifest = build_manifest(pipeline)
    blobs: Dict[str, bytes] = {}
    for role, stage in (("frontend", pipeline.frontend),
                        ("featurizer", pipeline.featurizer),
                        ("classifier", pipeline.classifier)):
        get_state = getattr(stage, "get_state", None)
        if get_state is None:
            continue
        state = get_state()
        if state is None:
            continue
        blob_name = f"{role}.bin"
        blobs[blob_name] = state
        manifest["stages"][role].update(
            state=blob_name, sha256=hashlib.sha256(state).hexdigest())

    # The manifest is persisted in the unified envelope form (kind +
    # schema/repro versions + content digest over the payload); loaders
    # unwrap it — and still accept pre-envelope flat manifests.
    envelope = make_envelope(manifest)
    payload = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if str(path).endswith(".zip"):
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr(MANIFEST_NAME, payload)
            for name, blob in blobs.items():
                zf.writestr(name, blob)
    else:
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            fh.write(payload)
        for name, blob in blobs.items():
            with open(os.path.join(path, name), "wb") as fh:
                fh.write(blob)


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------

def _parse_manifest(payload: str, where: str) -> Dict[str, Any]:
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{where} is not valid JSON: {exc}") from None
    if is_envelope(doc):
        # Envelope form: framing + digest are checked here, and the
        # flat manifest is handed to the rest of the loader unchanged.
        try:
            return validate_kind(FORMAT_NAME, doc)
        except SchemaError as exc:
            raise ArtifactError(f"{where}: {exc}") from None
    return doc


def _open_container(path: str) -> Tuple[Dict[str, Any],
                                        Callable[[str], bytes]]:
    """Return (manifest, blob reader) for a directory or zip artifact."""
    if os.path.isdir(path):
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise ArtifactError(
                f"{path} is not a pipeline artifact: missing {MANIFEST_NAME}")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = _parse_manifest(fh.read(), manifest_path)

        def read_blob(name: str) -> bytes:
            with open(os.path.join(path, name), "rb") as bh:
                return bh.read()

        return manifest, read_blob

    if not os.path.exists(path):
        raise ArtifactError(f"no pipeline artifact at {path}")
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head.startswith(b"PK"):
        # Read the whole archive eagerly so the handle never outlives
        # this call (artifacts are small: a manifest + model blobs).
        with zipfile.ZipFile(path) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        if MANIFEST_NAME not in members:
            raise ArtifactError(
                f"{path} is a zip without {MANIFEST_NAME}; "
                "not a pipeline artifact")
        manifest = _parse_manifest(members[MANIFEST_NAME].decode("utf-8"),
                                   path)

        def read_blob(name: str) -> bytes:
            return members[name]

        return manifest, read_blob
    if head[:1] in _PICKLE_MAGIC:
        warnings.warn(
            "loading raw-pickle detector artifacts is no longer supported; "
            "use the versioned pipeline artifact format "
            "(DetectionPipeline.save)",
            DeprecationWarning, stacklevel=3)
        raise ArtifactError(_LEGACY_MESSAGE % path)
    raise ArtifactError(f"{path} is neither an artifact directory, a zip "
                        "artifact, nor a recognizable legacy pickle")


def _read_state(entry: Dict[str, Any], read_blob: Callable[[str], bytes],
                role: str) -> Optional[Tuple[bytes, str]]:
    """A stage's state blob and its sha256, checked against the digest
    the manifest records (manifests written before blob digests carry
    none and load unchecked); ``None`` for a stateless stage."""
    blob_name = entry.get("state")
    if not blob_name:
        return None
    try:
        blob = read_blob(blob_name)
    except (FileNotFoundError, KeyError):
        raise ArtifactError(
            f"artifact is missing blob {blob_name!r} referenced "
            f"by its {role} stage") from None
    digest = hashlib.sha256(blob).hexdigest()
    recorded = entry.get("sha256")
    if recorded is not None and recorded != digest:
        raise ArtifactError(
            f"blob {blob_name!r} of the {role} stage does not match the "
            f"sha256 its manifest records ({digest[:12]}… != "
            f"{str(recorded)[:12]}…): the artifact was altered or is "
            "incomplete")
    return blob, digest


def validate_manifest(manifest: Dict[str, Any]) -> None:
    """Validate a manifest (flat or envelope form) through the unified
    schema registry, mapping violations to :class:`ArtifactError`."""
    if not isinstance(manifest, dict):
        raise ArtifactError("manifest must be a JSON object")
    if not is_envelope(manifest) and manifest.get("format") != FORMAT_NAME:
        raise ArtifactError(
            f"unrecognized artifact format {manifest.get('format')!r} "
            f"(expected {FORMAT_NAME!r})")
    try:
        validate_kind(FORMAT_NAME, manifest)
    except SchemaError as exc:
        raise ArtifactError(str(exc)) from None


def inspect_artifact(path: str) -> Dict[str, Any]:
    """Summarize an artifact *without unpickling any stage blob*.

    Validates the manifest and reads each referenced blob only to hash
    it and check the hash against the manifest's, so inspection is safe
    on untrusted or half-written artifacts — which is exactly why the
    serving registry runs it before committing to a hot reload, and why
    ``repro artifact inspect`` exists.

    Returns a JSON-able dict: format/schema/repro versions, method,
    label_mode, fitted, per-stage ``{name, config, state{blob, bytes,
    sha256}}``, and a short content ``version`` digest that changes
    whenever the manifest or any blob does.
    """
    manifest, read_blob = _open_container(path)
    validate_manifest(manifest)

    stages: Dict[str, Any] = {}
    blob_digests: Dict[str, str] = {}
    for role in ("frontend", "featurizer", "classifier"):
        entry = manifest["stages"][role]
        info: Dict[str, Any] = {"name": entry["name"],
                                "config": entry.get("config") or {}}
        state = _read_state(entry, read_blob, role)
        if state is not None:
            blob, digest = state
            blob_digests[entry["state"]] = digest
            info["state"] = {"blob": entry["state"], "bytes": len(blob),
                             "sha256": digest}
        stages[role] = info

    version_basis = json.dumps({"manifest": manifest, "blobs": blob_digests},
                               sort_keys=True)
    return {
        "path": str(path),
        "format": manifest["format"],
        "schema_version": manifest["schema_version"],
        "repro_version": manifest.get("repro_version"),
        "method": manifest.get("method"),
        "label_mode": manifest["label_mode"],
        "fitted": bool(manifest.get("fitted")),
        "version": hashlib.sha256(
            version_basis.encode("utf-8")).hexdigest()[:12],
        "stages": stages,
    }


def load_pipeline(path: str) -> DetectionPipeline:
    """Rebuild a :class:`DetectionPipeline` from a saved artifact."""
    manifest, read_blob = _open_container(path)
    validate_manifest(manifest)

    stages: Dict[str, Any] = {}
    for role, registry in _STAGE_REGISTRIES.items():
        entry = manifest["stages"][role]
        try:
            stage = registry.create(entry["name"], entry.get("config") or {})
        except KeyError as exc:
            raise ArtifactError(
                f"artifact needs {role} {entry['name']!r} which is not "
                f"registered: {exc.args[0]}") from None
        state = _read_state(entry, read_blob, role)
        if state is not None:
            set_state = getattr(stage, "set_state", None)
            if set_state is None:
                raise ArtifactError(
                    f"artifact carries state for {role} {entry['name']!r} "
                    "but the registered stage has no set_state()")
            set_state(state[0])
        stages[role] = stage

    try:
        pipeline = DetectionPipeline(stages["frontend"], stages["featurizer"],
                                     stages["classifier"],
                                     label_mode=manifest["label_mode"],
                                     method=manifest.get("method"))
    except ValueError as exc:            # e.g. featurizer/classifier mismatch
        raise ArtifactError(f"artifact stages are inconsistent: {exc}") from None
    pipeline.fitted = bool(manifest.get("fitted"))
    return pipeline
