"""The unified artifact envelope.

Every persisted artifact the project ships — pipeline manifest, eval
matrix, fuzz report, repair report — used to carry its own ad-hoc
framing.  This module makes the framing one shape::

    {
        "kind":           "repro-eval-matrix",      # registered kind name
        "schema_version": 1,                        # of the kind's payload
        "repro_version":  "0.9.0",                  # writer's build
        "digest":         "<sha256 of canonical payload JSON>",
        "payload":        { ... the kind-specific document ... }
    }

and validation one call: :func:`validate_envelope` checks the framing,
verifies the content digest, then applies the kind's registered payload
schema and semantic checks.  It returns the *flat* document (payload
merged with the framing keys) because that is what every in-memory
consumer already speaks.  Validation also accepts a flat document, so a
writer can check what it is about to save; :func:`load_envelope`, the
one file loader, accepts envelopes only.

Kinds self-register via :func:`register_kind`; the built-ins live in
:mod:`repro.schema.kinds` and the repair report registers its kind in
:mod:`repro.repair.report`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.schema.validator import SchemaError, validate

#: The framing keys an envelope owns; everything else is payload.
FRAMING_KEYS = ("kind", "schema_version", "repro_version", "digest",
                "payload")

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": list(FRAMING_KEYS),
    "properties": {
        "kind": {"type": "string"},
        "schema_version": {"type": "integer"},
        "repro_version": {"type": "string"},
        "digest": {"type": "string"},
        "payload": {"type": "object"},
    },
}


@dataclass(frozen=True)
class KindSpec:
    """One registered artifact kind.

    ``flat_schema`` validates the *flat* (merged) document — the shape
    all in-memory consumers use.
    ``check`` runs semantic invariants the schema language can't express
    (supported version, duplicate ids, ...) and raises SchemaError.
    ``kind_key`` is the flat key carrying the kind name ("kind" for
    every modern artifact; "format" for pipeline manifests, whose flat
    form predates the convention).
    """

    name: str
    schema_version: int
    flat_schema: Mapping[str, Any] = field(default_factory=dict)
    check: Optional[Callable[[Mapping[str, Any]], None]] = None
    kind_key: str = "kind"


_KINDS: Dict[str, KindSpec] = {}


def register_kind(spec: KindSpec) -> KindSpec:
    """Register (or replace) an artifact kind; returns ``spec``."""
    _KINDS[spec.name] = spec
    return spec


def registered_kinds() -> Dict[str, KindSpec]:
    _ensure_builtin_kinds()
    return dict(_KINDS)


def _ensure_builtin_kinds() -> None:
    # The built-in kinds register on first use, not at package import,
    # so repro.schema stays import-light (kinds.py reaches into perf
    # and pipeline constants).
    if "repro-eval-matrix" not in _KINDS:
        import repro.schema.kinds  # noqa: F401  (registers on import)


def _kind_of(doc: Mapping[str, Any]) -> KindSpec:
    name = doc.get("kind") or doc.get("format")
    if not isinstance(name, str):
        raise SchemaError("$.kind", "document declares no artifact kind")
    spec = _KINDS.get(name)
    if spec is None:
        raise SchemaError("$.kind",
                          f"unknown artifact kind {name!r} (registered: "
                          f"{sorted(_KINDS)})")
    return spec


def payload_digest(payload: Mapping[str, Any]) -> str:
    """sha256 over the canonical JSON form of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def is_envelope(doc: Any) -> bool:
    """Structural test: envelope form vs flat form."""
    return (isinstance(doc, Mapping)
            and isinstance(doc.get("payload"), Mapping)
            and "digest" in doc and "kind" in doc)


def make_envelope(flat_doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Wrap a flat artifact document into its envelope.

    The kind is read from the document's own ``kind``/``format`` key;
    framing keys are lifted out, everything else becomes the payload,
    and the content digest is computed over the payload.
    """
    _ensure_builtin_kinds()
    spec = _kind_of(flat_doc)
    framing = (spec.kind_key, "schema_version", "repro_version")
    payload = {k: v for k, v in flat_doc.items() if k not in framing}
    version = flat_doc.get("schema_version", spec.schema_version)
    repro_version = flat_doc.get("repro_version")
    if repro_version is None:
        from repro import __version__ as repro_version
    return {
        "kind": spec.name,
        "schema_version": version,
        "repro_version": repro_version,
        "digest": payload_digest(payload),
        "payload": payload,
    }


def _flatten(envelope: Mapping[str, Any], spec: KindSpec) -> Dict[str, Any]:
    flat = dict(envelope["payload"])
    flat[spec.kind_key] = spec.name
    flat["schema_version"] = envelope["schema_version"]
    flat.setdefault("repro_version", envelope["repro_version"])
    return flat


def validate_envelope(doc: Any) -> Dict[str, Any]:
    """Validate an artifact document in either form; return it flat.

    Envelope form: framing schema, content-digest integrity, then the
    kind's flat schema + semantic checks over the merged document.
    Flat form (a document about to be saved): the kind's flat schema +
    checks directly.
    Raises :class:`SchemaError` on any violation.
    """
    _ensure_builtin_kinds()
    if not isinstance(doc, Mapping):
        raise SchemaError("$", f"expected object, got {type(doc).__name__}")
    if is_envelope(doc):
        validate(doc, ENVELOPE_SCHEMA)
        spec = _kind_of(doc)
        expected = payload_digest(doc["payload"])
        if doc["digest"] != expected:
            raise SchemaError(
                "$.digest",
                f"content digest mismatch: envelope says "
                f"{doc['digest'][:16]}…, payload hashes to "
                f"{expected[:16]}… (corrupt or hand-edited artifact)")
        flat = _flatten(doc, spec)
    else:
        spec = _kind_of(doc)
        flat = dict(doc)
    if spec.flat_schema:
        validate(flat, spec.flat_schema)
    if spec.check is not None:
        spec.check(flat)
    return flat


def validate_kind(name: str, doc: Any) -> Dict[str, Any]:
    """Like :func:`validate_envelope`, pinned to one kind.

    Per-kind loaders (``load_matrix_artifact``, ...) pin their kind
    through :func:`load_envelope`, so a structurally valid document of
    the *wrong* kind is still rejected.
    """
    _ensure_builtin_kinds()
    spec = _KINDS.get(name)
    if spec is None:
        raise SchemaError("$.kind", f"unknown artifact kind {name!r}")
    if is_envelope(doc):
        if doc.get("kind") != name:
            raise SchemaError("$.kind", f"expected {name!r}, "
                                        f"got {doc.get('kind')!r}")
        return validate_envelope(doc)
    if not isinstance(doc, Mapping):
        raise SchemaError("$", f"expected object, got {type(doc).__name__}")
    if spec.flat_schema:
        validate(doc, spec.flat_schema)
    if spec.check is not None:
        spec.check(doc)
    return dict(doc)


def save_envelope(flat_doc: Mapping[str, Any], path: str,
                  kind: Optional[str] = None) -> None:
    """Validate ``flat_doc`` and write it to ``path`` in envelope form
    (sorted keys, trailing newline → byte-stable)."""
    if kind is not None:
        validate_kind(kind, flat_doc)      # flat-path error messages
    else:
        validate_envelope(flat_doc)
    envelope = make_envelope(flat_doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_envelope(path: str, kind: Optional[str] = None) -> Dict[str, Any]:
    """Read an artifact written by :func:`save_envelope`, validate it
    (pinned to ``kind`` when given), and return the flat document.

    The one file loader: a file that is not in envelope form is
    rejected — flat documents are validated only in memory, before save.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not is_envelope(doc):
        raise SchemaError("$", f"{path} is not an artifact envelope "
                               "(re-save it with save_envelope)")
    return validate_envelope(doc) if kind is None else validate_kind(kind, doc)
