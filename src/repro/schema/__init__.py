"""One versioned, schema-checked envelope for every persisted artifact.

Public API:

* :class:`SchemaError` / :func:`validate` — the stdlib JSON-Schema-
  subset validator every artifact kind shares.
* :func:`validate_envelope` — validate any artifact document (envelope
  or in-memory flat form) and get the flat document back.
* :func:`validate_kind` — the same, pinned to one registered kind.
* :func:`make_envelope` / :func:`payload_digest` / :func:`is_envelope`
  — envelope construction and content-digest integrity.
* :func:`save_envelope` / :func:`load_envelope` — validated file I/O;
  ``load_envelope`` is the one file loader and reads envelopes only.
* :class:`KindSpec` / :func:`register_kind` — the extensible kind
  registry (built-ins in :mod:`repro.schema.kinds`; the repair report
  registers its own kind).
"""

from repro.schema.envelope import (
    ENVELOPE_SCHEMA,
    KindSpec,
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
from repro.schema.validator import SchemaError, validate

__all__ = [
    "ENVELOPE_SCHEMA",
    "KindSpec",
    "SchemaError",
    "is_envelope",
    "load_envelope",
    "make_envelope",
    "payload_digest",
    "register_kind",
    "registered_kinds",
    "save_envelope",
    "validate",
    "validate_envelope",
    "validate_kind",
]
