"""Stdlib JSON-Schema-subset validator shared by every artifact kind.

Grew up guarding ``EVAL_matrix.json``; now that pipeline manifests,
fuzz reports, perf profiles, and the fleet CAS all validate through one
envelope (:mod:`repro.schema.envelope`), the validator lives here.  It implements
exactly the JSON-Schema subset the artifacts need (types, required
keys, nested properties, items, enums, nullable unions) — no external
dependency, stable error paths.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence, Union


class SchemaError(ValueError):
    """A document does not match the schema; ``path`` locates the issue."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, Mapping),
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python; keep the JSON types disjoint.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(doc: Any, schema: Mapping[str, Any], path: str = "$") -> None:
    """Recursively check ``doc`` against ``schema``; raise SchemaError.

    Supported keywords: ``type`` (name or list of names), ``enum``,
    ``const``, ``required``, ``properties``,
    ``additionalProperties: {schema}`` (applied to keys not named in
    ``properties``), ``items``, and ``minItems``.
    """
    types: Union[str, Sequence[str], None] = schema.get("type")
    if types is not None:
        names = (types,) if isinstance(types, str) else tuple(types)
        unknown = [n for n in names if n not in _TYPE_CHECKS]
        if unknown:
            raise SchemaError(path, f"schema names unknown types {unknown}")
        if not any(_TYPE_CHECKS[name](doc) for name in names):
            raise SchemaError(
                path, f"expected {' or '.join(names)}, "
                      f"got {type(doc).__name__} ({doc!r:.80})")
    if "const" in schema and doc != schema["const"]:
        raise SchemaError(path, f"expected {schema['const']!r}, got {doc!r}")
    if "enum" in schema and doc not in schema["enum"]:
        raise SchemaError(path, f"{doc!r} not in {schema['enum']!r}")

    if isinstance(doc, Mapping):
        for key in schema.get("required", ()):
            if key not in doc:
                raise SchemaError(path, f"missing required key {key!r}")
        properties: Mapping[str, Any] = schema.get("properties", {})
        for key, sub in properties.items():
            if key in doc:
                validate(doc[key], sub, f"{path}.{key}")
        extra = schema.get("additionalProperties")
        if isinstance(extra, Mapping):
            for key, value in doc.items():
                if key not in properties:
                    validate(value, extra, f"{path}.{key}")
    if isinstance(doc, (list, tuple)):
        if len(doc) < schema.get("minItems", 0):
            raise SchemaError(path, f"expected at least "
                                    f"{schema['minItems']} items, "
                                    f"got {len(doc)}")
        items = schema.get("items")
        if isinstance(items, Mapping):
            for i, value in enumerate(doc):
                validate(value, items, f"{path}[{i}]")
