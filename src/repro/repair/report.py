"""The ``repro-repair-report`` artifact kind (``REPAIR_report.json``).

Like every persisted artifact, the repair report is a digest-verified
schema envelope (:mod:`repro.schema`): the runner refuses to emit an
invalid document and the CI gate refuses to consume one.  Per-case
provenance is the point — each entry records the case digest, the
operator hint and the inverse rule that landed, full trusted-oracle
verdicts before and after, the attempt count, and the unified diff.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.schema import SchemaError
from repro.schema.envelope import KindSpec, register_kind

REPAIR_KIND = "repro-repair-report"

_NULLABLE_STRING = {"type": ["string", "null"]}

#: A gate verdict (see :class:`repro.repair.gate.GateVerdict`).
_GATE_BLOCK = {
    "type": "object",
    "required": ["clean", "status", "kind", "oracle", "deterministic",
                 "oracles"],
    "properties": {
        "clean": {"type": "boolean"},
        "status": {"type": "string"},
        "kind": {"type": "string"},
        "oracle": {"type": "string"},
        "detail": {"type": "string"},
        "deterministic": {"type": "boolean"},
        "oracles": {"type": "object",
                    "additionalProperties": {"type": "string"}},
    },
}

_CASE_SCHEMA = {
    "type": "object",
    "required": ["name", "case_digest", "origin", "operator_hint",
                 "detected", "outcome", "repaired", "attempts",
                 "operator", "patch", "before", "after"],
    "properties": {
        "name": {"type": "string"},
        "case_digest": {"type": "string"},
        "origin": {"type": "string"},
        "operator_hint": _NULLABLE_STRING,
        "detected": {"type": "boolean"},
        "outcome": {"enum": ["repaired", "already_clean", "unrepaired"]},
        "repaired": {"type": "boolean"},
        "attempts": {"type": "integer"},
        "operator": {"type": "string"},
        "note": {"type": "string"},
        "patch": {"type": "string"},
        "repaired_source": _NULLABLE_STRING,
        "repaired_digest": {"type": "string"},
        "before": _GATE_BLOCK,
        "after": {"type": ["object", "null"],
                  "required": _GATE_BLOCK["required"],
                  "properties": _GATE_BLOCK["properties"]},
    },
}

REPAIR_SCHEMA = {
    "type": "object",
    "required": ["kind", "schema_version", "repro_version", "config",
                 "counts", "by_operator", "repair_rate", "cases"],
    "properties": {
        "kind": {"const": REPAIR_KIND},
        "schema_version": {"type": "integer"},
        "repro_version": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["nprocs", "max_steps", "max_attempts"],
            "properties": {
                "nprocs": {"type": "integer"},
                "max_steps": {"type": "integer"},
                "max_attempts": {"type": "integer"},
                "corpus_dir": _NULLABLE_STRING,
                "seed": {"type": ["integer", "null"]},
                "budget": {"type": ["integer", "null"]},
            },
        },
        "counts": {
            "type": "object",
            "required": ["cases", "with_ground_truth", "detected",
                         "repaired", "already_clean", "unrepaired",
                         "clean_after", "attempts"],
            "additionalProperties": {"type": "integer"},
        },
        "by_operator": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": {"type": "integer"},
            },
        },
        #: clean-after / with-ground-truth; null when no case carries
        #: mutation metadata (nothing to measure against).
        "repair_rate": {"type": ["number", "null"]},
        "cases": {"type": "array", "items": _CASE_SCHEMA},
    },
}


def _check_repair(doc: Mapping[str, Any]) -> None:
    version = doc["schema_version"]
    if version != 1:
        raise SchemaError("$.schema_version",
                          f"unsupported repair report schema {version} "
                          f"(this build understands 1)")
    for i, case in enumerate(doc["cases"]):
        if case["repaired"] and case["after"] is None:
            raise SchemaError(f"$.cases[{i}].after",
                              "repaired case without an after-verdict")
        if case["repaired"] and case["outcome"] != "repaired":
            raise SchemaError(f"$.cases[{i}].outcome",
                              "repaired flag disagrees with outcome")


REPAIR_REPORT = register_kind(KindSpec(
    name=REPAIR_KIND, schema_version=1,
    flat_schema=REPAIR_SCHEMA, check=_check_repair))


def validate_repair_report(doc: Any) -> None:
    """Raise :class:`~repro.schema.SchemaError` unless ``doc`` is a
    repair report (envelope or flat form) this build understands."""
    from repro.schema import validate_kind

    validate_kind(REPAIR_KIND, doc)


def save_repair_report(doc: Dict[str, Any], path: str) -> None:
    """Validate and write in envelope form (sorted keys → byte-stable)."""
    from repro.schema import save_envelope

    save_envelope(doc, path, kind=REPAIR_KIND)


def load_repair_report(path: str) -> Dict[str, Any]:
    """Read a saved report; return the flat doc."""
    from repro.schema import load_envelope

    return load_envelope(path, kind=REPAIR_KIND)


def render_repair_report(doc: Dict[str, Any]) -> str:
    """Human-readable summary for the CLI."""
    c = doc["counts"]
    rate = doc["repair_rate"]
    lines = [
        f"repair run ({c['cases']} cases, "
        f"{c['with_ground_truth']} with ground-truth mutation metadata)",
        f"  repaired        {c['repaired']:>6}",
        f"  already clean   {c['already_clean']:>6}",
        f"  unrepaired      {c['unrepaired']:>6}",
        f"  gate attempts   {c['attempts']:>6}",
        f"  repair rate     {'n/a' if rate is None else f'{rate:.2f}'}"
        "  (clean-after / ground-truth)",
    ]
    by_op = doc.get("by_operator") or {}
    if by_op:
        lines.append("  by injected operator:")
        for op, row in sorted(by_op.items()):
            total = row.get("total", 0)
            clean = row.get("repaired", 0) + row.get("already_clean", 0)
            lines.append(f"    {op:<20} {clean:>3}/{total:<3} clean")
    for case in doc["cases"]:
        if case["outcome"] == "unrepaired":
            lines.append(f"  [unrepaired] {case['name']}: "
                         f"{case['before']['kind']} "
                         f"({case['before']['oracle']}) after "
                         f"{case['attempts']} attempt(s)")
    return "\n".join(lines)
