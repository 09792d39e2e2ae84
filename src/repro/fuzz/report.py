"""Schema checking and persistence for the fuzz-campaign report.

``FUZZ_report.json`` is a generated artifact (untracked, like
``EVAL_*``) that CI uploads and gates on, so — exactly like
the evaluation-matrix artifact — it is validated on both ends: the
harness refuses to emit an invalid document and the replay/gating
tooling refuses to consume one.  The schema and validator now live in
the unified envelope package (:mod:`repro.schema`); reports are written
in envelope form, and only envelope-form files load.
"""

from __future__ import annotations

from typing import Any, Dict

FUZZ_KIND = "repro-fuzz-report"


def validate_fuzz_report(doc: Any) -> None:
    """Raise :class:`~repro.schema.SchemaError` unless ``doc`` is a
    fuzz report (envelope or flat form) this build understands."""
    from repro.schema import validate_kind

    validate_kind(FUZZ_KIND, doc)


def save_fuzz_report(doc: Dict[str, Any], path: str) -> None:
    """Validate and write the report in envelope form (sorted keys →
    byte-stable)."""
    from repro.schema import save_envelope

    save_envelope(doc, path, kind=FUZZ_KIND)


def load_fuzz_report(path: str) -> Dict[str, Any]:
    """Read a report written by :func:`save_fuzz_report` and return the
    flat document."""
    from repro.schema import load_envelope

    return load_envelope(path, kind=FUZZ_KIND)


def render_fuzz_report(doc: Dict[str, Any]) -> str:
    """Human-readable campaign summary for the CLI."""
    c = doc["counts"]
    lines = [
        f"fuzz campaign (seed {doc['config']['seed']}, "
        f"budget {doc['config']['budget']})",
        f"  programs        {c['programs']:>6}  "
        f"(generated {c['generated']}, seeded {c['seeded']})",
        f"  agree           {c['agree']:>6}",
        f"  rejected        {c['rejected']:>6}  "
        f"(generator rejects: {c['generator_rejects']})",
        f"  disagreements   {c['disagreements']:>6}  "
        f"(static-analyzer: {c.get('static_disagreements', 0)})",
        f"  hard failures   {c['hard_failures']:>6}",
        f"  corpus          {c['corpus_cases']:>6} cases  "
        f"(replayed {c['replayed']}, mismatches {c['replay_mismatches']}, "
        f"new {c['new_corpus_cases']})",
    ]
    detection = doc.get("detection") or {}
    checked = {name: row for name, row in sorted(detection.items())
               if row["detected"] + row["missed"] > 0}
    if checked:
        lines.append("  detection of injected bugs:")
        for name, row in checked.items():
            total = row["detected"] + row["missed"]
            rate = f"{row['detected'] / total:.2f}" if total else "n/a"
            lines.append(f"    {name:<12} {row['detected']:>4}/{total:<4} "
                         f"detected ({rate})")
    if doc.get("model"):
        m = doc["model"]
        lines.append(f"  model oracle    {m['agreements']}/{m['checked']} "
                     f"agree ({m['method']})")
    for finding in doc["findings"]:
        lines.append(f"  [{finding['status']}] {finding['name']}: "
                     f"{finding['kind']} ({finding['oracle']}) "
                     f"{finding['detail'][:60]}")
    return "\n".join(lines)
