#!/usr/bin/env python
"""Validate Prometheus text exposition format 0.0.4.

The serving layer renders ``/metrics`` by hand (stdlib only — see
``repro.obs.metrics.render_prometheus``), so CI needs an independent
reading of the wire format: a scraper that rejects the output is a
broken dashboard three weeks later.  This checker enforces the
`exposition-format grammar
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ line
by line, plus the semantic invariants a real Prometheus applies on
ingest:

* metric and label names match the allowed character classes;
* label values use only the three escapes ``\\\\``, ``\\"``, ``\\n``;
* sample values parse as Go floats (including ``+Inf``/``-Inf``/``NaN``);
* ``# TYPE`` appears before any sample of its metric, at most once;
* every sample belongs to a declared metric family (given any ``TYPE``
  lines exist at all);
* histograms are complete and coherent: ``_sum`` and ``_count``
  present, ``le`` buckets cumulative (non-decreasing in increasing
  ``le`` order) and ending in ``+Inf`` whose count equals ``_count``;
* counters are non-negative.

Importable (``check_text(text) -> [errors]``) for the unit tests, and a
CLI (``python ci/check_metrics.py metrics.txt`` or ``-`` for stdin) for
the serve-smoke workflow.  Exit 0 clean, 1 on any violation.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, List, Optional, Tuple

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>-?[0-9]+))?$")


def _parse_float(raw: str) -> Optional[float]:
    """Go-style float: plain floats plus +Inf / -Inf / NaN (any case
    Prometheus emits); rejects python-isms like ``inf`` or ``1_0``."""
    if raw in ("+Inf", "Inf"):
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    if raw == "NaN":
        return float("nan")
    if "_" in raw or raw.lower() in ("inf", "+inf", "-inf", "nan"):
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _parse_labels(raw: str) -> Optional[List[Tuple[str, str]]]:
    """Parse ``name="value",...``; None on any grammar violation."""
    pairs: List[Tuple[str, str]] = []
    i, n = 0, len(raw)
    while i < n:
        eq = raw.find("=", i)
        if eq < 0:
            return None
        name = raw[i:eq]
        if not LABEL_NAME.match(name):
            return None
        if eq + 1 >= n or raw[eq + 1] != '"':
            return None
        value_chars: List[str] = []
        j = eq + 2
        while j < n:
            ch = raw[j]
            if ch == "\\":
                if j + 1 >= n or raw[j + 1] not in ('\\', '"', 'n'):
                    return None
                value_chars.append({"\\": "\\", '"': '"',
                                    "n": "\n"}[raw[j + 1]])
                j += 2
            elif ch == '"':
                break
            else:
                value_chars.append(ch)
                j += 1
        else:
            return None                       # unterminated value
        pairs.append((name, "".join(value_chars)))
        i = j + 1
        if i < n:
            if raw[i] != ",":
                return None
            i += 1                            # trailing comma is legal
    return pairs


def _family(sample_name: str, types: Dict[str, str]) -> str:
    """Map a sample name to its declared family (histogram/summary
    series carry ``_bucket``/``_sum``/``_count`` suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[:-len(suffix)]
            if types.get(base) in ("histogram", "summary"):
                return base
    return sample_name


def check_text(text: str) -> List[str]:
    """All format violations in one exposition payload, as
    ``line N: message`` strings (empty list == valid)."""
    errors: List[str] = []
    types: Dict[str, str] = {}             # family -> declared type
    helped: Dict[str, bool] = {}
    seen_samples: set = set()              # families with samples out
    series: Dict[Tuple, float] = {}
    # histogram family -> {(other-labels) -> [(le, count, line)]}
    buckets: Dict[str, Dict[Tuple, List[Tuple[float, float, int]]]] = {}
    sums: Dict[Tuple[str, Tuple], float] = {}
    counts: Dict[Tuple[str, Tuple], Tuple[float, int]] = {}

    for lineno, line in enumerate(text.split("\n"), start=1):
        if line != line.rstrip("\r"):
            errors.append(f"line {lineno}: carriage return (the format "
                          "is LF-terminated)")
            line = line.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                continue                   # a plain comment; ignored
            if len(parts) < 3 or not METRIC_NAME.match(parts[2]):
                errors.append(f"line {lineno}: malformed {parts[1]} line")
                continue
            name = parts[2]
            if parts[1] == "HELP":
                if helped.get(name):
                    errors.append(f"line {lineno}: second HELP for "
                                  f"{name!r}")
                helped[name] = True
                continue
            declared = parts[3].strip() if len(parts) > 3 else ""
            if declared not in VALID_TYPES:
                errors.append(f"line {lineno}: invalid TYPE {declared!r} "
                              f"for {name!r}")
                continue
            if name in types:
                errors.append(f"line {lineno}: second TYPE for {name!r}")
            elif name in seen_samples:
                errors.append(f"line {lineno}: TYPE for {name!r} after "
                              "its samples")
            types[name] = declared
            continue

        match = _SAMPLE.match(line)
        if not match:
            errors.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name = match.group("name")
        labels_raw = match.group("labels")
        labels = _parse_labels(labels_raw) if labels_raw is not None else []
        if labels is None:
            errors.append(f"line {lineno}: malformed labels on {name!r}")
            continue
        value = _parse_float(match.group("value"))
        if value is None:
            errors.append(f"line {lineno}: unparseable value "
                          f"{match.group('value')!r} for {name!r}")
            continue
        family = _family(name, types)
        seen_samples.add(family)
        key = (name, tuple(sorted(labels)))
        if key in series:
            errors.append(f"line {lineno}: duplicate series "
                          f"{name}{dict(labels)!r}")
        series[key] = value
        if types and family not in types:
            errors.append(f"line {lineno}: sample {name!r} has no TYPE "
                          "declaration")
            continue
        kind = types.get(family)
        if kind == "counter" and value < 0:
            errors.append(f"line {lineno}: counter {name!r} is negative "
                          f"({value})")
        if kind == "histogram":
            rest = tuple(sorted((k, v) for k, v in labels if k != "le"))
            if name.endswith("_bucket"):
                le = dict(labels).get("le")
                bound = _parse_float(le) if le is not None else None
                if bound is None:
                    errors.append(f"line {lineno}: bucket of {family!r} "
                                  "lacks a float 'le' label")
                else:
                    buckets.setdefault(family, {}).setdefault(
                        rest, []).append((bound, value, lineno))
            elif name.endswith("_sum"):
                sums[(family, rest)] = value
            elif name.endswith("_count"):
                counts[(family, rest)] = (value, lineno)
            else:
                errors.append(f"line {lineno}: stray sample {name!r} in "
                              f"histogram {family!r}")

    # -- histogram coherence ------------------------------------------------
    for family, by_series in buckets.items():
        for rest, entries in by_series.items():
            where = dict(rest)
            ordered = sorted(entries, key=lambda e: e[0])
            cum = [count for _b, count, _l in ordered]
            if any(b < a for a, b in zip(cum, cum[1:])):
                errors.append(f"histogram {family}{where!r}: bucket "
                              "counts are not cumulative")
            if not ordered or ordered[-1][0] != float("inf"):
                errors.append(f"histogram {family}{where!r}: missing "
                              "'+Inf' bucket")
                continue
            if (family, rest) not in counts:
                errors.append(f"histogram {family}{where!r}: missing "
                              f"{family}_count")
            else:
                total, _lineno = counts[(family, rest)]
                if ordered[-1][1] != total:
                    errors.append(
                        f"histogram {family}{where!r}: +Inf bucket "
                        f"({ordered[-1][1]}) != _count ({total})")
            if (family, rest) not in sums:
                errors.append(f"histogram {family}{where!r}: missing "
                              f"{family}_sum")
    for (family, rest), (_total, _lineno) in counts.items():
        if family not in buckets or rest not in buckets.get(family, {}):
            errors.append(f"histogram {family}{dict(rest)!r}: _count "
                          "without any buckets")
    return errors


def declared_families(text: str) -> set:
    """Family names with a ``# TYPE`` declaration in the payload."""
    return {line.split()[2] for line in text.split("\n")
            if line.startswith("# TYPE ") and len(line.split()) >= 3}


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="check_metrics",
        description="Validate Prometheus text exposition format 0.0.4.")
    parser.add_argument("path", nargs="?", default="-",
                        help="exposition file, or '-' for stdin")
    parser.add_argument("--require", action="append", default=[],
                        metavar="FAMILY",
                        help="fail unless this metric family is declared "
                             "(repeatable; e.g. --require "
                             "repro_fleet_rerouted_total)")
    args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    errors = check_text(text)
    declared = declared_families(text)
    for family in args.require:
        if family not in declared:
            errors.append(f"required family {family!r} is not declared")
    for error in errors:
        print(f"check_metrics: {error}", file=sys.stderr)
    families = len(declared)
    samples = sum(1 for line in text.split("\n")
                  if line.strip() and not line.startswith("#"))
    if errors:
        print(f"check_metrics: FAIL — {len(errors)} violation(s) over "
              f"{families} families / {samples} samples", file=sys.stderr)
        return 1
    print(f"check_metrics: ok — {families} families, {samples} samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
