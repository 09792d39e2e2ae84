"""Repair orchestration: one case, a corpus, or a generated batch.

``repair_source`` is the pure per-case primitive — gate the input,
propose candidates (hint- and finding-localized), gate candidates until
one is accepted or the attempt budget runs out.  Pure means it fans out
through ``ExecutionEngine.map`` exactly like the fuzz harness: same
tasks ⇒ same report, independent of worker count.

Outcomes:

* ``already_clean`` — the unpatched program passes the full gate; the
  repair is a validated no-op and **no patch is emitted** (this is the
  "zero false repairs on correct programs" guarantee);
* ``repaired`` — a candidate passed every trusted oracle and compiled
  byte-deterministically; the entry carries the unified diff, the
  repaired source and its digest, and both gate verdicts;
* ``unrepaired`` — no candidate within the attempt budget convinced
  the gate; the before-verdict documents what still fails.
"""

from __future__ import annotations

import difflib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datasets.mutation import source_digest
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.repair.gate import run_gate
from repro.repair.operators import propose
from repro.repair.report import validate_repair_report

_REPAIR_CASES = METRICS.counter(
    "repro_repair_cases_total",
    "Repair cases processed, by outcome.", labelnames=("outcome",))
_REPAIR_ATTEMPTS = METRICS.counter(
    "repro_repair_attempts_total",
    "Candidate patches pushed through the validation gate.")
_REPAIR_VALIDATED = METRICS.counter(
    "repro_repair_validated_total",
    "Candidate patches accepted by the gate (all trusted oracles clean, "
    "byte-deterministic compile).")

#: ``origin`` marker the fuzz grammar appends when it injects a bug.
_MUTATED_TAG = "|mutated:"


@dataclass(frozen=True)
class RepairConfig:
    """Everything a repair run depends on (no clocks, no environment)."""

    nprocs: int = 3
    max_steps: int = 120_000
    max_attempts: int = 12
    chunk_size: int = 4

    def __post_init__(self):
        if not 2 <= self.nprocs <= 8:
            raise ValueError("nprocs must be in [2, 8]")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass(frozen=True)
class RepairTask:
    """One program to repair, with optional ground-truth provenance."""

    name: str
    source: str
    hint: Optional[str] = None       # injected mutation operator, if known
    origin: str = ""


def hint_from_origin(origin: str) -> Optional[str]:
    """The injected operator name from a fuzz origin, if recorded."""
    if _MUTATED_TAG in origin:
        return origin.rsplit(_MUTATED_TAG, 1)[1]
    return None


def _unified_patch(name: str, before: str, after: str) -> str:
    return "".join(difflib.unified_diff(
        before.splitlines(keepends=True), after.splitlines(keepends=True),
        fromfile=f"a/{name}", tofile=f"b/{name}"))


def repair_source(name: str, source: str, *, nprocs: int = 3,
                  max_steps: int = 120_000, max_attempts: int = 12,
                  hint: Optional[str] = None, origin: str = "",
                  ) -> Dict[str, Any]:
    """Gate, localize, propose, validate: one case end to end."""
    started_at = time.perf_counter()
    before = run_gate(name, source, nprocs=nprocs, max_steps=max_steps)
    entry: Dict[str, Any] = {
        "name": name,
        "case_digest": source_digest(source),
        "origin": origin,
        "operator_hint": hint,
        "detected": not before.clean,
        "outcome": "already_clean",
        "repaired": False,
        "attempts": 0,
        "operator": "",
        "note": "",
        "patch": "",
        "repaired_source": None,
        "repaired_digest": "",
        "before": before.as_dict(),
        "after": None,
    }
    if not before.clean:
        findings: Optional[Sequence] = before.findings
        if findings is None:     # the gate stopped before its oracles
            try:
                from repro.verify.static import analyze_source

                _verdict, findings = analyze_source(source, name=name,
                                                    nprocs=nprocs)
            except Exception:
                findings = ()
        candidates = propose(source, nprocs=nprocs, hint=hint,
                             findings=findings)
        entry["outcome"] = "unrepaired"
        for candidate in candidates[:max_attempts]:
            entry["attempts"] += 1
            if METRICS.enabled:
                _REPAIR_ATTEMPTS.inc()
            after = run_gate(name, candidate.source, nprocs=nprocs,
                             max_steps=max_steps)
            if not after.clean:
                continue
            if METRICS.enabled:
                _REPAIR_VALIDATED.inc()
            entry.update(outcome="repaired", repaired=True,
                         operator=candidate.operator, note=candidate.note,
                         patch=_unified_patch(name, source,
                                              candidate.source),
                         repaired_source=candidate.source,
                         repaired_digest=source_digest(candidate.source),
                         after=after.as_dict())
            break
    if METRICS.enabled:
        _REPAIR_CASES.labels(entry["outcome"]).inc()
    TRACER.record("repair.case", kind="repair", start_s=started_at,
                  elapsed_s=time.perf_counter() - started_at,
                  attrs={"name": name, "outcome": entry["outcome"],
                         "attempts": entry["attempts"]})
    return entry


def _repair_worker(payload: Tuple[str, str, Optional[str], str, int, int,
                                  int]) -> Dict[str, Any]:
    name, source, hint, origin, nprocs, max_steps, max_attempts = payload
    return repair_source(name, source, nprocs=nprocs, max_steps=max_steps,
                         max_attempts=max_attempts, hint=hint,
                         origin=origin)


def repair_tasks(tasks: Sequence[RepairTask], config: RepairConfig,
                 engine: Any = None) -> List[Dict[str, Any]]:
    """Repair every task through the engine; results in input order."""
    from repro.engine import default_engine

    engine = engine or default_engine()
    payloads = [(t.name, t.source, t.hint, t.origin, config.nprocs,
                 config.max_steps, config.max_attempts) for t in tasks]
    return engine.map(_repair_worker, payloads,
                      chunk_size=config.chunk_size)


def corpus_tasks(corpus_dir: str) -> List[RepairTask]:
    """Every stored corpus case as a repair task (digest order)."""
    from repro.fuzz.corpus import CorpusStore

    return [RepairTask(name=c.name, source=c.source,
                       hint=hint_from_origin(c.origin), origin=c.origin)
            for c in CorpusStore(corpus_dir).cases()]


def generated_tasks(seed: int, budget: int, nprocs: int = 3,
                    max_stmts: int = 5, bug_ratio: float = 0.4,
                    include_correct: bool = False) -> List[RepairTask]:
    """Seed-deterministic mutants from the fuzz grammar, as tasks.

    The committed ``ci/fuzz-corpus`` cases are minimized findings
    without mutation metadata; the grammar's mutants are where
    ground-truth ``|mutated:<op>`` provenance (the repair-rate
    denominator) comes from.  ``include_correct`` adds the generated
    *correct* programs too — the no-false-repair control group.
    """
    from repro.fuzz.grammar import FuzzGrammarConfig, generate_programs

    grammar = FuzzGrammarConfig(seed=seed, nprocs=nprocs,
                                max_stmts=max_stmts, bug_ratio=bug_ratio)
    tasks: List[RepairTask] = []
    for program in generate_programs(grammar, budget):
        hint = hint_from_origin(program.origin)
        if hint is None and not include_correct:
            continue
        tasks.append(RepairTask(name=program.name, source=program.source,
                                hint=hint, origin=program.origin))
    return tasks


def build_report(entries: Sequence[Dict[str, Any]], config: RepairConfig,
                 corpus_dir: Optional[str] = None,
                 seed: Optional[int] = None,
                 budget: Optional[int] = None) -> Dict[str, Any]:
    """Assemble and validate the ``repro-repair-report`` document."""
    from repro import __version__

    counts = {"cases": len(entries), "with_ground_truth": 0,
              "detected": 0, "repaired": 0, "already_clean": 0,
              "unrepaired": 0, "clean_after": 0, "attempts": 0}
    by_operator: Dict[str, Dict[str, int]] = {}
    gt_clean = 0
    for entry in entries:
        counts[entry["outcome"]] += 1
        counts["attempts"] += entry["attempts"]
        if entry["detected"]:
            counts["detected"] += 1
        clean_after = entry["outcome"] in ("repaired", "already_clean")
        if clean_after:
            counts["clean_after"] += 1
        hint = entry["operator_hint"]
        if hint is not None:
            counts["with_ground_truth"] += 1
            if clean_after:
                gt_clean += 1
            row = by_operator.setdefault(
                hint, {"total": 0, "repaired": 0, "already_clean": 0,
                       "unrepaired": 0})
            row["total"] += 1
            row[entry["outcome"]] += 1
    rate = (gt_clean / counts["with_ground_truth"]
            if counts["with_ground_truth"] else None)
    doc: Dict[str, Any] = {
        "kind": "repro-repair-report",
        "schema_version": 1,
        "repro_version": __version__,
        "config": {"nprocs": config.nprocs,
                   "max_steps": config.max_steps,
                   "max_attempts": config.max_attempts,
                   "corpus_dir": corpus_dir, "seed": seed,
                   "budget": budget},
        "counts": counts,
        "by_operator": by_operator,
        "repair_rate": rate,
        "cases": list(entries),
    }
    validate_repair_report(doc)        # never emit an invalid report
    return doc
