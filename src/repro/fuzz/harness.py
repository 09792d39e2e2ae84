"""The differential fuzz campaign: generate → check → shrink → persist.

One campaign is: replay the corpus (every stored minimized case must
re-trigger its recorded signature), run the known-bug seed templates,
then push ``budget`` freshly generated programs through the full
pipeline — compile (+IR verify), optimizer pipeline at O2, program
graph, IR2vec embedding, runtime simulation — and cross-check the
differential oracles on each.  Findings (typed rejections, oracle
disagreements, hard failures) are minimized with ddmin and persisted to
the content-addressed corpus.

Scheduling: per-program checks fan out through
``ExecutionEngine.map(..., chunk_size=...)`` — serial (``workers=0``)
and parallel runs are byte-identical because each check is a pure
function of (name, source, expected, nprocs, max_steps) and results
come back in input order.  Reduction runs in the parent and is equally
deterministic, so the emitted report never depends on worker count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine import ExecutionEngine, default_engine
from repro.fuzz.corpus import CorpusCase, CorpusStore
from repro.fuzz.grammar import (
    FuzzGrammarConfig,
    GeneratedProgram,
    generate_programs,
    known_bug_seeds,
)
from repro.fuzz.oracles import ORACLE_NAMES, OracleBench, first_false_alarm
from repro.fuzz.reduce import ddmin_lines
from repro.fuzz.triage import classify_failure
from repro.obs.log import EVENTS
from repro.obs.metrics import METRICS

_OBS_PROGRAMS = METRICS.counter(
    "repro_fuzz_programs_total",
    "Fuzzed programs checked, by differential-check status.",
    labelnames=("status",))
_OBS_MINIMIZED = METRICS.counter(
    "repro_fuzz_minimized_total", "Findings shrunk with ddmin.")
_OBS_CAMPAIGNS = METRICS.counter(
    "repro_fuzz_campaigns_total", "Fuzz campaigns run in this process.")


@dataclass(frozen=True)
class FuzzConfig:
    """Everything one campaign depends on (and nothing it doesn't —
    no wall clocks, no environment: same config ⇒ same report)."""

    seed: int = 0
    budget: int = 100
    nprocs: int = 3
    max_steps: int = 120_000
    max_stmts: int = 5
    bug_ratio: float = 0.4
    corpus_dir: Optional[str] = None
    include_known_bugs: bool = True
    reduce_max_tests: int = 120
    reduce_max_lines: int = 250
    chunk_size: int = 8

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        self.grammar()          # validate the grammar knobs eagerly

    def grammar(self) -> FuzzGrammarConfig:
        return FuzzGrammarConfig(seed=self.seed, nprocs=self.nprocs,
                                 max_stmts=self.max_stmts,
                                 bug_ratio=self.bug_ratio)


# ---------------------------------------------------------------------------
# Per-program differential check (pure; runs in workers via engine.map)
# ---------------------------------------------------------------------------

_DIGITS = re.compile(r"\d+")


def _fingerprint(detail: str) -> str:
    """Message normalized for signature stability: line/entity numbers
    vary as the reducer drops lines, the wording does not."""
    return _DIGITS.sub("#", detail)[:120]


def _failure_record(record: Dict[str, Any], exc: Exception,
                    ) -> Dict[str, Any]:
    info = classify_failure(exc)
    record.update(status="hard_failure", kind=info.kind,
                  oracle=info.stage or "unknown",
                  detail=info.message[:200],
                  fingerprint=_fingerprint(info.kind))
    return record


def check_source(name: str, source: str, expected: str = "correct",
                 nprocs: int = 3, max_steps: int = 120_000,
                 printed_ir: Optional[Dict[str, str]] = None,
                 static_findings: Optional[list] = None,
                 ) -> Dict[str, Any]:
    """Run one source through the whole chain; classify the outcome.

    status: ``agree`` (everything consistent), ``rejected`` (typed
    frontend rejection), ``disagreement`` (a trusted oracle flagged an
    expected-correct program), ``static_disagreement`` (the flagging
    trusted oracle is the in-tree dataflow analyzer — its findings carry
    witnesses, so these triage separately instead of inflating the
    unexplained-disagreement count), or ``hard_failure`` (a crash
    anywhere — frontend, IR verifier, optimizer, graph builder,
    embedding, simulator, or an oracle itself).

    ``printed_ir``, when given, receives the IR printed right after the
    O0 and O2 compiles (keyed by opt level), for a caller that checks
    the compile is deterministic against a fresh one.
    ``static_findings``, when given, receives the findings of the
    ``static`` oracle (the dataflow analyzer on the O0 module).
    """
    import numpy as np

    from repro.frontend import CompileError, compile_c

    record: Dict[str, Any] = {
        "name": name, "status": "agree", "kind": "", "oracle": "",
        "detail": "", "fingerprint": "", "oracles": {},
    }

    def compile_at(opt_level: str):
        compiled = compile_c(source, name, opt_level, verify=True)
        if printed_ir is not None:
            from repro.ir.printer import print_module

            printed_ir[opt_level] = print_module(compiled)
        return compiled

    try:
        module = compile_at("O0")
    except CompileError as exc:
        record.update(status="rejected", kind="compile_reject",
                      oracle="frontend", detail=str(exc)[:200],
                      fingerprint=_fingerprint(str(exc)))
        return record
    except Exception as exc:
        return _failure_record(record, exc)

    # The optimizer must also digest every program the frontend accepts.
    try:
        compile_at("O2")
    except CompileError as exc:
        record.update(status="hard_failure", kind="optimizer_reject",
                      oracle="passes", detail=str(exc)[:200],
                      fingerprint=_fingerprint(str(exc)))
        return record
    except Exception as exc:
        return _failure_record(record, exc)

    try:
        from repro.graphs.programl import build_program_graph

        graph = build_program_graph(module)
        if graph.num_nodes <= 0:
            record.update(status="hard_failure", kind="graph_empty",
                          oracle="graphs", fingerprint="graph_empty")
            return record
    except Exception as exc:
        return _failure_record(record, exc)

    try:
        from repro.embeddings.ir2vec import encode_module

        vec = encode_module(module)
        if not np.isfinite(np.asarray(vec)).all():
            record.update(status="hard_failure",
                          kind="embedding_nonfinite", oracle="embeddings",
                          fingerprint="embedding_nonfinite")
            return record
    except Exception as exc:
        return _failure_record(record, exc)

    try:
        from repro.mpi.simulator import MPISimulator

        report = MPISimulator(module, nprocs, max_steps=max_steps).run()
    except Exception as exc:
        return _failure_record(record, exc)

    bench = OracleBench(nprocs=nprocs, max_steps=max_steps)
    try:
        verdicts = bench.verdicts(module, report, static_findings)
    except Exception as exc:
        info = classify_failure(exc)
        record.update(status="hard_failure",
                      kind=f"oracle_crash:{info.exception}",
                      oracle=info.stage or "oracle",
                      detail=info.message[:200],
                      fingerprint=_fingerprint(
                          f"oracle_crash:{info.exception}"))
        return record

    record["oracles"] = {v.oracle: v.verdict for v in verdicts}
    if expected == "correct":
        alarm = first_false_alarm(verdicts)
        if alarm is not None:
            oracle, verdict = alarm
            kinds = next((v.kinds for v in verdicts if v.oracle == oracle),
                         ())
            status = ("static_disagreement" if oracle == "static"
                      else "disagreement")
            record.update(status=status,
                          kind=f"false_alarm:{verdict}", oracle=oracle,
                          detail=",".join(kinds)[:200],
                          fingerprint=",".join(kinds)[:120])
    return record


def _check_worker(payload: Tuple[str, str, str, int, int],
                  ) -> Dict[str, Any]:
    name, source, expected, nprocs, max_steps = payload
    return check_source(name, source, expected, nprocs, max_steps)


def _signature(record: Dict[str, Any]) -> Dict[str, str]:
    return {"status": record["status"], "kind": record["kind"],
            "oracle": record["oracle"]}


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

def _payloads(programs: Sequence[GeneratedProgram], config: FuzzConfig,
              ) -> List[Tuple[str, str, str, int, int]]:
    return [(p.name, p.source, p.expected, config.nprocs, config.max_steps)
            for p in programs]


def replay_corpus(store: CorpusStore, config: FuzzConfig,
                  engine: Optional[ExecutionEngine] = None,
                  ) -> List[Dict[str, Any]]:
    """Re-check every stored case against its recorded signature."""
    engine = engine or default_engine()
    cases = store.cases()
    payloads = [(c.name, c.source, c.expected, config.nprocs,
                 config.max_steps) for c in cases]
    records = engine.map(_check_worker, payloads,
                         chunk_size=config.chunk_size)
    entries: List[Dict[str, Any]] = []
    for case, record in zip(cases, records):
        observed = _signature(record)
        entries.append({
            "digest": case.digest,
            "name": case.name,
            "ok": observed == case.signature,
            "recorded": case.signature,
            "observed": observed,
        })
    return entries


def _minimize(program: GeneratedProgram, record: Dict[str, Any],
              config: FuzzConfig) -> str:
    """Shrink a finding while preserving its full signature (including
    the normalized-message fingerprint, so e.g. a nesting-limit
    rejection can never 'minimize' into an unrelated syntax error)."""
    target = (record["status"], record["kind"], record["oracle"],
              record["fingerprint"])

    def predicate(candidate: str) -> bool:
        r = check_source(program.name, candidate, program.expected,
                         config.nprocs, config.max_steps)
        return (r["status"], r["kind"], r["oracle"],
                r["fingerprint"]) == target

    if len(program.source.splitlines()) > config.reduce_max_lines:
        return program.source
    return ddmin_lines(program.source, predicate,
                       max_tests=config.reduce_max_tests)


def run_campaign(config: FuzzConfig,
                 engine: Optional[ExecutionEngine] = None,
                 pipeline: Any = None,
                 extra_seeds: Optional[Sequence[GeneratedProgram]] = None,
                 ) -> Dict[str, Any]:
    """Run one full campaign; returns the schema-checked report doc.

    ``pipeline`` is an optional fitted
    :class:`~repro.pipeline.DetectionPipeline` consulted as the model
    oracle (its disagreements are recorded, never blocking).
    ``extra_seeds`` are checked ahead of generated programs, after the
    known-bug templates.
    """
    from repro import __version__
    from repro.fuzz.report import validate_fuzz_report

    engine = engine or default_engine()
    store = CorpusStore(config.corpus_dir) if config.corpus_dir else None

    # Long campaigns are where a progress log earns its keep: honor
    # $REPRO_OBS_LOG even outside the server (explicit sinks still win).
    EVENTS.configure_from_env()
    if METRICS.enabled:
        _OBS_CAMPAIGNS.inc()
    if EVENTS.enabled:
        EVENTS.emit("fuzz.campaign_start", seed=config.seed,
                    budget=config.budget, nprocs=config.nprocs,
                    corpus_dir=config.corpus_dir, workers=engine.workers)

    # 1. Replay first: the corpus is the accumulated regression surface.
    replay = replay_corpus(store, config, engine) if store is not None \
        else []
    replay_mismatches = sum(1 for e in replay if not e["ok"])
    if EVENTS.enabled and replay:
        EVENTS.emit("fuzz.replay_done", cases=len(replay),
                    mismatches=replay_mismatches,
                    severity="warning" if replay_mismatches else "info")

    # 2. Seeds, then fresh programs.
    seeds: List[GeneratedProgram] = []
    if config.include_known_bugs:
        seeds.extend(known_bug_seeds())
    if extra_seeds:
        seeds.extend(extra_seeds)
    generated = generate_programs(config.grammar(), config.budget)
    programs = seeds + generated
    records = engine.map(_check_worker, _payloads(programs, config),
                         chunk_size=config.chunk_size)

    # 3. Classify, shrink, persist.
    known_signatures = set()
    known_origin_sigs = set()
    if store is not None:
        for c in store.cases():
            known_signatures.add((c.status, c.kind, c.oracle,
                                  c.fingerprint))
            known_origin_sigs.add((c.origin, c.status, c.kind, c.oracle,
                                   c.fingerprint))
    findings: List[Dict[str, Any]] = []
    counts = {"agree": 0, "rejected": 0, "disagreements": 0,
              "static_disagreements": 0, "hard_failures": 0,
              "generator_rejects": 0}
    new_cases = minimized = 0
    for program, record in zip(programs, records):
        status = record["status"]
        if METRICS.enabled:
            _OBS_PROGRAMS.labels(status).inc()
        if status == "agree":
            counts["agree"] += 1
            continue
        if EVENTS.enabled:
            EVENTS.emit("fuzz.finding", severity="warning",
                        name=program.name, status=status,
                        kind=record["kind"], oracle=record["oracle"],
                        origin=program.origin)
        counts["rejected" if status == "rejected" else
               "disagreements" if status == "disagreement" else
               "static_disagreements" if status == "static_disagreement"
               else "hard_failures"] += 1
        if status == "rejected" and program.origin.startswith("generated"):
            # The grammar promises well-formed programs; a rejection of
            # one is a generator (or frontend) bug, not a benign case.
            counts["generator_rejects"] += 1
        sig = (record["status"], record["kind"], record["oracle"],
               record["fingerprint"])
        # Generated findings dedup on the signature alone; seed
        # templates dedup per-origin (two distinct templates may share
        # one message but must both stay in the corpus).  The report's
        # ``in_corpus`` flag means "this signature is already
        # represented" — by a stored case or an earlier finding of the
        # same campaign.
        if program.origin.startswith("known-bug"):
            in_corpus = (program.origin, *sig) in known_origin_sigs
        else:
            in_corpus = sig in known_signatures
        minimized_source: Optional[str] = None
        digest: Optional[str] = None
        if not in_corpus:
            minimized_source = _minimize(program, record, config)
            minimized += 1
            if METRICS.enabled:
                _OBS_MINIMIZED.inc()
            # Mark the signature seen even without a store: later
            # duplicate findings must not each pay a full ddmin pass.
            known_signatures.add(sig)
            known_origin_sigs.add((program.origin, *sig))
            if store is not None:
                case = CorpusCase(
                    name=program.name, source=minimized_source,
                    status=record["status"], kind=record["kind"],
                    oracle=record["oracle"],
                    fingerprint=record["fingerprint"],
                    expected=program.expected,
                    detail=record["detail"], origin=program.origin,
                    seed=program.seed,
                    index=program.index if program.index >= 0 else None)
                digest = case.digest
                if store.add(case):
                    new_cases += 1
        findings.append({
            "name": program.name,
            "status": record["status"],
            "kind": record["kind"],
            "oracle": record["oracle"],
            "detail": record["detail"],
            "expected": program.expected,
            "origin": program.origin,
            "source": program.source,
            "minimized_source": minimized_source,
            "digest": digest,
            "in_corpus": in_corpus,
        })

    # 4. Detection statistics over expected-incorrect generated programs.
    detection: Dict[str, Dict[str, int]] = {
        name: {"detected": 0, "missed": 0, "skipped": 0}
        for name in ORACLE_NAMES}
    for program, record in zip(programs, records):
        if program.expected != "incorrect" or record["status"] != "agree":
            continue
        for oracle, verdict in record["oracles"].items():
            if verdict == "unavailable":
                detection[oracle]["skipped"] += 1
            elif verdict in ("incorrect", "timeout", "runtime_error"):
                detection[oracle]["detected"] += 1
            else:
                detection[oracle]["missed"] += 1

    # 5. Optional model oracle, one batch-first predict call.
    model: Optional[Dict[str, Any]] = None
    if pipeline is not None:
        checkable = [(p, r) for p, r in zip(programs, records)
                     if r["status"] in ("agree", "disagreement",
                                        "static_disagreement")]
        results = pipeline.predict_batch(
            [(p.name, p.source) for p, _r in checkable])
        agreements = sum(
            1 for (p, _r), res in zip(checkable, results)
            if (p.expected == "correct") == bool(res.is_correct))
        model = {"method": getattr(pipeline, "method", "?"),
                 "checked": len(checkable),
                 "agreements": agreements,
                 "disagreements": len(checkable) - agreements}

    doc: Dict[str, Any] = {
        "kind": "repro-fuzz-report",
        "schema_version": 1,
        "repro_version": __version__,
        "config": {
            "seed": config.seed, "budget": config.budget,
            "nprocs": config.nprocs, "max_steps": config.max_steps,
            "max_stmts": config.max_stmts,
            "bug_ratio": config.bug_ratio,
            "corpus_dir": config.corpus_dir,
            "include_known_bugs": config.include_known_bugs,
            "chunk_size": config.chunk_size,
        },
        "oracles": list(ORACLE_NAMES),
        "counts": {
            "programs": len(programs),
            "generated": len(generated),
            "seeded": len(seeds),
            "expected_incorrect": sum(1 for p in generated
                                      if p.expected == "incorrect"),
            **counts,
            "replayed": len(replay),
            "replay_mismatches": replay_mismatches,
            "minimized": minimized,
            "new_corpus_cases": new_cases,
            "corpus_cases": len(store) if store is not None else 0,
        },
        "detection": detection,
        "replay": replay,
        "findings": findings,
        "model": model,
    }
    validate_fuzz_report(doc)          # never emit an invalid report
    if EVENTS.enabled:
        EVENTS.emit("fuzz.campaign_end",
                    severity="warning" if campaign_failed(doc) else "info",
                    programs=len(programs),
                    hard_failures=counts["hard_failures"],
                    disagreements=counts["disagreements"],
                    minimized=minimized, new_corpus_cases=new_cases)
    return doc


def campaign_failed(doc: Dict[str, Any]) -> bool:
    """The CI gate: hard failures, replay mismatches, and rejections of
    *generated* programs (a generator-contract violation) block; seed
    rejections and oracle disagreements are recorded, not blocking."""
    counts = doc["counts"]
    return (counts["hard_failures"] > 0
            or counts["replay_mismatches"] > 0
            or counts.get("generator_rejects", 0) > 0)
