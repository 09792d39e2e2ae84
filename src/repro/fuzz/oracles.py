"""Differential oracles over one compiled program.

One compile and one simulator run feed every dynamic oracle: the
ITAC / MUST analogues expose ``verdict_of(report)`` so the harness never
pays for the schedule twice, and the static analogues run module-level
(``check_module``).  Adapters configured with an external tool binary
that is missing report a typed ``unavailable`` verdict (see
:mod:`repro.verify.base`) and are skipped cleanly.

Oracle trust: a *trusted* oracle must never flag a correct-by-
construction program — doing so is a :data:`disagreement` finding.
PARCOACH is deliberately untrusted (it over-approximates by design;
the paper measures specificity 0.088), so its false alarms are recorded
as data, never as findings.  The in-tree dataflow analyzer
(:mod:`repro.verify.static`) is the opposite: it only reports definite
facts, so it runs *trusted* and its disagreements get their own triage
class.  Misses on expected-incorrect programs are allowed for every
oracle (each covers a deliberately partial error set) and are
aggregated into the report's detection table instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.mpi.simulator import RunOutcome, SimReport
from repro.obs.trace import TRACER
from repro.verify import (
    ITACTool,
    MPICheckerTool,
    MUSTTool,
    ParcoachTool,
    StaticAnalyzerTool,
)

#: Oracles whose 'incorrect' verdict on an expected-correct program is a
#: contract violation (simulator-derived dynamics, the narrow checker,
#: and our own dataflow analyzer — which only reports definite facts).
TRUSTED_ORACLES = ("simulator", "itac", "must", "mpi-checker", "static")

#: Every oracle the harness consults, in report order.
ORACLE_NAMES = ("simulator", "itac", "must", "parcoach", "mpi-checker",
                "static")


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's opinion of one program."""

    oracle: str
    verdict: str                        # 'correct' | 'incorrect' |
    #                                     'timeout' | 'runtime_error' |
    #                                     'unavailable'
    kinds: Tuple[str, ...] = ()
    detail: str = ""


def simulator_verdict(report: SimReport) -> OracleVerdict:
    """The raw runtime simulator as its own oracle."""
    if report.outcome is RunOutcome.TIMEOUT:
        return OracleVerdict("simulator", "timeout",
                             tuple(sorted(report.kinds)))
    if report.outcome is RunOutcome.FAULT:
        return OracleVerdict("simulator", "runtime_error",
                             tuple(sorted(report.kinds)))
    if report.clean:
        return OracleVerdict("simulator", "correct")
    kinds = tuple(sorted(report.kinds)) or (report.outcome.value,)
    return OracleVerdict("simulator", "incorrect", kinds)


class OracleBench:
    """The oracle battery, built once and reused across programs."""

    def __init__(self, nprocs: int = 3, max_steps: int = 120_000):
        self.nprocs = nprocs
        self.max_steps = max_steps
        self.itac = ITACTool(nprocs=nprocs, max_steps=max_steps)
        self.must = MUSTTool(nprocs=nprocs, max_steps=max_steps)
        self.parcoach = ParcoachTool()
        self.checker = MPICheckerTool()
        self.static = StaticAnalyzerTool(nprocs=nprocs)

    def _tool_verdict(self, name: str, tool, call) -> OracleVerdict:
        unavailable = tool.unavailable_verdict()
        if unavailable is not None:
            return OracleVerdict(name, "unavailable",
                                 detail=unavailable.detail)
        verdict = call()
        return OracleVerdict(name, verdict.verdict,
                             tuple(verdict.detected_kinds),
                             verdict.detail[:200])

    def verdicts(self, module, report: SimReport,
                 static_findings: Optional[list] = None,
                 ) -> List[OracleVerdict]:
        """All oracle verdicts for one compiled module + its sim report.

        ``static_findings``, when given, receives the static analyzer's
        findings behind its verdict.  Any exception an oracle raises
        propagates — the harness triages it into an ``oracle_crash``
        hard failure.
        """
        with TRACER.stage("oracles"):
            return [
                simulator_verdict(report),
                self._tool_verdict("itac", self.itac,
                                   lambda: self.itac.verdict_of(report)),
                self._tool_verdict("must", self.must,
                                   lambda: self.must.verdict_of(report)),
                self._tool_verdict("parcoach", self.parcoach,
                                   lambda: self.parcoach.check_module(module)),
                self._tool_verdict("mpi-checker", self.checker,
                                   lambda: self.checker.check_module(module)),
                self._tool_verdict("static", self.static,
                                   lambda: self.static.check_module(
                                       module, static_findings)),
            ]


def first_false_alarm(verdicts: List[OracleVerdict],
                      ) -> Optional[Tuple[str, str]]:
    """(oracle, verdict) of the first trusted oracle flagging the
    program, or ``None`` — only meaningful for expected-correct ones."""
    for v in verdicts:
        if v.oracle in TRUSTED_ORACLES and v.verdict in (
                "incorrect", "timeout", "runtime_error"):
            return v.oracle, v.verdict
    return None
