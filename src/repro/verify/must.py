"""MUST analogue: runtime correctness checking over intercepted MPI calls.

MUST (Hilbrich et al.) intercepts every MPI operation through GTI and
performs online analysis: wait-for-graph deadlock detection, type
matching, request tracking, and leak detection at finalize.  Our analogue
runs the simulator (which performs exactly these checks) and converts
events into MUST's verdict, detecting deadlocks *structurally* (no
timeout heuristic, unlike ITAC).
"""

from __future__ import annotations

from repro.mpi.simulator import MPISimulator, RunOutcome
from repro.verify.base import ToolVerdict, VerificationTool

_DETECTED = {
    "invalid_arg", "type_mismatch", "truncation", "parameter_matching",
    "request_lifecycle", "resource_leak", "epoch_lifecycle", "call_ordering",
    "deadlock",
}
#: MUST misses data races it cannot observe on the traced interleaving.
_MISSED = {"message_race", "local_concurrency", "global_concurrency"}


class MUSTTool(VerificationTool):
    name = "MUST"

    def __init__(self, nprocs: int = 3, max_steps: int = 300_000):
        self.nprocs = nprocs
        self.max_steps = max_steps

    def check_module(self, module) -> ToolVerdict:
        """Analogue verdict for an already-compiled module."""
        report = MPISimulator(module, self.nprocs,
                              max_steps=self.max_steps).run()
        return self.verdict_of(report)

    def verdict_of(self, report) -> ToolVerdict:
        """Map one simulator :class:`SimReport` to MUST's verdict."""
        detected = sorted(k for k in report.kinds if k in _DETECTED)
        if report.outcome is RunOutcome.TIMEOUT:
            return ToolVerdict("timeout", detected)
        if report.outcome is RunOutcome.FAULT:
            return ToolVerdict("runtime_error", detected)
        if report.outcome in (RunOutcome.DEADLOCK, RunOutcome.ABORT) or detected:
            return ToolVerdict("incorrect", detected or [report.outcome.value])
        return ToolVerdict("correct")
