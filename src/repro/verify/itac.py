"""ITAC analogue (Intel Trace Analyzer and Collector).

Mechanism-faithful model: ITAC traces the execution and reports argument,
type, and matching errors it observes; deadlocks are handled with a
*time-out* heuristic (the paper reports 157 TO / 1 RE for ITAC on MBI).
We reproduce that split: a *total* deadlock (every rank blocked — a
wait-for cycle ITAC's progress engine can identify) is reported as an
error, while a *partial* hang (some ranks finished, others blocked
forever — indistinguishable from slowness) times out.
"""

from __future__ import annotations

from repro.mpi.simulator import MPISimulator, RunOutcome
from repro.verify.base import ToolVerdict, VerificationTool

#: Runtime event kinds ITAC's checkers surface.
_DETECTED = {
    "invalid_arg", "type_mismatch", "truncation", "parameter_matching",
    "request_lifecycle", "epoch_lifecycle", "call_ordering",
}
#: Kinds ITAC does not reliably flag (races need DAMPI-style replay).
_MISSED = {"message_race", "local_concurrency", "global_concurrency",
           "resource_leak"}


class ITACTool(VerificationTool):
    name = "ITAC"

    def __init__(self, nprocs: int = 3, max_steps: int = 300_000):
        self.nprocs = nprocs
        self.max_steps = max_steps

    def check_module(self, module) -> ToolVerdict:
        """Analogue verdict for an already-compiled module."""
        report = MPISimulator(module, self.nprocs,
                              max_steps=self.max_steps).run()
        return self.verdict_of(report)

    def verdict_of(self, report) -> ToolVerdict:
        """Map one simulator :class:`SimReport` to ITAC's verdict —
        shared by :meth:`check_module` and the differential fuzz
        harness (which runs the simulator once for every dynamic
        oracle)."""
        detected = sorted(k for k in report.kinds if k in _DETECTED)
        if report.outcome is RunOutcome.TIMEOUT:
            return ToolVerdict("timeout", detected, "step budget exhausted")
        if report.outcome is RunOutcome.FAULT:
            return ToolVerdict("runtime_error", detected, "crash during trace")
        if report.outcome is RunOutcome.ABORT:
            return ToolVerdict("incorrect", detected + ["abort"], "MPI_Abort")
        if report.outcome is RunOutcome.DEADLOCK:
            blocked = {e.rank for e in report.events if e.kind == "deadlock"}
            if len(blocked) >= self.nprocs:
                return ToolVerdict("incorrect", detected + ["deadlock"],
                                   "wait-for cycle")
            # Partial hang: the progress engine cannot conclude; time out.
            return ToolVerdict("timeout", detected, "partial hang")
        if detected:
            return ToolVerdict("incorrect", detected)
        return ToolVerdict("correct")
