"""Baseline MPI verification tools (simulated analogues).

The paper compares its ML models against expert tools.  Each analogue
here follows its original's *mechanism*:

* :class:`ITACTool` / :class:`MUSTTool` — dynamic: run the code on the
  MPI runtime simulator and map runtime events to a verdict.  ITAC uses a
  timeout-based deadlock strategy (the paper reports 157 TO on MBI);
  MUST analyzes wait-for state directly.
* :class:`ParcoachTool` — static: interprocedural CFG analysis of
  collective call sites (rank-dependent divergence ⇒ potential collective
  mismatch), plus nonblocking/persistent misuse checks; characteristically
  over-approximates (many false positives, specificity ≈ 0.09).
* :class:`MPICheckerTool` — static AST-level checks (type usage,
  request usage along paths), detecting a narrower error set.
* :class:`StaticAnalyzerTool` — our own dataflow analyzer over the IR
  (:mod:`repro.verify.static`): constant-lattice argument checks,
  per-rank abstract interpretation with communication matching, and
  PARCOACH-style collective divergence — precise enough to be registered
  as a *trusted* oracle in the fuzz harness, with every finding carrying
  a machine-checkable witness.
"""

from repro.verify.base import ToolVerdict, VerificationTool
from repro.verify.itac import ITACTool
from repro.verify.must import MUSTTool
from repro.verify.parcoach import ParcoachTool
from repro.verify.mpi_checker import MPICheckerTool
from repro.verify.static.analyzer import StaticAnalyzerTool

__all__ = [
    "VerificationTool", "ToolVerdict",
    "ITACTool", "MUSTTool", "ParcoachTool", "MPICheckerTool",
    "StaticAnalyzerTool",
]
