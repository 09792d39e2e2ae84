"""Top-level driver: analyze modules/sources, tool adapter, self-test.

``analyze_module`` composes the two layers of the suite — the
flow-insensitive checkers (always run) and the per-rank abstract
interpretation plus rendezvous matching (run only when every rank's
execution folds precisely) — and de-duplicates the findings.

:class:`StaticAnalyzerTool` adapts the analyzer to the
``repro.verify`` tool protocol so the fuzz harness and the eval matrix
can drive it exactly like the external-tool analogues.  Unlike those
analogues it is registered as a *trusted* oracle: when it reports a
defect on a correct-by-construction program, that is a bug in this
package, not noise.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.datasets.loader import Sample
from repro.frontend import CompileError, compile_c
from repro.ir.module import Module
from repro.obs.trace import TRACER
from repro.verify.base import ToolVerdict, VerificationTool
from repro.verify.static import checkers
from repro.verify.static.findings import StaticFinding, StaticWitness
from repro.verify.static.sequence import Imprecise, interpret_rank, match_traces

DEFAULT_NPROCS = 3


def analyze_module(module: Module, nprocs: int = DEFAULT_NPROCS,
                   strict: bool = False) -> List[StaticFinding]:
    """All findings for a compiled module.

    With ``strict=False`` (the production default) any internal error
    degrades to "no findings": a trusted oracle must never turn its own
    bugs into verdicts.  Tests run with ``strict=True`` so regressions
    surface as failures instead of silence.
    """
    try:
        with TRACER.stage("analyze_checks"):
            findings = checkers.check_module(module, nprocs)
        main = module.get_function("main")
        if main is not None and not main.is_declaration:
            try:
                with TRACER.stage("analyze_interpret"):
                    traces = [interpret_rank(module, rank, nprocs)
                              for rank in range(nprocs)]
            except Imprecise:
                traces = None
            if traces is not None:
                with TRACER.stage("analyze_match"):
                    findings.extend(match_traces(traces, nprocs))
        seen = set()
        unique: List[StaticFinding] = []
        for finding in findings:
            key = finding.dedup_key()
            if key not in seen:
                seen.add(key)
                unique.append(finding)
        return unique
    except Exception:
        if strict:
            raise
        return []


def analyze_source(source: str, name: str = "sample",
                   nprocs: int = DEFAULT_NPROCS,
                   strict: bool = False) -> Tuple[str, List[StaticFinding]]:
    """(verdict, findings) for a C source.

    Verdicts mirror the tool protocol: ``compile_error`` when the
    frontend rejects the program (with a ``frontend_reject`` finding
    whose witness carries the diagnostic), else ``incorrect`` /
    ``correct`` by presence of findings.
    """
    try:
        module = compile_c(source, name, "O0", verify=False)
    except CompileError as exc:
        detail = str(exc)
        finding = StaticFinding(
            check="frontend", kind="frontend_reject",
            message=f"frontend rejected {name}: {detail.splitlines()[0][:160]}",
            witness=StaticWitness(note=detail[:500]))
        return ("compile_error", [finding])
    findings = analyze_module(module, nprocs, strict=strict)
    return ("incorrect" if findings else "correct", findings)


class StaticAnalyzerTool(VerificationTool):
    """``repro.verify`` adapter for the dataflow static analyzer."""

    name = "static"

    def __init__(self, nprocs: int = DEFAULT_NPROCS,
                 binary: Optional[str] = None):
        self.nprocs = nprocs
        self.binary = binary

    @staticmethod
    def _verdict(verdict: str,
                 findings: Sequence[StaticFinding]) -> ToolVerdict:
        kinds = sorted({f.kind for f in findings})
        detail = "; ".join(
            (f.message or f.witness.note) for f in findings[:3])
        if verdict == "correct":
            return ToolVerdict("correct")
        return ToolVerdict(verdict, kinds, detail)

    def check_sample(self, sample: Sample) -> ToolVerdict:
        if self.external_binary():
            return self.run_external(sample)
        verdict, findings = analyze_source(sample.source, sample.name,
                                           self.nprocs)
        return self._verdict(verdict, findings)

    def check_module(self, module: Module,
                     found: Optional[List[StaticFinding]] = None,
                     ) -> ToolVerdict:
        """The verdict for ``module``; ``found``, when given, also
        receives the findings behind it."""
        findings = analyze_module(module, self.nprocs)
        if found is not None:
            found.extend(findings)
        return self._verdict("incorrect" if findings else "correct",
                             findings)


# ---------------------------------------------------------------------------
# Self-test corpus: one micro-program per checker
# ---------------------------------------------------------------------------

_PROLOGUE = """\
#include <mpi.h>
#include <stdio.h>
#include <stdlib.h>

int main(int argc, char** argv) {
  int nprocs = -1;
  int rank = -1;
"""

_EPILOGUE = """\
  MPI_Finalize();
  return 0;
}
"""


def _program(decls: str, body: str) -> str:
    return (_PROLOGUE + decls
            + "\n  MPI_Init(&argc, &argv);\n"
            + "  MPI_Comm_size(MPI_COMM_WORLD, &nprocs);\n"
            + "  MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n"
            + body + _EPILOGUE)


#: (case name, source, expected verdict, kinds that must be reported)
SELF_TEST_CASES: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("clean-p2p-collective", _program(
        "  int sb[4];\n  int rb[4];\n  int cb[4];\n",
        "  if (rank == 0) {\n"
        "    MPI_Send(sb, 4, MPI_INT, 1, 9, MPI_COMM_WORLD);\n"
        "  }\n"
        "  if (rank == 1) {\n"
        "    MPI_Recv(rb, 4, MPI_INT, 0, 9, MPI_COMM_WORLD,"
        " MPI_STATUS_IGNORE);\n"
        "  }\n"
        "  MPI_Bcast(cb, 4, MPI_INT, 0, MPI_COMM_WORLD);\n"),
     "correct", ()),
    ("tag-mismatch", _program(
        "  int sb[4];\n  int rb[4];\n",
        "  if (rank == 0) {\n"
        "    MPI_Send(sb, 4, MPI_INT, 1, 3, MPI_COMM_WORLD);\n"
        "  }\n"
        "  if (rank == 1) {\n"
        "    MPI_Recv(rb, 4, MPI_INT, 0, 103, MPI_COMM_WORLD,"
        " MPI_STATUS_IGNORE);\n"
        "  }\n"),
     "incorrect", ("tag_mismatch",)),
    ("datatype-mismatch", _program(
        "  int sb[8];\n",
        "  MPI_Bcast(sb, 4, MPI_DOUBLE, 0, MPI_COMM_WORLD);\n"),
     "incorrect", ("datatype_mismatch",)),
    ("invalid-count", _program(
        "  int sb[4];\n  int rb[4];\n",
        "  if (rank == 0) {\n"
        "    MPI_Send(sb, -1, MPI_INT, 1, 3, MPI_COMM_WORLD);\n"
        "  }\n"
        "  if (rank == 1) {\n"
        "    MPI_Recv(rb, -1, MPI_INT, 0, 3, MPI_COMM_WORLD,"
        " MPI_STATUS_IGNORE);\n"
        "  }\n"),
     "incorrect", ("invalid_count",)),
    ("invalid-rank", _program(
        "  int sb[4];\n",
        "  if (rank == 0) {\n"
        "    MPI_Send(sb, 4, MPI_INT, 9999, 3, MPI_COMM_WORLD);\n"
        "  }\n"),
     "incorrect", ("invalid_rank",)),
    ("root-divergence", _program(
        "  int cb[4];\n",
        "  MPI_Bcast(cb, 4, MPI_INT, rank, MPI_COMM_WORLD);\n"),
     "incorrect", ("root_mismatch",)),
    ("missing-wait", _program(
        "  int sb[4];\n  int rb[4];\n  MPI_Request rq;\n"
        "  MPI_Status st;\n",
        "  if (rank == 0) {\n"
        "    MPI_Isend(sb, 4, MPI_INT, 1, 3, MPI_COMM_WORLD, &rq);\n"
        "  }\n"
        "  if (rank == 1) {\n"
        "    MPI_Recv(rb, 4, MPI_INT, 0, 3, MPI_COMM_WORLD, &st);\n"
        "  }\n"),
     "incorrect", ("missing_wait",)),
    ("collective-divergence", _program(
        "",
        "  if (rank == 0) {\n"
        "    MPI_Barrier(MPI_COMM_WORLD);\n"
        "  }\n"),
     "incorrect", ("collective_divergence",)),
    ("buffer-overflow", _program(
        "  int cb[2];\n",
        "  MPI_Bcast(cb, 8, MPI_INT, 0, MPI_COMM_WORLD);\n"),
     "incorrect", ("buffer_overflow",)),
    ("negative-extent", _PROLOGUE.replace(
        "  int rank = -1;\n", "  int rank = -1;\n  int v[-4];\n")
     + "  MPI_Init(&argc, &argv);\n" + _EPILOGUE,
     "compile_error", ("frontend_reject",)),
]


def self_test(nprocs: int = DEFAULT_NPROCS) -> List[str]:
    """Run the embedded micro-corpus; return failure descriptions."""
    failures: List[str] = []
    for case, source, expected_verdict, expected_kinds in SELF_TEST_CASES:
        try:
            verdict, findings = analyze_source(source, case, nprocs,
                                               strict=True)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            failures.append(f"{case}: analyzer raised {exc!r}")
            continue
        kinds = {f.kind for f in findings}
        if verdict != expected_verdict:
            failures.append(
                f"{case}: expected verdict {expected_verdict}, got "
                f"{verdict} (kinds={sorted(kinds)})")
            continue
        missing = set(expected_kinds) - kinds
        if missing:
            failures.append(
                f"{case}: missing expected kinds {sorted(missing)} "
                f"(got {sorted(kinds)})")
        if expected_verdict == "correct" and findings:
            failures.append(
                f"{case}: expected clean, got {sorted(kinds)}")
        if findings and any(f.witness.is_empty for f in findings):
            failures.append(f"{case}: finding with empty witness")
    return failures
