"""The repair validation gate — the differential harness as judge.

A candidate patch is *accepted* only when the full detection chain that
found the bug can no longer find anything: compile at O0 and O2 with IR
verification, program graph, embedding, runtime simulation, and every
trusted verify-tool analogue plus the static dataflow analyzer — all
clean (:func:`repro.fuzz.harness.check_source` returning ``agree``), and
the compile must be **byte-deterministic**: two independent compilations
at each opt level (the harness's own and one fresh compile) print
identical IR, so an accepted patch can never smuggle nondeterminism past
the fleet's content-addressed cache (routing and caching both key on
byte identity).

The same gate runs on the *unpatched* input first: a program the gate
already accepts needs no repair, and the runner turns that into a
validated no-op instead of a patch — the "zero false repairs" half of
the acceptance bar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.obs.trace import TRACER

#: Trusted-oracle verdicts that count as "the bug is still there".
FAILING_VERDICTS = ("incorrect", "timeout", "runtime_error")


@dataclass(frozen=True)
class GateVerdict:
    """Outcome of one gate run over one source."""

    clean: bool                  # every trusted oracle clean + det. compile
    status: str                  # harness status (agree/rejected/...)
    kind: str
    oracle: str                  # first complaining oracle, if any
    detail: str
    deterministic: bool          # double-compile printed identical IR
    oracles: Dict[str, str] = field(default_factory=dict)
    #: The static oracle's findings; ``None`` when the gate stopped
    #: before the oracle battery ran (not part of :meth:`as_dict`).
    findings: Optional[Tuple[Any, ...]] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"clean": self.clean, "status": self.status,
                "kind": self.kind, "oracle": self.oracle,
                "detail": self.detail,
                "deterministic": self.deterministic,
                "oracles": dict(self.oracles)}


def deterministic_compile(name: str, source: str,
                          printed: Dict[str, str]) -> bool:
    """True iff one fresh compilation at each opt level prints the IR in
    ``printed`` (the IR :func:`repro.fuzz.harness.check_source` printed
    right after its own compiles, keyed by opt level)."""
    from repro.frontend import compile_c
    from repro.ir.printer import print_module

    for opt_level in ("O0", "O2"):
        fresh = print_module(compile_c(source, name, opt_level,
                                       verify=True))
        if printed[opt_level] != fresh:
            return False
    return True


def run_gate(name: str, source: str, nprocs: int = 3,
             max_steps: int = 120_000) -> GateVerdict:
    """Push one source through the whole harness; judge it."""
    from repro.fuzz.harness import check_source

    printed: Dict[str, str] = {}
    found: list = []
    with TRACER.stage("gate"):
        record = check_source(name, source, expected="correct",
                              nprocs=nprocs, max_steps=max_steps,
                              printed_ir=printed, static_findings=found)
        agreed = record["status"] == "agree"
        deterministic = False
        if agreed:
            try:
                deterministic = deterministic_compile(name, source, printed)
            except Exception:                  # a flaky compile is a veto
                deterministic = False
    # An unavailable or never-reached static oracle leaves no findings.
    analyzed = record["oracles"].get("static") in ("correct", "incorrect")
    return GateVerdict(clean=agreed and deterministic,
                       status=record["status"], kind=record["kind"],
                       oracle=record["oracle"],
                       detail=record["detail"],
                       deterministic=deterministic,
                       oracles=dict(record["oracles"]),
                       findings=tuple(found) if analyzed else None)
