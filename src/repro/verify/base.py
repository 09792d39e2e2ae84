"""Common interface for the baseline verification tools.

Verdict contract: ``check_sample`` never raises on a sample the frontend
rejects; it returns a ``"compile_error"`` verdict instead, so the
Table III evaluation loop, the differential fuzz harness and the CLI
need no try/except of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.datasets.loader import Sample
from repro.frontend import CompileError, compile_c
from repro.ml.metrics import ConfusionCounts


@dataclass
class ToolVerdict:
    """Outcome of running a tool on one code."""

    verdict: str                 # 'correct' | 'incorrect' | 'timeout' |
    #                              'runtime_error' | 'compile_error'
    detected_kinds: List[str] = field(default_factory=list)
    detail: str = ""


class VerificationTool:
    name = "tool"

    def check_sample(self, sample: Sample) -> ToolVerdict:
        """Compile ``sample`` at O0 and return :meth:`check_module`'s
        verdict; a frontend rejection is a ``"compile_error"``."""
        try:
            module = compile_c(sample.source, sample.name, "O0", verify=False)
        except CompileError as exc:
            return ToolVerdict("compile_error", detail=str(exc))
        return self.check_module(module)

    def check_module(self, module) -> ToolVerdict:  # pragma: no cover
        raise NotImplementedError

    def evaluate(self, samples: Sequence[Sample]) -> ConfusionCounts:
        """Confusion counts over a suite (Table III protocol)."""
        counts = ConfusionCounts()
        for sample in samples:
            verdict = self.check_sample(sample)
            if verdict.verdict == "compile_error":
                counts.ce += 1
            elif verdict.verdict == "timeout":
                counts.to += 1
            elif verdict.verdict == "runtime_error":
                counts.re += 1
            elif verdict.verdict == "incorrect":
                if sample.is_correct:
                    counts.fp += 1
                else:
                    counts.tp += 1
            else:
                if sample.is_correct:
                    counts.tn += 1
                else:
                    counts.fn += 1
        return counts
