"""PARCOACH analogue: static collective-matching analysis over the IR.

PARCOACH's core check (Saillard et al.): a collective call whose
execution is control-dependent on a *rank-dependent* condition may not be
executed by all ranks ⇒ potential collective error.  Extensions add
conservative warnings for nonblocking/persistent and one-sided
communications.  Like the original, the analysis over-approximates
heavily — rank-dependent communication that is actually well-matched
still raises warnings, which is why the paper measures specificity 0.088
for PARCOACH on MBI.

Implementation: taint propagation from ``MPI_Comm_rank``/``MPI_Comm_size``
outputs through SSA/data flow; control-dependence approximated through
conditional branches on tainted values; collective sequences on the two
branch arms compared (equal multisets are accepted).
"""

from __future__ import annotations

from typing import List, Set

from repro.ir.instructions import (
    CallInst,
    CondBranchInst,
    LoadInst,
    StoreInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.mpi.api import CallClass, MPI_FUNCTIONS
from repro.verify.base import ToolVerdict, VerificationTool

_RANK_SOURCES = {"MPI_Comm_rank", "MPI_Comm_size"}
_RISKY_CLASSES = {
    CallClass.NB_SEND, CallClass.NB_RECV, CallClass.PERSISTENT_INIT,
    CallClass.RMA_OP, CallClass.RMA_EPOCH,
}


def _tainted_values(fn: Function) -> Set[int]:
    """SSA values derived from the rank/size outputs (incl. memory slots)."""
    tainted: Set[int] = set()
    tainted_slots: Set[int] = set()
    for inst in fn.instructions():
        if isinstance(inst, CallInst) and inst.callee_name in _RANK_SOURCES:
            if len(inst.args) >= 2:
                tainted_slots.add(id(inst.args[-1]))
    changed = True
    while changed:
        changed = False
        for inst in fn.instructions():
            if id(inst) in tainted:
                continue
            if isinstance(inst, LoadInst) and id(inst.pointer) in tainted_slots:
                tainted.add(id(inst))
                changed = True
            elif any(id(op) in tainted for op in inst.operands):
                tainted.add(id(inst))
                changed = True
            if isinstance(inst, StoreInst) and id(inst.value) in tainted:
                if id(inst.pointer) not in tainted_slots:
                    tainted_slots.add(id(inst.pointer))
                    changed = True
    return tainted


_COMM_CLASSES = {
    CallClass.P2P_SEND, CallClass.P2P_RECV, CallClass.NB_SEND,
    CallClass.NB_RECV, CallClass.COLLECTIVE, CallClass.NB_COLLECTIVE,
    CallClass.PERSISTENT_INIT, CallClass.RMA_OP,
}


def _is_comm_call(inst: CallInst) -> bool:
    info = MPI_FUNCTIONS.get(inst.callee_name)
    return info is not None and info.call_class in _COMM_CLASSES


def _arm_comm_sequence(block: BasicBlock, stop: Set[int], depth: int = 64) -> List[str]:
    """Communication call names reachable from ``block`` before ``stop``.

    PARCOACH v2.x matches both collective *and* point-to-point sequences
    along divergent paths (the nonblocking/persistent extension); anything
    it cannot prove matched raises a warning.
    """
    seen: Set[int] = set()
    result: List[str] = []
    stack = [block]
    while stack and depth:
        depth -= 1
        current = stack.pop()
        if id(current) in seen or id(current) in stop:
            continue
        seen.add(id(current))
        for inst in current.instructions:
            if isinstance(inst, CallInst) and _is_comm_call(inst):
                result.append(inst.callee_name)
        stack.extend(current.successors())
    return result


class ParcoachTool(VerificationTool):
    name = "PARCOACH"

    def __init__(self, conservative: bool = True):
        #: conservative=True enables the nonblocking/RMA/wildcard warnings
        #: of the PARCOACH extensions (the paper evaluates v2.3.1, which
        #: includes them).
        self.conservative = conservative

    # -- static analysis over a module ------------------------------------
    def analyze_module(self, module: Module) -> List[str]:
        warnings: List[str] = []
        for fn in module.defined_functions():
            warnings.extend(self._analyze_function(fn))
        return warnings

    def _analyze_function(self, fn: Function) -> List[str]:
        warnings: List[str] = []
        tainted = _tainted_values(fn)

        for block in fn.blocks:
            term = block.terminator
            if not isinstance(term, CondBranchInst):
                continue
            if id(term.cond) not in tainted:
                continue
            # Rank-dependent branch: compare communication sequences on arms.
            stop = {id(b) for b in fn.blocks
                    if self._post_dominates_both(b, term)}
            left = _arm_comm_sequence(term.true_block, stop)
            right = _arm_comm_sequence(term.false_block, stop)
            if left != right:
                involved = sorted(set(left) | set(right)) or ["(communication)"]
                warnings.append(
                    f"{fn.name}: rank-dependent control flow with unmatched "
                    f"communication sequence {involved}")

        if self.conservative:
            for inst in fn.instructions():
                if not isinstance(inst, CallInst):
                    continue
                info = MPI_FUNCTIONS.get(inst.callee_name)
                if info is None:
                    continue
                if info.call_class in _RISKY_CLASSES:
                    warnings.append(
                        f"{fn.name}: {inst.callee_name} may race "
                        "(nonblocking/persistent/RMA data-flow not provable)")
                    break
        return warnings

    @staticmethod
    def _post_dominates_both(block: BasicBlock, term: CondBranchInst) -> bool:
        # Cheap join detection: a block with >= 2 predecessors downstream
        # of the branch acts as the merge point that ends both arms.
        return len(block.predecessors()) >= 2

    # -- tool interface -----------------------------------------------------
    def check_module(self, module: Module) -> ToolVerdict:
        """Analogue verdict for an already-compiled module."""
        warnings = self.analyze_module(module)
        if warnings:
            return ToolVerdict("incorrect", ["static_warning"],
                               "; ".join(warnings[:3]))
        return ToolVerdict("correct")
