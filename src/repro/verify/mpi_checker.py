"""MPI-Checker analogue: AST-level / path-sensitive static checks.

MPI-Checker (Droste et al., LLVM'15) runs on the Clang Static Analyzer
and performs (a) AST-based type-usage checks — the buffer's C element
type must match the MPI datatype argument — and (b) path-sensitive
request checks: double nonblocking on one request, missing wait,
unmatched wait.  It covers a deliberately narrow error set, which is why
its CorrBench scores in the paper's Fig. 7(a) are modest.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.instructions import CallInst, CastInst, GEPInst
from repro.ir.types import FloatType, IntType, PointerType
from repro.ir.values import Constant, ConstantString
from repro.mpi.api import CallClass, DATATYPE_INFO, MPI_CONSTANTS, MPI_FUNCTIONS
from repro.verify.base import ToolVerdict, VerificationTool

# C element kind expected for each basic datatype handle.
_KIND_OF_IR = {
    ("int", 4): {"MPI_INT", "MPI_UNSIGNED"},
    ("int", 8): {"MPI_LONG", "MPI_UNSIGNED_LONG", "MPI_LONG_LONG",
                 "MPI_INT64_T", "MPI_UINT64_T"},
    ("int", 2): {"MPI_SHORT", "MPI_UNSIGNED_SHORT"},
    ("int", 1): {"MPI_CHAR", "MPI_SIGNED_CHAR", "MPI_UNSIGNED_CHAR",
                 "MPI_BYTE", "MPI_INT8_T"},
    ("float", 4): {"MPI_FLOAT"},
    ("float", 8): {"MPI_DOUBLE"},
}
_HANDLE_BY_VALUE = {v: k for k, v in MPI_CONSTANTS.items() if k.startswith("MPI_")}


def _buffer_element_type(value) -> Optional[tuple]:
    """(kind, size) of the element type behind a buffer argument."""
    seen = 0
    while isinstance(value, CastInst) and seen < 4:
        value = value.operands[0]
        seen += 1
    if isinstance(value, GEPInst):
        t = value.type
    else:
        t = value.type
    if not isinstance(t, PointerType):
        return None
    elem = t.pointee
    if isinstance(elem, IntType):
        return ("int", max(1, elem.bits // 8))
    if isinstance(elem, FloatType):
        return ("float", elem.bits // 8)
    return None


class MPICheckerTool(VerificationTool):
    name = "MPI-Checker"

    def analyze_module(self, module) -> List[str]:
        warnings: List[str] = []
        for fn in module.defined_functions():
            request_state: Dict[int, str] = {}   # slot id -> 'active'|'done'
            for inst in fn.instructions():
                if not isinstance(inst, CallInst):
                    continue
                info = MPI_FUNCTIONS.get(inst.callee_name)
                if info is None:
                    continue
                warnings.extend(self._check_type_usage(inst, info, fn.name))
                self._track_requests(inst, info, request_state, warnings, fn.name)
            for state in request_state.values():
                if state == "active":
                    warnings.append(f"{fn.name}: nonblocking request never waited")
        return warnings

    def _check_type_usage(self, inst: CallInst, info, fn_name: str) -> List[str]:
        out: List[str] = []
        dt_idx = info.role("datatype")
        buf_idx = info.role("buf")
        if dt_idx is None or buf_idx is None:
            return out
        if dt_idx >= len(inst.args) or buf_idx >= len(inst.args):
            return out
        dt = inst.args[dt_idx]
        if not isinstance(dt, Constant) or isinstance(dt, ConstantString):
            return out
        handle = _HANDLE_BY_VALUE.get(dt.value)
        if handle is None or dt.value not in DATATYPE_INFO:
            if dt.value == MPI_CONSTANTS["MPI_DATATYPE_NULL"]:
                out.append(f"{fn_name}: {inst.callee_name} uses MPI_DATATYPE_NULL")
            return out
        elem = _buffer_element_type(inst.args[buf_idx])
        if elem is None:
            return out
        expected = _KIND_OF_IR.get(elem)
        if expected is not None and handle not in expected:
            out.append(f"{fn_name}: {inst.callee_name} buffer element "
                       f"{elem} mismatches {handle}")
        # Statically visible bad scalars.
        count_idx = info.role("count")
        if count_idx is not None and count_idx < len(inst.args):
            count = inst.args[count_idx]
            if isinstance(count, Constant) and not isinstance(count, ConstantString) \
                    and isinstance(count.value, int) and count.value < 0:
                out.append(f"{fn_name}: {inst.callee_name} negative count")
        return out

    def _track_requests(self, inst: CallInst, info, state: Dict[int, str],
                        warnings: List[str], fn_name: str) -> None:
        req_idx = info.role("request")
        if info.call_class in (CallClass.NB_SEND, CallClass.NB_RECV,
                               CallClass.NB_COLLECTIVE):
            if req_idx is not None and req_idx < len(inst.args):
                slot = id(inst.args[req_idx])
                if state.get(slot) == "active":
                    warnings.append(f"{fn_name}: double nonblocking on one request")
                state[slot] = "active"
        elif info.call_class is CallClass.COMPLETION:
            if req_idx is not None and req_idx < len(inst.args):
                state[id(inst.args[req_idx])] = "done"
            else:
                for slot in state:
                    state[slot] = "done"

    def check_module(self, module) -> ToolVerdict:
        """Analogue verdict for an already-compiled module."""
        warnings = self.analyze_module(module)
        if warnings:
            return ToolVerdict("incorrect", ["static_warning"], "; ".join(warnings[:3]))
        return ToolVerdict("correct")
