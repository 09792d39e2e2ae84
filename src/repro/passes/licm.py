"""Loop-invariant code motion.

Hoists pure, non-trapping instructions whose operands are all defined
outside the loop into the loop's preheader (the unique out-of-loop
predecessor of the header — the shape the mini-C frontend always emits).
Division and remainder are excluded: hoisting may execute them on a path
where the loop body never runs, turning a guarded division into a trap
(speculation, unlike GVN's reuse).
"""

from __future__ import annotations

from repro.ir.instructions import (
    BinaryInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    SelectInst,
)
from repro.ir.loops import Loop, find_loops
from repro.ir.module import Function, Module
from repro.ir.values import Value

_TRAPPING = {"sdiv", "udiv", "srem", "urem", "fdiv", "frem"}


def _is_hoistable_shape(inst: Instruction) -> bool:
    if isinstance(inst, BinaryInst):
        return inst.opcode not in _TRAPPING
    return isinstance(inst, (ICmpInst, FCmpInst, CastInst, SelectInst, GEPInst))


def _defined_in_loop(value: Value, loop: Loop) -> bool:
    return (isinstance(value, Instruction) and value.parent is not None
            and loop.contains(value.parent))


def _hoist_loop(loop: Loop) -> int:
    preheader = loop.preheader()
    if preheader is None or not preheader.instructions:
        return 0
    terminator = preheader.instructions[-1]
    if not terminator.is_terminator:
        return 0
    hoisted = 0
    changed = True
    while changed:                      # fixpoint: hoists enable hoists
        changed = False
        for block in loop.members:
            for inst in list(block.instructions):
                if not _is_hoistable_shape(inst):
                    continue
                if any(_defined_in_loop(op, loop) for op in inst.operands):
                    continue
                # Move before the preheader's terminator.
                block.instructions.remove(inst)
                insert_at = preheader.instructions.index(terminator)
                preheader.instructions.insert(insert_at, inst)
                inst.parent = preheader
                hoisted += 1
                changed = True
    return hoisted


def licm_function(fn: Function) -> int:
    """Hoist invariants in every natural loop; returns hoisted count."""
    total = 0
    for loop in find_loops(fn):
        total += _hoist_loop(loop)
    return total


def loop_invariant_code_motion(module: Module) -> int:
    return sum(licm_function(fn) for fn in module.defined_functions())
