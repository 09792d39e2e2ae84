"""Constant folding, including constant-condition branch folding."""

from __future__ import annotations

from typing import Optional

from repro.ir.instructions import (
    BinaryInst,
    BranchInst,
    CastInst,
    CondBranchInst,
    FCmpInst,
    ICmpInst,
    SelectInst,
)
from repro.ir.module import Function, Module
from repro.ir.types import FloatType, IntType
from repro.ir.values import Constant, ConstantString, Value


def _const(v: Value) -> Optional[Constant]:
    if isinstance(v, Constant) and not isinstance(v, ConstantString) and v.value is not None:
        return v
    return None


def _wrap(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    wrapped = value & mask
    if bits > 1 and wrapped >= (1 << (bits - 1)):
        wrapped -= 1 << bits
    return wrapped


_INT_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "sdiv": lambda a, b: int(a / b) if b else None,
    "udiv": lambda a, b: abs(a) // abs(b) if b else None,
    "srem": lambda a, b: a - int(a / b) * b if b else None,
    "urem": lambda a, b: abs(a) % abs(b) if b else None,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 63),
    "lshr": lambda a, b: (a & 0xFFFFFFFFFFFFFFFF) >> (b & 63),
    "ashr": lambda a, b: a >> (b & 63),
}

_FLOAT_OPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b if b else None,
    "frem": lambda a, b: None,
}

_ICMP = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "sgt": lambda a, b: a > b, "sge": lambda a, b: a >= b,
    "slt": lambda a, b: a < b, "sle": lambda a, b: a <= b,
    "ugt": lambda a, b: abs(a) > abs(b), "uge": lambda a, b: abs(a) >= abs(b),
    "ult": lambda a, b: abs(a) < abs(b), "ule": lambda a, b: abs(a) <= abs(b),
}

_FCMP = {
    "oeq": lambda a, b: a == b, "one": lambda a, b: a != b,
    "ogt": lambda a, b: a > b, "oge": lambda a, b: a >= b,
    "olt": lambda a, b: a < b, "ole": lambda a, b: a <= b,
}


def _fold_instruction(inst) -> Optional[Constant]:
    if isinstance(inst, BinaryInst):
        lhs, rhs = _const(inst.lhs), _const(inst.rhs)
        if lhs is None or rhs is None:
            return None
        if inst.opcode in _INT_OPS and isinstance(inst.type, IntType):
            result = _INT_OPS[inst.opcode](lhs.value, rhs.value)
            if result is None:
                return None
            return Constant(inst.type, _wrap(int(result), inst.type.bits))
        if inst.opcode in _FLOAT_OPS and isinstance(inst.type, FloatType):
            result = _FLOAT_OPS[inst.opcode](lhs.value, rhs.value)
            if result is None:
                return None
            return Constant(inst.type, float(result))
        return None
    if isinstance(inst, ICmpInst):
        lhs, rhs = _const(inst.operands[0]), _const(inst.operands[1])
        if lhs is None or rhs is None:
            return None
        return Constant(inst.type, int(_ICMP[inst.predicate](lhs.value, rhs.value)))
    if isinstance(inst, FCmpInst):
        lhs, rhs = _const(inst.operands[0]), _const(inst.operands[1])
        if lhs is None or rhs is None:
            return None
        return Constant(inst.type, int(_FCMP[inst.predicate](lhs.value, rhs.value)))
    if isinstance(inst, CastInst):
        value = _const(inst.operands[0])
        if value is None:
            return None
        if inst.opcode in ("trunc", "zext", "sext") and isinstance(inst.type, IntType):
            v = value.value
            if inst.opcode == "zext" and v < 0:
                v &= (1 << value.type.bits) - 1
            return Constant(inst.type, _wrap(int(v), inst.type.bits))
        if inst.opcode in ("fptrunc", "fpext"):
            return Constant(inst.type, float(value.value))
        if inst.opcode == "sitofp":
            return Constant(inst.type, float(value.value))
        if inst.opcode == "fptosi":
            return Constant(inst.type, int(value.value))
        return None
    if isinstance(inst, SelectInst):
        cond = _const(inst.operands[0])
        if cond is None:
            return None
        chosen = inst.operands[1] if cond.value else inst.operands[2]
        return chosen if isinstance(chosen, Constant) else None
    return None


def _fold_branches(fn: Function) -> bool:
    changed = False
    for block in fn.blocks:
        term = block.terminator
        if not isinstance(term, CondBranchInst):
            continue
        cond = _const(term.cond)
        same_target = term.true_block is term.false_block
        if cond is None and not same_target:
            continue
        target = term.true_block if (same_target or cond.value) else term.false_block
        dead = term.false_block if target is term.true_block else term.true_block
        term.erase()
        block.append(BranchInst(target))
        if not same_target and dead is not target:
            for phi in dead.phis():
                phi.remove_incoming_for(block)
        changed = True
    return changed


def fold_constants(module: Module) -> int:
    """Iteratively fold; returns number of folded instructions."""
    folded = 0
    for fn in module.defined_functions():
        changed = True
        while changed:
            changed = False
            for block in fn.blocks:
                for inst in list(block.instructions):
                    replacement = _fold_instruction(inst)
                    if replacement is not None:
                        inst.replace_all_uses_with(replacement)
                        inst.erase()
                        folded += 1
                        changed = True
            if _fold_branches(fn):
                changed = True
    return folded
