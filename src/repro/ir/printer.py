"""Textual printer for the mini LLVM IR.

The emitted syntax is LLVM-flavoured and round-trips through
:mod:`repro.ir.parser`.  Property-based tests assert
``parse(print(m))`` is structurally identical to ``m``.
"""

from __future__ import annotations

from typing import List

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Value


def _operand(v: Value) -> str:
    """Render an operand as ``type ref``."""
    return f"{v.type} {v.ref}"


def print_instruction(inst: Instruction) -> str:
    if isinstance(inst, AllocaInst):
        suffix = f", {_operand(inst.array_size)}" if inst.array_size is not None else ""
        return f"{inst.ref} = alloca {inst.allocated_type}{suffix}"
    if isinstance(inst, LoadInst):
        return f"{inst.ref} = load {inst.type}, {_operand(inst.pointer)}"
    if isinstance(inst, StoreInst):
        return f"store {_operand(inst.value)}, {_operand(inst.pointer)}"
    if isinstance(inst, BinaryInst):
        return f"{inst.ref} = {inst.opcode} {inst.type} {inst.lhs.ref}, {inst.rhs.ref}"
    if isinstance(inst, ICmpInst):
        l, r = inst.operands
        return f"{inst.ref} = icmp {inst.predicate} {l.type} {l.ref}, {r.ref}"
    if isinstance(inst, FCmpInst):
        l, r = inst.operands
        return f"{inst.ref} = fcmp {inst.predicate} {l.type} {l.ref}, {r.ref}"
    if isinstance(inst, CastInst):
        v = inst.operands[0]
        return f"{inst.ref} = {inst.opcode} {_operand(v)} to {inst.type}"
    if isinstance(inst, SelectInst):
        c, t, f = inst.operands
        return f"{inst.ref} = select {_operand(c)}, {_operand(t)}, {_operand(f)}"
    if isinstance(inst, GEPInst):
        idx = ", ".join(_operand(i) for i in inst.indices)
        return f"{inst.ref} = getelementptr {_operand(inst.pointer)}, {idx} to {inst.type}"
    if isinstance(inst, CallInst):
        args = ", ".join(_operand(a) for a in inst.args)
        callee = inst.callee
        head = f"call {inst.type} {callee.ref}({args})"
        return head if inst.type.is_void else f"{inst.ref} = {head}"
    if isinstance(inst, CondBranchInst):
        return (f"br i1 {inst.cond.ref}, label %{inst.true_block.name}, "
                f"label %{inst.false_block.name}")
    if isinstance(inst, BranchInst):
        return f"br label %{inst.target.name}"
    if isinstance(inst, ReturnInst):
        if inst.return_value is None:
            return "ret void"
        return f"ret {_operand(inst.return_value)}"
    if isinstance(inst, UnreachableInst):
        return "unreachable"
    if isinstance(inst, PhiInst):
        pairs = ", ".join(f"[ {v.ref}, %{b.name} ]" for v, b in inst.incoming)
        return f"{inst.ref} = phi {inst.type} {pairs}"
    raise ValueError(f"cannot print instruction {inst!r}")


def print_block(block: BasicBlock) -> str:
    lines = [f"{block.name}:"]
    lines.extend(f"  {print_instruction(i)}" for i in block.instructions)
    return "\n".join(lines)


def print_function(fn: Function) -> str:
    params = ", ".join(f"{a.type} {a.ref}" for a in fn.arguments)
    if fn.ftype.vararg:
        params = f"{params}, ..." if params else "..."
    if fn.is_declaration:
        return f"declare {fn.ftype.ret} @{fn.name}({params})"
    head = f"define {fn.ftype.ret} @{fn.name}({params}) {{"
    body = "\n".join(print_block(b) for b in fn.blocks)
    return f"{head}\n{body}\n}}"


def print_module(module: Module) -> str:
    parts: List[str] = [f"; ModuleID = '{module.name}'"]
    for gv in module.globals.values():
        kind = "constant" if gv.is_constant else "global"
        init = gv.initializer.ref if gv.initializer is not None else "zeroinitializer"
        parts.append(f"@{gv.name} = {kind} {gv.value_type} {init}")
    for fn in module.functions.values():
        parts.append(print_function(fn))
    return "\n\n".join(parts) + "\n"
