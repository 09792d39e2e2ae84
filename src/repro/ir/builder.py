"""IRBuilder: convenience layer for emitting instructions.

Mirrors ``llvm::IRBuilder`` — the frontend's codegen positions a builder at
a block and appends instructions through typed helper methods.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.types import Type
from repro.ir.values import Value


class IRBuilder:
    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self) -> Function:
        assert self.block is not None and self.block.parent is not None
        return self.block.parent

    def _emit(self, inst):
        assert self.block is not None, "builder has no insertion block"
        return self.block.append(inst)

    def _name(self, hint: str) -> str:
        return self.function.unique_name(hint)

    # -- memory --------------------------------------------------------------
    def alloca(self, type_: Type, name: str = "", array_size: Optional[Value] = None) -> AllocaInst:
        return self._emit(AllocaInst(type_, name or self._name("a"), array_size))

    def load(self, pointer: Value, name: str = "") -> LoadInst:
        return self._emit(LoadInst(pointer, name or self._name("l")))

    def store(self, value: Value, pointer: Value) -> StoreInst:
        return self._emit(StoreInst(value, pointer))

    def gep(self, pointer: Value, indices: Sequence[Value], result_type: Type,
            name: str = "") -> GEPInst:
        return self._emit(GEPInst(pointer, indices, result_type, name or self._name("g")))

    # -- arithmetic ------------------------------------------------------------
    def binop(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._emit(BinaryInst(opcode, lhs, rhs, name or self._name("b")))

    def add(self, l, r, name=""):
        return self.binop("add", l, r, name)

    def sub(self, l, r, name=""):
        return self.binop("sub", l, r, name)

    def mul(self, l, r, name=""):
        return self.binop("mul", l, r, name)

    def sdiv(self, l, r, name=""):
        return self.binop("sdiv", l, r, name)

    def srem(self, l, r, name=""):
        return self.binop("srem", l, r, name)

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> ICmpInst:
        return self._emit(ICmpInst(predicate, lhs, rhs, name or self._name("c")))

    def fcmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> FCmpInst:
        return self._emit(FCmpInst(predicate, lhs, rhs, name or self._name("c")))

    def cast(self, opcode: str, value: Value, to_type: Type, name: str = "") -> CastInst:
        return self._emit(CastInst(opcode, value, to_type, name or self._name("x")))

    def select(self, cond: Value, tv: Value, fv: Value, name: str = "") -> SelectInst:
        return self._emit(SelectInst(cond, tv, fv, name or self._name("s")))

    # -- control flow ------------------------------------------------------------
    def br(self, target: BasicBlock) -> BranchInst:
        return self._emit(BranchInst(target))

    def cond_br(self, cond: Value, true_block: BasicBlock, false_block: BasicBlock) -> CondBranchInst:
        return self._emit(CondBranchInst(cond, true_block, false_block))

    def ret(self, value: Optional[Value] = None) -> ReturnInst:
        return self._emit(ReturnInst(value))

    def unreachable(self) -> UnreachableInst:
        return self._emit(UnreachableInst())

    def phi(self, type_: Type, name: str = "") -> PhiInst:
        phi = PhiInst(type_, name or self._name("p"))
        assert self.block is not None
        return self.block.insert_front(phi)

    # -- calls ------------------------------------------------------------
    def call(self, callee, args: Sequence[Value], name: str = "") -> CallInst:
        inst = CallInst(callee, args, "")
        if not inst.type.is_void:
            inst.name = name or self._name("r")
        return self._emit(inst)
