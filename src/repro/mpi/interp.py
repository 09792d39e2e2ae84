"""IR interpreter: executes one MPI rank's view of a compiled module.

Each rank owns a private memory (MPI's distributed-memory model).  The VM
steps one instruction at a time so the scheduler in
:mod:`repro.mpi.simulator` can interleave ranks deterministically, block
ranks on MPI operations, and observe every load/store (for the
concurrency checkers).

Memory model: cell-granular — every scalar/pointer occupies one cell and
addresses are plain integers, with getelementptr scaling in cells.  This
keeps the interpreter fast while preserving aliasing behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.ir.types import ArrayType, IntType, PointerType, StructType, Type
from repro.ir.values import Argument, Constant, ConstantString, GlobalVariable, UndefValue, Value


class InterpError(Exception):
    """Raised on a runtime fault (null deref, missing function, ...)."""


def cells_of(t: Type) -> int:
    if isinstance(t, ArrayType):
        return max(1, t.count) * cells_of(t.element)
    if isinstance(t, StructType):
        return sum(cells_of(f) for f in t.fields) or 1
    return 1


@dataclass
class Frame:
    fn: Function
    block: BasicBlock
    index: int
    values: Dict[int, object] = field(default_factory=dict)
    prev_block: Optional[BasicBlock] = None
    call_site: Optional[CallInst] = None


class Memory:
    """Per-rank linear memory with a bump allocator."""

    def __init__(self):
        self.cells: Dict[int, object] = {}
        self.next_addr = 0x1000
        self.strings: Dict[str, int] = {}

    def allocate(self, count: int) -> int:
        addr = self.next_addr
        self.next_addr += max(1, count) + 1  # +1 red-zone cell
        return addr

    def load(self, addr: int) -> object:
        if addr == 0:
            raise InterpError("null pointer dereference (load)")
        return self.cells.get(addr, 0)

    def store(self, addr: int, value: object) -> None:
        if addr == 0:
            raise InterpError("null pointer dereference (store)")
        self.cells[addr] = value

    def intern_string(self, text: str) -> int:
        if text not in self.strings:
            addr = self.allocate(len(text) + 1)
            for i, ch in enumerate(text):
                self.cells[addr + i] = ord(ch)
            self.cells[addr + len(text)] = 0
            self.strings[text] = addr
        return self.strings[text]


# Signals the VM returns to the scheduler.
@dataclass
class ExternCall:
    """The VM hit a call to an external (MPI) function."""
    name: str
    args: List[object]
    inst: CallInst


DONE = "done"
STEP = "step"


def _wrap(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    wrapped = int(value) & mask
    if bits > 1 and wrapped >= (1 << (bits - 1)):
        wrapped -= 1 << bits
    return wrapped


class RankVM:
    """Executes the module's ``main`` for one rank."""

    def __init__(self, module: Module, rank: int, *,
                 on_load: Optional[Callable[[int], None]] = None,
                 on_store: Optional[Callable[[int], None]] = None,
                 libc_rand_seed: int = 12345):
        self.module = module
        self.rank = rank
        self.memory = Memory()
        self.stack: List[Frame] = []
        self.on_load = on_load
        self.on_store = on_store
        self.exit_code: Optional[int] = None
        self.steps = 0
        self._rand_state = (libc_rand_seed * 6364136223846793005 + rank) & 0xFFFFFFFF
        self._globals: Dict[str, int] = {}
        self._init_globals()
        self._start()

    # ------------------------------------------------------------------ setup
    def _init_globals(self) -> None:
        for gv in self.module.globals.values():
            count = cells_of(gv.value_type)
            addr = self.memory.allocate(count)
            self._globals[gv.name] = addr
            if gv.initializer is not None:
                if isinstance(gv.initializer, ConstantString):
                    saddr = self.memory.intern_string(gv.initializer.text)
                    self.memory.cells[addr] = saddr
                else:
                    self.memory.cells[addr] = gv.initializer.value or 0
            else:
                for i in range(count):
                    self.memory.cells[addr + i] = 0

    def _start(self) -> None:
        main = self.module.get_function("main")
        if main is None or main.is_declaration:
            raise InterpError("module has no main function")
        frame = Frame(main, main.entry, 0)
        # argc = 1, argv = pointer to {program-name, NULL}
        args: List[object] = []
        if len(main.arguments) >= 1:
            args.append(1)
        if len(main.arguments) >= 2:
            argv = self.memory.allocate(2)
            self.memory.cells[argv] = self.memory.intern_string("a.out")
            self.memory.cells[argv + 1] = 0
            args.append(argv)
        for arg, value in zip(main.arguments, args):
            frame.values[id(arg)] = value
        self.stack.append(frame)

    @property
    def finished(self) -> bool:
        return not self.stack

    # ------------------------------------------------------------------ values
    def value_of(self, v: Value, frame: Frame) -> object:
        if isinstance(v, Constant):
            if isinstance(v, ConstantString):
                return self.memory.intern_string(v.text)
            if v.value is None:
                return 0
            return v.value
        if isinstance(v, UndefValue):
            return 0
        if isinstance(v, GlobalVariable):
            return self._globals[v.name]
        if isinstance(v, Function):
            return ("fn", v.name)
        if isinstance(v, (Instruction, Argument)):
            return frame.values.get(id(v), 0)
        raise InterpError(f"cannot evaluate {v!r}")

    def set_result(self, inst: CallInst, value: object) -> None:
        """Scheduler callback: deliver an external call's return value."""
        frame = self.stack[-1]
        if not inst.type.is_void:
            frame.values[id(inst)] = value
        frame.index += 1

    # ------------------------------------------------------------------ stepping
    def step(self):
        """Execute one instruction.

        Returns STEP, DONE, or an :class:`ExternCall` the scheduler must
        service (the VM stays paused on the call until ``set_result``).
        """
        if not self.stack:
            return DONE
        self.steps += 1
        frame = self.stack[-1]
        inst = frame.block.instructions[frame.index]

        if isinstance(inst, CallInst):
            callee = inst.callee
            if isinstance(callee, Function) and not callee.is_declaration:
                new_frame = Frame(callee, callee.entry, 0, call_site=inst)
                for formal, actual in zip(callee.arguments, inst.args):
                    new_frame.values[id(formal)] = self.value_of(actual, frame)
                self.stack.append(new_frame)
                return STEP
            name = callee.name
            args = [self.value_of(a, frame) for a in inst.args]
            handled = self._libc(name, args)
            if handled is not NotImplemented:
                if not self.stack:
                    return DONE        # exit()/abort() cleared the stack
                self.set_result(inst, handled)
                return STEP
            return ExternCall(name, args, inst)

        if isinstance(inst, ReturnInst):
            value = (self.value_of(inst.return_value, frame)
                     if inst.return_value is not None else None)
            self.stack.pop()
            if not self.stack:
                self.exit_code = int(value) if isinstance(value, (int, float)) else 0
                return DONE
            caller = self.stack[-1]
            site = frame.call_site
            assert site is not None
            if not site.type.is_void:
                caller.values[id(site)] = value
            caller.index += 1
            return STEP

        self._execute(inst, frame)
        return STEP

    # ------------------------------------------------------------------ core ops
    def _execute(self, inst: Instruction, frame: Frame) -> None:
        if isinstance(inst, AllocaInst):
            n = cells_of(inst.allocated_type)
            if inst.array_size is not None:
                n *= int(self.value_of(inst.array_size, frame))
            frame.values[id(inst)] = self.memory.allocate(n)
            frame.index += 1
        elif isinstance(inst, LoadInst):
            addr = int(self.value_of(inst.pointer, frame))
            if self.on_load:
                self.on_load(addr)
            frame.values[id(inst)] = self.memory.load(addr)
            frame.index += 1
        elif isinstance(inst, StoreInst):
            addr = int(self.value_of(inst.pointer, frame))
            if self.on_store:
                self.on_store(addr)
            self.memory.store(addr, self.value_of(inst.value, frame))
            frame.index += 1
        elif isinstance(inst, BinaryInst):
            frame.values[id(inst)] = self._binop(inst, frame)
            frame.index += 1
        elif isinstance(inst, (ICmpInst, FCmpInst)):
            frame.values[id(inst)] = self._compare(inst, frame)
            frame.index += 1
        elif isinstance(inst, CastInst):
            frame.values[id(inst)] = self._cast(inst, frame)
            frame.index += 1
        elif isinstance(inst, SelectInst):
            cond, tv, fv = inst.operands
            chosen = tv if self.value_of(cond, frame) else fv
            frame.values[id(inst)] = self.value_of(chosen, frame)
            frame.index += 1
        elif isinstance(inst, GEPInst):
            frame.values[id(inst)] = self._gep(inst, frame)
            frame.index += 1
        elif isinstance(inst, BranchInst):
            self._jump(frame, inst.target)
        elif isinstance(inst, CondBranchInst):
            cond = self.value_of(inst.cond, frame)
            self._jump(frame, inst.true_block if cond else inst.false_block)
        elif isinstance(inst, PhiInst):
            # Phis are resolved in _jump (parallel copy); stepping onto one
            # directly means it was already resolved.
            frame.index += 1
        elif isinstance(inst, UnreachableInst):
            raise InterpError("reached 'unreachable'")
        else:
            raise InterpError(f"cannot interpret {inst.opcode}")

    def _jump(self, frame: Frame, target: BasicBlock) -> None:
        source = frame.block
        # Parallel phi resolution using values from the source block.
        updates: List[Tuple[int, object]] = []
        for phi in target.phis():
            for value, pred in phi.incoming:
                if pred is source:
                    updates.append((id(phi), self.value_of(value, frame)))
                    break
        for key, value in updates:
            frame.values[key] = value
        frame.prev_block = source
        frame.block = target
        frame.index = len(target.phis())

    def _binop(self, inst: BinaryInst, frame: Frame) -> object:
        a = self.value_of(inst.lhs, frame)
        b = self.value_of(inst.rhs, frame)
        op = inst.opcode
        if op.startswith("f"):
            fa, fb = float(a), float(b)
            if op == "fadd":
                return fa + fb
            if op == "fsub":
                return fa - fb
            if op == "fmul":
                return fa * fb
            if op == "fdiv":
                return fa / fb if fb != 0.0 else math.inf
            if op == "frem":
                return math.fmod(fa, fb) if fb != 0.0 else math.nan
        ia, ib = int(a), int(b)
        bits = inst.type.bits if isinstance(inst.type, IntType) else 64
        if op == "add":
            return _wrap(ia + ib, bits)
        if op == "sub":
            return _wrap(ia - ib, bits)
        if op == "mul":
            return _wrap(ia * ib, bits)
        if op == "sdiv":
            if ib == 0:
                raise InterpError("integer division by zero")
            return _wrap(int(ia / ib), bits)
        if op == "udiv":
            if ib == 0:
                raise InterpError("integer division by zero")
            return _wrap((ia & (1 << bits) - 1) // (ib & (1 << bits) - 1), bits)
        if op == "srem":
            if ib == 0:
                raise InterpError("integer remainder by zero")
            return _wrap(ia - int(ia / ib) * ib, bits)
        if op == "urem":
            if ib == 0:
                raise InterpError("integer remainder by zero")
            return _wrap((ia & (1 << bits) - 1) % (ib & (1 << bits) - 1), bits)
        if op == "and":
            return _wrap(ia & ib, bits)
        if op == "or":
            return _wrap(ia | ib, bits)
        if op == "xor":
            return _wrap(ia ^ ib, bits)
        if op == "shl":
            return _wrap(ia << (ib & (bits - 1)), bits)
        if op == "lshr":
            return _wrap((ia & (1 << bits) - 1) >> (ib & (bits - 1)), bits)
        if op == "ashr":
            return _wrap(ia >> (ib & (bits - 1)), bits)
        raise InterpError(f"unknown binop {op}")

    def _compare(self, inst, frame: Frame) -> int:
        a = self.value_of(inst.operands[0], frame)
        b = self.value_of(inst.operands[1], frame)
        p = inst.predicate
        if isinstance(inst, FCmpInst):
            fa, fb = float(a), float(b)
            return int({
                "oeq": fa == fb, "one": fa != fb, "ogt": fa > fb,
                "oge": fa >= fb, "olt": fa < fb, "ole": fa <= fb,
            }[p])
        # Tuples (function pointers) compare by identity.
        if isinstance(a, tuple) or isinstance(b, tuple):
            eq = a == b
            return int(eq if p == "eq" else not eq)
        ia, ib = int(a), int(b)
        if p.startswith("u"):
            ia &= 0xFFFFFFFFFFFFFFFF
            ib &= 0xFFFFFFFFFFFFFFFF
            p = "s" + p[1:]
        return int({
            "eq": ia == ib, "ne": ia != ib, "sgt": ia > ib,
            "sge": ia >= ib, "slt": ia < ib, "sle": ia <= ib,
        }[p])

    def _cast(self, inst: CastInst, frame: Frame) -> object:
        v = self.value_of(inst.operands[0], frame)
        op = inst.opcode
        if op in ("bitcast", "inttoptr", "ptrtoint"):
            return v
        if op in ("trunc", "zext", "sext"):
            bits = inst.type.bits  # type: ignore[union-attr]
            iv = int(v)
            if op == "zext":
                src_bits = inst.operands[0].type.bits  # type: ignore[union-attr]
                iv &= (1 << src_bits) - 1
            return _wrap(iv, bits)
        if op in ("fptrunc", "fpext", "sitofp"):
            return float(v)
        if op == "fptosi":
            return int(v)
        raise InterpError(f"unknown cast {op}")

    def _gep(self, inst: GEPInst, frame: Frame) -> int:
        addr = int(self.value_of(inst.pointer, frame))
        ptype = inst.pointer.type
        assert isinstance(ptype, PointerType)
        t: Type = ptype.pointee
        indices = [int(self.value_of(i, frame)) for i in inst.indices]
        addr += indices[0] * cells_of(t)
        for idx in indices[1:]:
            if isinstance(t, ArrayType):
                t = t.element
                addr += idx * cells_of(t)
            elif isinstance(t, StructType):
                addr += sum(cells_of(f) for f in t.fields[:idx])
                t = t.fields[idx] if idx < len(t.fields) else t
            else:
                addr += idx
        return addr

    # ------------------------------------------------------------------ libc
    def _libc(self, name: str, args: List[object]):
        """Handle libc calls locally; NotImplemented means 'not libc'."""
        if name in ("printf", "fprintf", "puts", "fflush", "sprintf", "snprintf"):
            return 0
        if name == "malloc":
            return self.memory.allocate(int(args[0]))
        if name == "calloc":
            n = int(args[0]) * int(args[1])
            addr = self.memory.allocate(n)
            for i in range(n):
                self.memory.cells[addr + i] = 0
            return addr
        if name == "realloc":
            return self.memory.allocate(int(args[1]))
        if name == "free":
            return None
        if name == "memset":
            addr, value, n = int(args[0]), int(args[1]), int(args[2])
            for i in range(n):
                self.memory.cells[addr + i] = value
            return addr
        if name == "memcpy":
            dst, src, n = int(args[0]), int(args[1]), int(args[2])
            for i in range(n):
                self.memory.cells[dst + i] = self.memory.cells.get(src + i, 0)
            return dst
        if name == "strlen":
            addr = int(args[0])
            n = 0
            while self.memory.cells.get(addr + n, 0) != 0:
                n += 1
                if n > 1 << 20:
                    raise InterpError("unterminated string")
            return n
        if name in ("strcmp", "strncmp"):
            a, b = int(args[0]), int(args[1])
            limit = int(args[2]) if name == "strncmp" else 1 << 20
            i = 0
            while i < limit:
                ca = int(self.memory.cells.get(a + i, 0))
                cb = int(self.memory.cells.get(b + i, 0))
                if ca != cb:
                    return (ca > cb) - (ca < cb)
                if ca == 0:
                    return 0
                i += 1
            return 0
        if name == "strcpy":
            dst, src = int(args[0]), int(args[1])
            i = 0
            while True:
                ch = int(self.memory.cells.get(src + i, 0))
                self.memory.cells[dst + i] = ch
                if ch == 0:
                    return dst
                i += 1
        if name in ("exit", "abort"):
            self.exit_code = int(args[0]) if args else 134
            self.stack.clear()
            return None
        if name == "assert":
            if not args[0]:
                raise InterpError("assertion failure")
            return None
        if name == "atoi" or name == "atol":
            return 0
        if name == "rand":
            self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
            return self._rand_state
        if name == "srand":
            self._rand_state = int(args[0]) & 0x7FFFFFFF
            return None
        if name in ("sleep", "usleep"):
            return 0
        if name == "sqrt":
            return math.sqrt(max(0.0, float(args[0])))
        if name == "fabs":
            return abs(float(args[0]))
        if name == "pow":
            return float(args[0]) ** float(args[1])
        if name == "floor":
            return math.floor(float(args[0]))
        if name == "ceil":
            return math.ceil(float(args[0]))
        if name == "exp":
            return math.exp(min(700.0, float(args[0])))
        if name == "log":
            return math.log(float(args[0])) if float(args[0]) > 0 else -math.inf
        if name in ("sin", "cos"):
            return getattr(math, name)(float(args[0]))
        return NotImplemented
