"""AST → IR lowering for the mini-C frontend.

Produces clang-at-``-O0``-style IR: every local lives in an entry-block
alloca, reads are loads, writes are stores.  The optimization pipelines in
:mod:`repro.passes` then promote to SSA exactly like LLVM's mem2reg.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.frontend import cast as A
from repro.frontend.sema import (
    Environment,
    MPI_STATUS_FIELDS,
    SemaError,
    lower_ctype,
)
from repro.ir.builder import IRBuilder
from repro.ir.instructions import AllocaInst
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import (
    ArrayType,
    DOUBLE,
    FLOAT,
    FloatType,
    FunctionType,
    I1,
    I32,
    I64,
    I8,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
    ptr,
    type_size_bits,
)
from repro.ir.values import Constant, ConstantString, GlobalVariable, Value


class CodegenError(ValueError):
    pass


class CodeGenerator:
    def __init__(self, unit: A.TranslationUnit, module_name: str = "module"):
        self.unit = unit
        self.module = Module(module_name)
        self.env = Environment(self.module)
        self.globals: Dict[str, GlobalVariable] = {}
        # per-function state
        self.builder = IRBuilder()
        self.fn: Optional[Function] = None
        self.scopes: List[Dict[str, Value]] = []
        self.loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []  # (break, continue)
        self._alloca_idx = 0

    # ------------------------------------------------------------------ API
    def generate(self) -> Module:
        # Pass 1: declare globals and all function signatures.
        for item in self.unit.items:
            if isinstance(item, A.GlobalDecl):
                self._emit_global(item.decl)
            elif isinstance(item, A.FunctionDef):
                ftype = FunctionType(
                    lower_ctype(item.ret),
                    tuple(lower_ctype(p.ctype) for p in item.params),
                    item.vararg,
                )
                self.module.add_function(item.name, ftype, [p.name for p in item.params])
        # Pass 2: bodies.
        for item in self.unit.items:
            if isinstance(item, A.FunctionDef) and item.body is not None:
                self._emit_function(item)
        return self.module

    # -------------------------------------------------------------- globals
    def _emit_global(self, decl: A.Declaration) -> None:
        vtype = lower_ctype(decl.ctype)
        initializer: Optional[Constant] = None
        if decl.init is not None:
            folded = self._fold_constant(decl.init, vtype)
            if folded is None:
                raise CodegenError(f"global {decl.name}: non-constant initializer")
            initializer = folded
        gv = GlobalVariable(vtype, decl.name, initializer)
        self.module.add_global(gv)
        self.globals[decl.name] = gv

    def _fold_constant(self, expr: A.Expr, vtype: Type) -> Optional[Constant]:
        if isinstance(expr, A.IntLit):
            if isinstance(vtype, FloatType):
                return Constant(vtype, float(expr.value))
            return Constant(vtype, expr.value)
        if isinstance(expr, A.FloatLit):
            return Constant(vtype, expr.value)
        if isinstance(expr, A.StrLit):
            return ConstantString(expr.value)
        if isinstance(expr, A.Unary) and expr.op == "-":
            inner = self._fold_constant(expr.operand, vtype)
            if inner is not None and not isinstance(inner, ConstantString):
                return Constant(vtype, -inner.value)
        if isinstance(expr, A.Ident):
            value = self.env.constant_value(expr.name)
            if value is not None:
                if isinstance(vtype, PointerType):
                    return Constant(vtype, None)
                return Constant(vtype, value)
        return None

    # -------------------------------------------------------------- functions
    def _emit_function(self, node: A.FunctionDef) -> None:
        fn = self.module.functions[node.name]
        self.fn = fn
        entry = fn.add_block("entry")
        self.builder.position_at_end(entry)
        self.scopes = [{}]
        self.loop_stack = []
        self._alloca_idx = 0

        # Spill arguments into allocas (clang -O0 style).
        for arg in fn.arguments:
            slot = self._create_alloca(arg.type, f"{arg.name}.addr")
            self.builder.store(arg, slot)
            self.scopes[-1][arg.name] = slot

        self._emit_stmt(node.body)

        # Implicit return on fall-through.
        block = self.builder.block
        assert block is not None
        if not block.is_terminated:
            ret = fn.ftype.ret
            if ret.is_void:
                self.builder.ret()
            elif isinstance(ret, FloatType):
                self.builder.ret(Constant(ret, 0.0))
            elif isinstance(ret, PointerType):
                self.builder.ret(Constant(ret, None))
            else:
                self.builder.ret(Constant(ret, 0))
        # Terminate any dangling unreachable blocks created after returns.
        for b in fn.blocks:
            if not b.is_terminated:
                saved = self.builder.block
                self.builder.position_at_end(b)
                self.builder.unreachable()
                self.builder.position_at_end(saved)
        self.fn = None

    def _create_alloca(self, type_: Type, name: str) -> AllocaInst:
        assert self.fn is not None
        inst = AllocaInst(type_, self.fn.unique_name(name.replace(" ", "_")))
        entry = self.fn.entry
        entry.instructions.insert(self._alloca_idx, inst)
        inst.parent = entry
        self._alloca_idx += 1
        return inst

    # -------------------------------------------------------------- scopes
    def _lookup(self, name: str) -> Optional[Value]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return self.globals.get(name)

    # -------------------------------------------------------------- statements
    def _emit_stmt(self, stmt: A.Stmt) -> None:
        block = self.builder.block
        assert block is not None
        if block.is_terminated:
            # Dead code after return/break: keep compiling into a fresh
            # (unreachable) block, like clang does.
            assert self.fn is not None
            self.builder.position_at_end(self.fn.add_block("dead"))

        if isinstance(stmt, A.Compound):
            self.scopes.append({})
            for s in stmt.body:
                self._emit_stmt(s)
            self.scopes.pop()
        elif isinstance(stmt, A.Declaration):
            self._emit_local_decl(stmt)
        elif isinstance(stmt, A.ExprStmt):
            if stmt.expr is not None:
                self._emit_expr(stmt.expr)
        elif isinstance(stmt, A.If):
            self._emit_if(stmt)
        elif isinstance(stmt, A.While):
            self._emit_while(stmt)
        elif isinstance(stmt, A.DoWhile):
            self._emit_do_while(stmt)
        elif isinstance(stmt, A.For):
            self._emit_for(stmt)
        elif isinstance(stmt, A.Return):
            self._emit_return(stmt)
        elif isinstance(stmt, A.Break):
            if not self.loop_stack:
                raise CodegenError("break outside loop")
            self.builder.br(self.loop_stack[-1][0])
        elif isinstance(stmt, A.Continue):
            if not self.loop_stack:
                raise CodegenError("continue outside loop")
            self.builder.br(self.loop_stack[-1][1])
        else:
            raise CodegenError(f"unsupported statement {type(stmt).__name__}")

    def _emit_local_decl(self, decl: A.Declaration) -> None:
        vtype = lower_ctype(decl.ctype)
        if isinstance(vtype, ArrayType) and vtype.count == 0 and decl.init_list:
            vtype = ArrayType(vtype.element, len(decl.init_list))
        slot = self._create_alloca(vtype, decl.name)
        self.scopes[-1][decl.name] = slot
        if decl.init is not None:
            value = self._convert(self._emit_expr(decl.init), vtype)
            self.builder.store(value, slot)
        elif decl.init_list is not None:
            if not isinstance(vtype, ArrayType):
                raise CodegenError(f"brace initializer on non-array {decl.name}")
            for i, item in enumerate(decl.init_list):
                element_ptr = self.builder.gep(
                    slot, [Constant(I32, 0), Constant(I32, i)], ptr(vtype.element)
                )
                self.builder.store(
                    self._convert(self._emit_expr(item), vtype.element), element_ptr
                )

    def _emit_if(self, stmt: A.If) -> None:
        assert self.fn is not None
        cond = self._to_bool(self._emit_expr(stmt.cond))
        then_block = self.fn.add_block("if.then")
        merge_block = self.fn.add_block("if.end")
        else_block = self.fn.add_block("if.else") if stmt.otherwise else merge_block
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.position_at_end(then_block)
        self._emit_stmt(stmt.then)
        if not self.builder.block.is_terminated:
            self.builder.br(merge_block)
        if stmt.otherwise is not None:
            self.builder.position_at_end(else_block)
            self._emit_stmt(stmt.otherwise)
            if not self.builder.block.is_terminated:
                self.builder.br(merge_block)
        self.builder.position_at_end(merge_block)

    def _emit_while(self, stmt: A.While) -> None:
        assert self.fn is not None
        cond_block = self.fn.add_block("while.cond")
        body_block = self.fn.add_block("while.body")
        end_block = self.fn.add_block("while.end")
        self.builder.br(cond_block)
        self.builder.position_at_end(cond_block)
        self.builder.cond_br(self._to_bool(self._emit_expr(stmt.cond)), body_block, end_block)
        self.builder.position_at_end(body_block)
        self.loop_stack.append((end_block, cond_block))
        self._emit_stmt(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(cond_block)
        self.builder.position_at_end(end_block)

    def _emit_do_while(self, stmt: A.DoWhile) -> None:
        assert self.fn is not None
        body_block = self.fn.add_block("do.body")
        cond_block = self.fn.add_block("do.cond")
        end_block = self.fn.add_block("do.end")
        self.builder.br(body_block)
        self.builder.position_at_end(body_block)
        self.loop_stack.append((end_block, cond_block))
        self._emit_stmt(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(cond_block)
        self.builder.position_at_end(cond_block)
        self.builder.cond_br(self._to_bool(self._emit_expr(stmt.cond)), body_block, end_block)
        self.builder.position_at_end(end_block)

    def _emit_for(self, stmt: A.For) -> None:
        assert self.fn is not None
        self.scopes.append({})
        if stmt.init is not None:
            # `for (int i = ...)` parses as a Compound of declarations; emit
            # them directly so `i` lives in the for-statement's scope.
            if isinstance(stmt.init, A.Compound):
                for s in stmt.init.body:
                    self._emit_stmt(s)
            else:
                self._emit_stmt(stmt.init)
        cond_block = self.fn.add_block("for.cond")
        body_block = self.fn.add_block("for.body")
        step_block = self.fn.add_block("for.inc")
        end_block = self.fn.add_block("for.end")
        self.builder.br(cond_block)
        self.builder.position_at_end(cond_block)
        if stmt.cond is not None:
            self.builder.cond_br(self._to_bool(self._emit_expr(stmt.cond)),
                                 body_block, end_block)
        else:
            self.builder.br(body_block)
        self.builder.position_at_end(body_block)
        self.loop_stack.append((end_block, step_block))
        self._emit_stmt(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(step_block)
        self.builder.position_at_end(step_block)
        if stmt.step is not None:
            self._emit_expr(stmt.step)
        self.builder.br(cond_block)
        self.builder.position_at_end(end_block)
        self.scopes.pop()

    def _emit_return(self, stmt: A.Return) -> None:
        assert self.fn is not None
        ret = self.fn.ftype.ret
        if stmt.value is None or ret.is_void:
            if stmt.value is not None:
                self._emit_expr(stmt.value)
            self.builder.ret()
        else:
            self.builder.ret(self._convert(self._emit_expr(stmt.value), ret))

    # -------------------------------------------------------------- expressions
    def _emit_expr(self, expr: A.Expr) -> Value:
        if isinstance(expr, A.IntLit):
            return Constant(I32, expr.value)
        if isinstance(expr, A.FloatLit):
            return Constant(DOUBLE, expr.value)
        if isinstance(expr, A.CharLit):
            return Constant(I8, expr.value)
        if isinstance(expr, A.StrLit):
            return ConstantString(expr.value)
        if isinstance(expr, A.Ident):
            return self._emit_ident(expr)
        if isinstance(expr, A.Unary):
            return self._emit_unary(expr)
        if isinstance(expr, A.Binary):
            return self._emit_binary(expr)
        if isinstance(expr, A.Assign):
            return self._emit_assign(expr)
        if isinstance(expr, A.Ternary):
            return self._emit_ternary(expr)
        if isinstance(expr, A.Call):
            return self._emit_call(expr)
        if isinstance(expr, A.Index):
            return self._load_lvalue(self._emit_lvalue(expr))
        if isinstance(expr, A.Member):
            return self._load_lvalue(self._emit_lvalue(expr))
        if isinstance(expr, A.CastExpr):
            return self._convert(self._emit_expr(expr.operand), lower_ctype(expr.to))
        if isinstance(expr, A.SizeOf):
            bits = type_size_bits(lower_ctype(expr.target))
            return Constant(I64, max(1, bits // 8))
        if isinstance(expr, A.Comma):
            value: Optional[Value] = None
            for part in expr.parts:
                value = self._emit_expr(part)
            assert value is not None
            return value
        raise CodegenError(f"unsupported expression {type(expr).__name__}")

    def _emit_ident(self, expr: A.Ident) -> Value:
        slot = self._lookup(expr.name)
        if slot is not None:
            pointee = slot.type.pointee  # type: ignore[union-attr]
            if isinstance(pointee, ArrayType):
                # Array-to-pointer decay.
                return self.builder.gep(
                    slot, [Constant(I32, 0), Constant(I32, 0)], ptr(pointee.element)
                )
            return self.builder.load(slot)
        const = self.env.constant_value(expr.name)
        if const is not None:
            return Constant(I32, const)
        if self.env.is_pointer_constant(expr.name):
            return Constant(ptr(I8), None)
        fn = self.module.get_function(expr.name)
        if fn is not None:
            return fn
        if self.env.is_builtin(expr.name):
            return self.env.declare_builtin(expr.name)
        raise CodegenError(f"use of undeclared identifier {expr.name!r}")

    def _emit_lvalue(self, expr: A.Expr) -> Value:
        if isinstance(expr, A.Ident):
            slot = self._lookup(expr.name)
            if slot is None:
                raise CodegenError(f"cannot take address of {expr.name!r}")
            return slot
        if isinstance(expr, A.Unary) and expr.op == "*":
            return self._emit_expr(expr.operand)
        if isinstance(expr, A.Index):
            base = self._emit_expr(expr.base)
            if not isinstance(base.type, PointerType):
                raise CodegenError("subscript of non-pointer value")
            index = self._convert(self._emit_expr(expr.index), I64)
            return self.builder.gep(base, [index], base.type)
        if isinstance(expr, A.Member):
            if expr.arrow:
                base = self._emit_expr(expr.base)
            else:
                base = self._emit_lvalue(expr.base)
            if not isinstance(base.type, PointerType):
                raise CodegenError("member access on non-pointer value")
            struct = base.type.pointee
            if not (isinstance(struct, StructType) and struct.name == "MPI_Status"):
                raise SemaError(f"unknown struct for member .{expr.field}")
            if expr.field not in MPI_STATUS_FIELDS:
                raise SemaError(f"MPI_Status has no field {expr.field!r}")
            idx = MPI_STATUS_FIELDS[expr.field]
            return self.builder.gep(
                base, [Constant(I32, 0), Constant(I32, idx)], ptr(I32)
            )
        raise CodegenError(f"expression is not an lvalue: {type(expr).__name__}")

    def _load_lvalue(self, pointer: Value) -> Value:
        pointee = pointer.type.pointee  # type: ignore[union-attr]
        if isinstance(pointee, ArrayType):
            return self.builder.gep(
                pointer, [Constant(I32, 0), Constant(I32, 0)], ptr(pointee.element)
            )
        return self.builder.load(pointer)

    def _emit_unary(self, expr: A.Unary) -> Value:
        op = expr.op
        if op == "&":
            if isinstance(expr.operand, A.Ident):
                name = expr.operand.name
                if self._lookup(name) is None and (
                    self.module.get_function(name) or self.env.is_builtin(name)
                ):
                    return self._emit_ident(expr.operand)
            return self._emit_lvalue(expr.operand)
        if op == "*":
            value = self._emit_expr(expr.operand)
            if not isinstance(value.type, PointerType):
                raise CodegenError("dereference of non-pointer")
            return self.builder.load(value)
        if op == "-":
            value = self._emit_expr(expr.operand)
            if isinstance(value.type, FloatType):
                return self.builder.binop("fsub", Constant(value.type, 0.0), value)
            value = self._promote_int(value)
            return self.builder.sub(Constant(value.type, 0), value)
        if op == "!":
            cond = self._to_bool(self._emit_expr(expr.operand))
            flipped = self.builder.icmp("eq", cond, Constant(I1, 0))
            return self.builder.cast("zext", flipped, I32)
        if op == "~":
            value = self._promote_int(self._emit_expr(expr.operand))
            return self.builder.binop("xor", value, Constant(value.type, -1))
        if op in ("++", "--", "p++", "p--"):
            slot = self._emit_lvalue(expr.operand)
            old = self.builder.load(slot)
            if isinstance(old.type, PointerType):
                delta = Constant(I64, 1 if "+" in op else -1)
                new = self.builder.gep(old, [delta], old.type)
            elif isinstance(old.type, FloatType):
                opcode = "fadd" if "+" in op else "fsub"
                new = self.builder.binop(opcode, old, Constant(old.type, 1.0))
            else:
                opcode = "add" if "+" in op else "sub"
                new = self.builder.binop(opcode, old, Constant(old.type, 1))
            self.builder.store(new, slot)
            return old if op.startswith("p") else new
        raise CodegenError(f"unsupported unary operator {op!r}")

    def _emit_binary(self, expr: A.Binary) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._emit_logical(expr)
        lhs = self._emit_expr(expr.lhs)
        rhs = self._emit_expr(expr.rhs)

        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self._emit_comparison(op, lhs, rhs)

        # Pointer arithmetic.
        if isinstance(lhs.type, PointerType) and op in ("+", "-") and lhs.type.pointee != VOID:
            index = self._convert(rhs, I64)
            if op == "-":
                index = self.builder.sub(Constant(I64, 0), index)
            return self.builder.gep(lhs, [index], lhs.type)
        if isinstance(rhs.type, PointerType) and op == "+":
            index = self._convert(lhs, I64)
            return self.builder.gep(rhs, [index], rhs.type)

        lhs, rhs = self._usual_conversions(lhs, rhs)
        if isinstance(lhs.type, FloatType):
            opcode = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv", "%": "frem"}.get(op)
            if opcode is None:
                raise CodegenError(f"operator {op!r} on floating operands")
            return self.builder.binop(opcode, lhs, rhs)
        opcode = {
            "+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
            "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr",
        }.get(op)
        if opcode is None:
            raise CodegenError(f"unsupported binary operator {op!r}")
        return self.builder.binop(opcode, lhs, rhs)

    def _emit_comparison(self, op: str, lhs: Value, rhs: Value) -> Value:
        if isinstance(lhs.type, PointerType) or isinstance(rhs.type, PointerType):
            target = lhs.type if isinstance(lhs.type, PointerType) else rhs.type
            lhs = self._convert(lhs, target)
            rhs = self._convert(rhs, target)
            pred = {"==": "eq", "!=": "ne", "<": "ult", ">": "ugt",
                    "<=": "ule", ">=": "uge"}[op]
            result = self.builder.icmp(pred, lhs, rhs)
        else:
            lhs, rhs = self._usual_conversions(lhs, rhs)
            if isinstance(lhs.type, FloatType):
                pred = {"==": "oeq", "!=": "one", "<": "olt", ">": "ogt",
                        "<=": "ole", ">=": "oge"}[op]
                result = self.builder.fcmp(pred, lhs, rhs)
            else:
                pred = {"==": "eq", "!=": "ne", "<": "slt", ">": "sgt",
                        "<=": "sle", ">=": "sge"}[op]
                result = self.builder.icmp(pred, lhs, rhs)
        return self.builder.cast("zext", result, I32)

    def _emit_logical(self, expr: A.Binary) -> Value:
        assert self.fn is not None
        rhs_block = self.fn.add_block("land.rhs" if expr.op == "&&" else "lor.rhs")
        merge_block = self.fn.add_block("land.end" if expr.op == "&&" else "lor.end")
        lhs = self._to_bool(self._emit_expr(expr.lhs))
        lhs_exit = self.builder.block
        assert lhs_exit is not None
        if expr.op == "&&":
            self.builder.cond_br(lhs, rhs_block, merge_block)
            short_value = Constant(I1, 0)
        else:
            self.builder.cond_br(lhs, merge_block, rhs_block)
            short_value = Constant(I1, 1)
        self.builder.position_at_end(rhs_block)
        rhs = self._to_bool(self._emit_expr(expr.rhs))
        rhs_exit = self.builder.block
        assert rhs_exit is not None
        self.builder.br(merge_block)
        self.builder.position_at_end(merge_block)
        phi = self.builder.phi(I1)
        phi.add_incoming(short_value, lhs_exit)
        phi.add_incoming(rhs, rhs_exit)
        return self.builder.cast("zext", phi, I32)

    def _emit_ternary(self, expr: A.Ternary) -> Value:
        assert self.fn is not None
        cond = self._to_bool(self._emit_expr(expr.cond))
        then_block = self.fn.add_block("cond.true")
        else_block = self.fn.add_block("cond.false")
        merge_block = self.fn.add_block("cond.end")
        self.builder.cond_br(cond, then_block, else_block)
        self.builder.position_at_end(then_block)
        then_value = self._emit_expr(expr.then)
        then_exit = self.builder.block
        self.builder.br(merge_block)
        self.builder.position_at_end(else_block)
        else_value = self._emit_expr(expr.otherwise)
        else_exit = self.builder.block
        self.builder.br(merge_block)
        # Unify types toward the "larger" side.
        target = self._common_type(then_value.type, else_value.type)
        self.builder.position_at_end(then_exit)
        # Conversions must happen in the corresponding predecessor blocks;
        # insert before the branch we just emitted.
        else_exit_term = else_exit.terminator
        then_exit_term = then_exit.terminator
        if then_exit_term is not None:
            then_exit.instructions.remove(then_exit_term)
        then_value = self._convert(then_value, target)
        if then_exit_term is not None:
            then_exit.instructions.append(then_exit_term)
        self.builder.position_at_end(else_exit)
        if else_exit_term is not None:
            else_exit.instructions.remove(else_exit_term)
        else_value = self._convert(else_value, target)
        if else_exit_term is not None:
            else_exit.instructions.append(else_exit_term)
        self.builder.position_at_end(merge_block)
        phi = self.builder.phi(target)
        phi.add_incoming(then_value, then_exit)
        phi.add_incoming(else_value, else_exit)
        return phi

    def _emit_assign(self, expr: A.Assign) -> Value:
        slot = self._emit_lvalue(expr.target)
        target_type = slot.type.pointee  # type: ignore[union-attr]
        if expr.op == "=":
            value = self._convert(self._emit_expr(expr.value), target_type)
        else:
            binop = expr.op[:-1]
            value = self._convert(
                self._emit_binary(A.Binary(binop, expr.target, expr.value)), target_type
            )
        self.builder.store(value, slot)
        return value

    def _emit_call(self, expr: A.Call) -> Value:
        name = expr.name
        callee = self.module.get_function(name)
        if callee is None:
            callee = self.env.declare_builtin(name)
        if callee is None:
            raise CodegenError(f"call to undeclared function {name!r}")
        ftype = callee.ftype
        args: List[Value] = []
        for i, arg_expr in enumerate(expr.args):
            value = self._emit_expr(arg_expr)
            if i < len(ftype.params):
                value = self._convert(value, ftype.params[i])
            else:
                # Default argument promotions for varargs.
                if value.type == FLOAT:
                    value = self.builder.cast("fpext", value, DOUBLE)
                elif isinstance(value.type, IntType) and value.type.bits < 32:
                    value = self._convert(value, I32)
            args.append(value)
        return self.builder.call(callee, args)

    # -------------------------------------------------------------- conversions
    def _promote_int(self, value: Value) -> Value:
        if isinstance(value.type, IntType) and value.type.bits < 32:
            return self._convert(value, I32)
        return value

    def _usual_conversions(self, lhs: Value, rhs: Value) -> Tuple[Value, Value]:
        if isinstance(lhs.type, FloatType) or isinstance(rhs.type, FloatType):
            target = self._common_type(lhs.type, rhs.type)
            return self._convert(lhs, target), self._convert(rhs, target)
        lhs, rhs = self._promote_int(lhs), self._promote_int(rhs)
        if isinstance(lhs.type, IntType) and isinstance(rhs.type, IntType):
            if lhs.type.bits != rhs.type.bits:
                target = lhs.type if lhs.type.bits > rhs.type.bits else rhs.type
                return self._convert(lhs, target), self._convert(rhs, target)
        return lhs, rhs

    def _common_type(self, a: Type, b: Type) -> Type:
        if a == b:
            return a
        if isinstance(a, PointerType):
            return a
        if isinstance(b, PointerType):
            return b
        if isinstance(a, FloatType) or isinstance(b, FloatType):
            bits = max(
                a.bits if isinstance(a, (FloatType, IntType)) else 64,
                b.bits if isinstance(b, (FloatType, IntType)) else 64,
            )
            return DOUBLE if bits > 32 else FLOAT
        if isinstance(a, IntType) and isinstance(b, IntType):
            return a if a.bits >= b.bits else b
        return a

    def _to_bool(self, value: Value) -> Value:
        if value.type == I1:
            return value
        if isinstance(value.type, FloatType):
            return self.builder.fcmp("one", value, Constant(value.type, 0.0))
        if isinstance(value.type, PointerType):
            return self.builder.icmp("ne", value, Constant(value.type, None))
        return self.builder.icmp("ne", value, Constant(value.type, 0))

    def _convert(self, value: Value, target: Type) -> Value:
        source = value.type
        if source == target:
            return value
        # Constant shortcuts keep -O0 IR free of trivial cast chains.
        if isinstance(value, Constant) and not isinstance(value, ConstantString):
            if isinstance(target, IntType) and isinstance(source, IntType):
                return Constant(target, _wrap_int(value.value, target.bits))
            if isinstance(target, FloatType) and isinstance(source, (IntType, FloatType)):
                return Constant(target, float(value.value))
            if isinstance(target, IntType) and isinstance(source, FloatType):
                return Constant(target, int(value.value))
            if isinstance(target, PointerType) and (
                value.value in (0, None)
            ):
                return Constant(target, None)
        if isinstance(source, IntType) and isinstance(target, IntType):
            if source.bits < target.bits:
                opcode = "zext" if source.bits == 1 else "sext"
                return self.builder.cast(opcode, value, target)
            return self.builder.cast("trunc", value, target)
        if isinstance(source, IntType) and isinstance(target, FloatType):
            return self.builder.cast("sitofp", value, target)
        if isinstance(source, FloatType) and isinstance(target, IntType):
            return self.builder.cast("fptosi", value, target)
        if isinstance(source, FloatType) and isinstance(target, FloatType):
            opcode = "fpext" if source.bits < target.bits else "fptrunc"
            return self.builder.cast(opcode, value, target)
        if isinstance(source, PointerType) and isinstance(target, PointerType):
            return self.builder.cast("bitcast", value, target)
        if isinstance(source, IntType) and isinstance(target, PointerType):
            return self.builder.cast("inttoptr", value, target)
        if isinstance(source, PointerType) and isinstance(target, IntType):
            return self.builder.cast("ptrtoint", value, target)
        if isinstance(source, FunctionType) and isinstance(target, PointerType):
            return self.builder.cast("bitcast", value, target)
        raise CodegenError(f"cannot convert {source} to {target}")


def _wrap_int(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    wrapped = value & mask
    if wrapped >= (1 << (bits - 1)) and bits > 1:
        wrapped -= 1 << bits
    return wrapped


def generate_module(unit: A.TranslationUnit, name: str = "module") -> Module:
    return CodeGenerator(unit, name).generate()
