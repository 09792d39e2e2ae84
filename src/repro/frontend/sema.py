"""Semantic layer of the mini-C frontend.

Maps C types to IR types, declares the builtin environment (libc subset +
the full MPI API from :mod:`repro.mpi.api`), and resolves named constants
(``MPI_COMM_WORLD``, ``NULL``, ...).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.frontend import cast as A
from repro.ir.module import Module
from repro.ir.types import (
    DOUBLE,
    FLOAT,
    FunctionType,
    I8,
    I32,
    I64,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
    ArrayType,
)
from repro.mpi.api import MPI_CONSTANTS, MPI_FUNCTIONS, MPI_POINTER_CONSTANTS


class SemaError(ValueError):
    pass


MPI_STATUS_TYPE = StructType("MPI_Status", (I32, I32, I32))
MPI_STATUS_FIELDS = {"MPI_SOURCE": 0, "MPI_TAG": 1, "MPI_ERROR": 2}

_HANDLE_TYPES = {
    "MPI_Comm", "MPI_Datatype", "MPI_Op", "MPI_Request", "MPI_Win",
    "MPI_Group", "MPI_Info", "MPI_Errhandler", "MPI_Message", "MPI_File",
    "MPI_Fint",
}

_BASE_TO_IR: Dict[str, Type] = {
    "void": VOID,
    "char": I8,
    "short": IntType(16),
    "int": I32,
    "unsigned": I32,
    "long": I64,
    "float": FLOAT,
    "double": DOUBLE,
    "size_t": I64,
    "int32_t": I32,
    "int64_t": I64,
    "uint64_t": I64,
    "MPI_Aint": I64,
    "MPI_Count": I64,
    "MPI_Status": MPI_STATUS_TYPE,
}


def lower_ctype(ctype: A.CType) -> Type:
    """Lower a frontend C type to an IR type."""
    if ctype.base in _HANDLE_TYPES:
        base: Type = I32
    elif ctype.base in _BASE_TO_IR:
        base = _BASE_TO_IR[ctype.base]
    elif ctype.base.startswith("struct "):
        base = StructType(ctype.base.split(" ", 1)[1])
    else:
        raise SemaError(f"unknown C type {ctype.base!r}")
    for dim in reversed(ctype.array_dims):
        if dim is not None and dim < 0:
            # Found by the fuzz harness: a negative extent used to escape
            # as the IR type constructor's bare ValueError.
            raise SemaError(f"array declared with negative extent {dim}")
        base = ArrayType(base, dim if dim is not None else 0)
    for _ in range(ctype.pointers):
        # `void*` is modelled as `i8*`, like LLVM before opaque pointers.
        if base.is_void:
            base = I8
        base = PointerType(base)
    return base


def _sig(ret: str, params: Tuple[str, ...], vararg: bool = False) -> FunctionType:
    def conv(text: str) -> Type:
        stars = text.count("*")
        base = text.replace("*", "").strip()
        return lower_ctype(A.CType(base, stars))

    return FunctionType(conv(ret), tuple(conv(p) for p in params), vararg)


# libc / libm subset available to benchmark codes.
_LIBC_SIGNATURES: Dict[str, FunctionType] = {
    "printf": _sig("int", ("char*",), vararg=True),
    "fprintf": _sig("int", ("void*", "char*"), vararg=True),
    "sprintf": _sig("int", ("char*", "char*"), vararg=True),
    "snprintf": _sig("int", ("char*", "long", "char*"), vararg=True),
    "puts": _sig("int", ("char*",)),
    "fflush": _sig("int", ("void*",)),
    "malloc": _sig("void*", ("long",)),
    "calloc": _sig("void*", ("long", "long")),
    "realloc": _sig("void*", ("void*", "long")),
    "free": _sig("void", ("void*",)),
    "memset": _sig("void*", ("void*", "int", "long")),
    "memcpy": _sig("void*", ("void*", "void*", "long")),
    "strlen": _sig("long", ("char*",)),
    "strcmp": _sig("int", ("char*", "char*")),
    "strncmp": _sig("int", ("char*", "char*", "long")),
    "strcpy": _sig("char*", ("char*", "char*")),
    "exit": _sig("void", ("int",)),
    "abort": _sig("void", ()),
    "assert": _sig("void", ("int",)),
    "atoi": _sig("int", ("char*",)),
    "atol": _sig("long", ("char*",)),
    "rand": _sig("int", ()),
    "srand": _sig("void", ("unsigned",)),
    "sleep": _sig("unsigned", ("unsigned",)),
    "usleep": _sig("int", ("unsigned",)),
    "sqrt": _sig("double", ("double",)),
    "fabs": _sig("double", ("double",)),
    "pow": _sig("double", ("double", "double")),
    "floor": _sig("double", ("double",)),
    "ceil": _sig("double", ("double",)),
    "exp": _sig("double", ("double",)),
    "log": _sig("double", ("double",)),
    "sin": _sig("double", ("double",)),
    "cos": _sig("double", ("double",)),
}


_BUILTIN_SIGNATURES: Optional[Dict[str, FunctionType]] = None


def builtin_signatures() -> Dict[str, FunctionType]:
    """All builtin function signatures: libc subset + full MPI API.

    Built once per process: lowering the ~300-function MPI API dominated
    ``Environment.__init__`` (≈20% of a cold compile) when rebuilt per
    compilation.  Callers get a fresh shallow copy; the signature values
    themselves are immutable ``FunctionType`` objects.
    """
    global _BUILTIN_SIGNATURES
    if _BUILTIN_SIGNATURES is None:
        signatures = dict(_LIBC_SIGNATURES)
        for fn in MPI_FUNCTIONS.values():
            signatures[fn.name] = _sig(fn.ret, fn.params)
        _BUILTIN_SIGNATURES = signatures
    return dict(_BUILTIN_SIGNATURES)


class Environment:
    """Named-constant and builtin-declaration environment for codegen."""

    def __init__(self, module: Module):
        self.module = module
        self.int_constants: Dict[str, int] = dict(MPI_CONSTANTS)
        self.int_constants.update({
            "NULL": 0, "EXIT_SUCCESS": 0, "EXIT_FAILURE": 1,
            "RAND_MAX": 2147483647, "INT_MAX": 2147483647,
            "INT_MIN": -2147483648,
        })
        self.pointer_constants: Dict[str, int] = dict(MPI_POINTER_CONSTANTS)
        self.declared: Dict[str, FunctionType] = {}
        self._signatures = builtin_signatures()

    def declare_builtin(self, name: str):
        """Declare builtin ``name`` in the module on first use."""
        if name in self.declared:
            return self.module.functions[name]
        sig = self._signatures.get(name)
        if sig is None:
            return None
        self.declared[name] = sig
        return self.module.add_function(name, sig)

    def is_builtin(self, name: str) -> bool:
        return name in self._signatures

    def constant_value(self, name: str) -> Optional[int]:
        if name in self.int_constants:
            return self.int_constants[name]
        return None

    def is_pointer_constant(self, name: str) -> bool:
        return name in self.pointer_constants
