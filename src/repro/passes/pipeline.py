"""Optimization pipelines mirroring clang's -O0 / -O2 / -Os shapes."""

from __future__ import annotations

from typing import Callable, Dict

from repro.ir.module import Module
from repro.passes.constfold import fold_constants
from repro.passes.dce import eliminate_dead_code, remove_dead_functions
from repro.passes.gvn import global_value_numbering
from repro.passes.inliner import inline_functions
from repro.passes.instcombine import combine_instructions
from repro.passes.licm import loop_invariant_code_motion
from repro.passes.mem2reg import promote_memory_to_registers
from repro.passes.simplifycfg import simplify_cfg


def _o0(module: Module) -> None:
    # -O0 leaves the frontend output intact (like clang).
    return None


def _cleanup(module: Module) -> None:
    combine_instructions(module)
    fold_constants(module)
    eliminate_dead_code(module)
    simplify_cfg(module)
    eliminate_dead_code(module)


def _o1(module: Module) -> None:
    simplify_cfg(module)
    promote_memory_to_registers(module)
    _cleanup(module)


def _o2(module: Module) -> None:
    simplify_cfg(module)
    promote_memory_to_registers(module)
    _cleanup(module)
    inline_functions(module)
    simplify_cfg(module)
    promote_memory_to_registers(module)
    _cleanup(module)
    # Scalar optimizations over the inlined SSA form (clang's -O2 runs
    # GVN and LICM at roughly this point in its pipeline).
    global_value_numbering(module)
    loop_invariant_code_motion(module)
    _cleanup(module)


def _os(module: Module) -> None:
    # Size-oriented: SSA + cleanups, no inlining (code growth), and drop
    # uncalled functions so module sizes converge — the property the paper
    # exploits when choosing -Os for IR2vec.
    simplify_cfg(module)
    promote_memory_to_registers(module)
    _cleanup(module)
    remove_dead_functions(module)


OPT_LEVELS: Dict[str, Callable[[Module], None]] = {
    "O0": _o0,
    "O1": _o1,
    "O2": _o2,
    "Os": _os,
}


def run_pipeline(module: Module, opt_level: str = "O0") -> Module:
    level = opt_level.lstrip("-")
    if level not in OPT_LEVELS:
        raise ValueError(f"unknown optimization level {opt_level!r}")
    OPT_LEVELS[level](module)
    return module
