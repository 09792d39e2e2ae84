"""Compiler driver: C source → preprocessed → AST → IR → optimized IR."""

from __future__ import annotations

from typing import Dict, Optional

from repro.frontend.codegen import CodegenError, generate_module
from repro.frontend.lexer import LexError
from repro.frontend.parser import CParseError, parse_c
from repro.frontend.preprocessor import PreprocessError, count_loc, preprocess
from repro.frontend.sema import SemaError
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.obs.trace import TRACER
from repro.passes import run_pipeline


class CompileError(ValueError):
    """Any front-end failure (lex/parse/sema/codegen/preprocess)."""


def compile_c(source: str, name: str = "module", opt_level: str = "O0",
              extra_headers: Optional[Dict[str, str]] = None,
              verify: bool = True) -> Module:
    """Compile a C translation unit to (optionally optimized) IR.

    ``opt_level`` is one of ``O0``/``O1``/``O2``/``Os`` (a leading dash is
    accepted).  Raises :class:`CompileError` on any front-end failure.
    """
    try:
        with TRACER.stage("compile"):
            text = preprocess(source, extra_headers)
            unit = parse_c(text)
            module = generate_module(unit, name)
    except (PreprocessError, LexError, CParseError, SemaError, CodegenError) as exc:
        raise CompileError(str(exc)) from exc
    except RecursionError:
        # Pathologically nested input (found by the fuzz harness: a few
        # thousand nested parens or blocks blows the recursive-descent
        # parser's stack).  By the time we get here the stack has
        # unwound, so raising a typed rejection is safe.
        raise CompileError(
            f"{name}: program nesting exceeds the compiler's limits") \
            from None
    if verify:
        with TRACER.stage("verify"):
            verify_module(module)
    try:
        with TRACER.stage("passes"):
            run_pipeline(module, opt_level)
    except RecursionError:
        raise CompileError(
            f"{name}: optimizing {opt_level} exceeded the compiler's "
            "recursion limits") from None
    if verify:
        with TRACER.stage("verify"):
            verify_module(module)
    return module


def preprocess_and_count_loc(source: str,
                             extra_headers: Optional[Dict[str, str]] = None) -> int:
    """LoC after preprocessing — the paper's Fig. 2 size metric."""
    try:
        return count_loc(preprocess(source, extra_headers))
    except PreprocessError as exc:
        raise CompileError(str(exc)) from exc
