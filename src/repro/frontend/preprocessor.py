"""A small C preprocessor.

Supports ``#include`` of the known system/benchmark headers, object-like
``#define`` macros, and ``#ifdef``/``#ifndef``/``#else``/``#endif``.

The crucial reproduction detail is ``mpitest.h``: in MPI-CorrBench only the
*correct* codes include it, and its expansion adds ~100 lines of helper
code — this is the code-size bias the paper identifies (correct codes have
at least 103 LoC) and removes.  :func:`preprocess` therefore really expands
it, and the dataset debiasing step (see ``repro.datasets``) strips the
include before compilation, exactly like the paper.
"""

from __future__ import annotations

import re
from typing import Dict, List


class PreprocessError(ValueError):
    pass


def _mpitest_header() -> str:
    """Synthetic stand-in for MPI-CorrBench's ``mpitest.h`` helper header.

    Generates ~100 lines of real, compilable helper functions so that both
    the line count *and* the IR of including codes are inflated, mirroring
    the bias analyzed in the paper (Section III / Fig. 2).
    """
    lines: List[str] = [
        "int mpitest_verbosity = 0;",
        "int mpitest_world_rank = 0;",
        "int mpitest_world_size = 1;",
        "int mpitest_error_count = 0;",
        "void mpitest_init(int* argc, char*** argv) {",
        "  MPI_Comm_rank(MPI_COMM_WORLD, &mpitest_world_rank);",
        "  MPI_Comm_size(MPI_COMM_WORLD, &mpitest_world_size);",
        "}",
        "int mpitest_check_error(int code) {",
        "  if (code != MPI_SUCCESS) {",
        "    mpitest_error_count = mpitest_error_count + 1;",
        "    return 1;",
        "  }",
        "  return 0;",
        "}",
        "void mpitest_report(char* name) {",
        "  if (mpitest_world_rank == 0) {",
        "    if (mpitest_error_count == 0) {",
        '      printf("%s passed\\n", name);',
        "    } else {",
        '      printf("%s failed with %d errors\\n", name, mpitest_error_count);',
        "    }",
        "  }",
        "}",
    ]
    # Per-datatype fill/verify helper pairs pad the header to CorrBench-like
    # length while exercising distinct IR (loops, compares, float ops).
    for ctype, suffix in (("int", "int"), ("double", "double"),
                          ("float", "float"), ("long", "long"), ("char", "char")):
        lines.extend([
            f"void mpitest_fill_{suffix}({ctype}* buffer, int count, int seed) {{",
            "  int i;",
            "  for (i = 0; i < count; i++) {",
            f"    buffer[i] = ({ctype})(seed + i);",
            "  }",
            "}",
            f"int mpitest_verify_{suffix}({ctype}* buffer, int count, int seed) {{",
            "  int i;",
            "  int bad = 0;",
            "  for (i = 0; i < count; i++) {",
            f"    if (buffer[i] != ({ctype})(seed + i)) {{",
            "      bad = bad + 1;",
            "    }",
            "  }",
            "  return bad;",
            "}",
        ])
    return "\n".join(lines) + "\n"


# Headers whose declarations are builtin to sema: expand to nothing.
_EMPTY_HEADERS = {
    "mpi.h", "stdio.h", "stdlib.h", "string.h", "math.h", "unistd.h",
    "assert.h", "time.h", "limits.h", "stddef.h", "stdint.h", "stdarg.h",
    "errno.h", "float.h",
}

KNOWN_HEADERS: Dict[str, str] = {name: "" for name in _EMPTY_HEADERS}
KNOWN_HEADERS["mpitest.h"] = _mpitest_header()

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')
_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)(?:\s+(.*))?$")
_DEFINE_FN_RE = re.compile(r"^\s*#\s*define\s+(\w+)\(")
_IFDEF_RE = re.compile(r"^\s*#\s*(ifdef|ifndef)\s+(\w+)")
_UNDEF_RE = re.compile(r"^\s*#\s*undef\s+(\w+)")


def preprocess(source: str, extra_headers: Dict[str, str] | None = None) -> str:
    """Expand includes/macros; returns the preprocessed source."""
    headers = dict(KNOWN_HEADERS)
    if extra_headers:
        headers.update(extra_headers)
    macros: Dict[str, str] = {}
    output: List[str] = []
    # condition stack: True = emitting
    emit_stack: List[bool] = []

    def emitting() -> bool:
        return all(emit_stack)

    for raw_line in source.splitlines():
        line = raw_line
        stripped = line.strip()
        if stripped.startswith("#"):
            m = _IFDEF_RE.match(stripped)
            if m:
                kind, name = m.groups()
                defined = name in macros
                emit_stack.append(defined if kind == "ifdef" else not defined)
                continue
            if re.match(r"^\s*#\s*else\b", stripped):
                if not emit_stack:
                    raise PreprocessError("#else without #if")
                emit_stack[-1] = not emit_stack[-1]
                continue
            if re.match(r"^\s*#\s*endif\b", stripped):
                if not emit_stack:
                    raise PreprocessError("#endif without #if")
                emit_stack.pop()
                continue
            if not emitting():
                continue
            m = _INCLUDE_RE.match(stripped)
            if m:
                header = m.group(1)
                if header not in headers:
                    raise PreprocessError(f"unknown header {header!r}")
                expansion = headers[header]
                if expansion:
                    output.extend(expansion.splitlines())
                continue
            if _DEFINE_FN_RE.match(stripped):
                raise PreprocessError("function-like macros are not supported")
            m = _DEFINE_RE.match(stripped)
            if m:
                name, body = m.groups()
                macros[name] = (body or "").strip()
                continue
            m = _UNDEF_RE.match(stripped)
            if m:
                macros.pop(m.group(1), None)
                continue
            if re.match(r"^\s*#\s*(pragma|if\b|elif)", stripped):
                # #pragma: ignored; #if expressions: unsupported, treated
                # as always-true to keep benchmark headers permissive.
                if re.match(r"^\s*#\s*if\b", stripped):
                    emit_stack.append(True)
                continue
            raise PreprocessError(f"unsupported preprocessor directive: {stripped!r}")
        if not emitting():
            continue
        if macros:
            line = _substitute(line, macros)
        output.append(line)
    if emit_stack:
        raise PreprocessError("unterminated #if block")
    return "\n".join(output) + "\n"


def _substitute(line: str, macros: Dict[str, str]) -> str:
    # Token-boundary substitution, repeated until fixpoint (macros may
    # reference other macros); bounded to avoid pathological recursion.
    for _ in range(8):
        changed = False
        for name, body in macros.items():
            pattern = r"\b" + re.escape(name) + r"\b"
            new_line, n = re.subn(pattern, body, line)
            if n:
                line = new_line
                changed = True
        if not changed:
            break
    return line


def count_loc(preprocessed: str) -> int:
    """Non-blank source lines after preprocessing (paper Fig. 2 metric)."""
    return sum(1 for line in preprocessed.splitlines() if line.strip())
