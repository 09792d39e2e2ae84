"""C-source building blocks shared by the MBI / CorrBench generators."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

# (C element type, MPI datatype) pairs the generators draw from.
DTYPES: List[Tuple[str, str]] = [
    ("int", "MPI_INT"),
    ("float", "MPI_FLOAT"),
    ("double", "MPI_DOUBLE"),
    ("long", "MPI_LONG"),
    ("char", "MPI_CHAR"),
]

#: Blocking collectives with an emitter for correct calls.
COLLECTIVES = (
    "MPI_Barrier", "MPI_Bcast", "MPI_Reduce", "MPI_Allreduce", "MPI_Gather",
    "MPI_Allgather", "MPI_Scatter", "MPI_Alltoall", "MPI_Scan", "MPI_Exscan",
)
NB_COLLECTIVES = ("MPI_Ibarrier", "MPI_Ibcast", "MPI_Ireduce", "MPI_Iallreduce")
REDUCE_OPS = ("MPI_SUM", "MPI_MAX", "MPI_MIN", "MPI_PROD", "MPI_LAND", "MPI_BOR")


@dataclass
class Prog:
    """Accumulates pieces of a benchmark C program."""

    defines: List[str] = field(default_factory=list)
    decls: List[str] = field(default_factory=list)
    body: List[str] = field(default_factory=list)
    helpers: List[str] = field(default_factory=list)
    includes: List[str] = field(default_factory=lambda: ["<mpi.h>", "<stdio.h>", "<stdlib.h>"])
    min_procs: int = 2
    init: bool = True
    finalize: bool = True
    header_comment: str = ""

    def decl(self, line: str) -> None:
        if line not in self.decls:
            self.decls.append(line)

    def stmt(self, line: str) -> None:
        self.body.append(line)

    def render(self) -> str:
        parts: List[str] = []
        if self.header_comment:
            parts.append(self.header_comment)
        parts.extend(f"#include {inc}" for inc in self.includes)
        parts.append("")
        parts.extend(self.defines)
        if self.defines:
            parts.append("")
        if self.helpers:
            parts.extend(self.helpers)
            parts.append("")
        parts.append("int main(int argc, char** argv) {")
        parts.append("  int nprocs = -1;")
        parts.append("  int rank = -1;")
        parts.extend(f"  {d}" for d in self.decls)
        parts.append("")
        if self.init:
            parts.append("  MPI_Init(&argc, &argv);")
        parts.append("  MPI_Comm_size(MPI_COMM_WORLD, &nprocs);")
        parts.append("  MPI_Comm_rank(MPI_COMM_WORLD, &rank);")
        if self.min_procs > 1:
            parts.append(f"  if (nprocs < {self.min_procs}) {{")
            parts.append(f'    printf("MBI ERROR: This test needs at least '
                         f'{self.min_procs} processes to produce a bug!\\n");')
            parts.append("  }")
        parts.append("")
        parts.extend(f"  {line}" for line in self.body)
        parts.append("")
        if self.finalize:
            parts.append("  MPI_Finalize();")
        parts.append('  printf("Rank %d finished normally\\n", rank);')
        parts.append("  return 0;")
        parts.append("}")
        return "\n".join(parts) + "\n"


def mbi_header(name: str, label: str, origin: str, features: Sequence[str]) -> str:
    """MBI-style structured comment header describing the test."""
    feature_lines = "\n".join(f"  {f}: Yes" for f in features)
    expect = "OK" if label == "Correct" else "ERROR"
    detail = "" if label == "Correct" else f"\n  | ERROR CATEGORY: {label}"
    return f"""/* ///////////////////////// The MPI Bugs Initiative ////////////////////////
  Origin: {origin}
  Description: {name}
{feature_lines}
  | Test outcome: {expect}{detail}
  | END_MBI_TEST_HEADER */
"""


def filler_compute(rng: random.Random, prog: Prog, tag: str = "f") -> None:
    """Add a benign compute snippet; diversifies IR across samples."""
    choice = rng.randrange(4)
    n = rng.choice([8, 16, 32, 64])
    var = f"{tag}{rng.randrange(1000)}"
    if choice == 0:
        prog.decl(f"double acc_{var} = 0.0;")
        prog.decl(f"int i_{var};")
        prog.stmt(f"for (i_{var} = 0; i_{var} < {n}; i_{var}++) {{")
        prog.stmt(f"  acc_{var} = acc_{var} + i_{var} * {rng.choice(['0.5', '1.5', '2.0', '0.25'])};")
        prog.stmt("}")
    elif choice == 1:
        prog.decl(f"int sum_{var} = 0;")
        prog.decl(f"int i_{var};")
        prog.stmt(f"for (i_{var} = 0; i_{var} < {n}; i_{var}++) {{")
        prog.stmt(f"  sum_{var} = sum_{var} + i_{var} * {rng.randrange(1, 7)};")
        prog.stmt("}")
        prog.stmt(f"if (sum_{var} < 0) {{ printf(\"impossible\\n\"); }}")
    elif choice == 2:
        prog.decl(f"double x_{var} = {rng.randrange(1, 9)}.0;")
        prog.stmt(f"x_{var} = x_{var} * x_{var} + {rng.randrange(1, 5)};")
        prog.stmt(f"if (x_{var} > 1000.0) {{ x_{var} = 0.0; }}")
    else:
        prog.decl(f"int v_{var}[{n}];")
        prog.decl(f"int i_{var};")
        prog.stmt(f"for (i_{var} = 0; i_{var} < {n}; i_{var}++) {{")
        prog.stmt(f"  v_{var}[i_{var}] = i_{var} % {rng.randrange(2, 9)};")
        prog.stmt("}")


def buffer_decl(prog: Prog, ctype: str, name: str, count: int) -> None:
    prog.decl(f"{ctype} {name}[{max(1, count)}];")


def collective_call(prog: Prog, op: str, *, ctype: str = "int",
                    mpitype: str = "MPI_INT", count: int = 4, root: str = "0",
                    red_op: str = "MPI_SUM", comm: str = "MPI_COMM_WORLD",
                    suffix: str = "") -> str:
    """Emit declarations for a correct collective call; returns the call."""
    sb, rb = f"sbuf{suffix}", f"rbuf{suffix}"
    if op == "MPI_Barrier":
        return f"MPI_Barrier({comm});"
    if op == "MPI_Bcast":
        buffer_decl(prog, ctype, sb, count)
        return f"MPI_Bcast({sb}, {count}, {mpitype}, {root}, {comm});"
    if op == "MPI_Reduce":
        buffer_decl(prog, ctype, sb, count)
        buffer_decl(prog, ctype, rb, count)
        return f"MPI_Reduce({sb}, {rb}, {count}, {mpitype}, {red_op}, {root}, {comm});"
    if op == "MPI_Allreduce":
        buffer_decl(prog, ctype, sb, count)
        buffer_decl(prog, ctype, rb, count)
        return f"MPI_Allreduce({sb}, {rb}, {count}, {mpitype}, {red_op}, {comm});"
    if op == "MPI_Gather":
        buffer_decl(prog, ctype, sb, count)
        prog.decl(f"{ctype}* {rb} = ({ctype}*) malloc(nprocs * {count} * sizeof({ctype}));")
        return (f"MPI_Gather({sb}, {count}, {mpitype}, {rb}, {count}, {mpitype}, "
                f"{root}, {comm});")
    if op == "MPI_Allgather":
        buffer_decl(prog, ctype, sb, count)
        prog.decl(f"{ctype}* {rb} = ({ctype}*) malloc(nprocs * {count} * sizeof({ctype}));")
        return (f"MPI_Allgather({sb}, {count}, {mpitype}, {rb}, {count}, {mpitype}, "
                f"{comm});")
    if op == "MPI_Scatter":
        prog.decl(f"{ctype}* {sb} = ({ctype}*) malloc(nprocs * {count} * sizeof({ctype}));")
        buffer_decl(prog, ctype, rb, count)
        return (f"MPI_Scatter({sb}, {count}, {mpitype}, {rb}, {count}, {mpitype}, "
                f"{root}, {comm});")
    if op == "MPI_Alltoall":
        prog.decl(f"{ctype}* {sb} = ({ctype}*) malloc(nprocs * {count} * sizeof({ctype}));")
        prog.decl(f"{ctype}* {rb} = ({ctype}*) malloc(nprocs * {count} * sizeof({ctype}));")
        return (f"MPI_Alltoall({sb}, {count}, {mpitype}, {rb}, {count}, {mpitype}, "
                f"{comm});")
    if op in ("MPI_Scan", "MPI_Exscan"):
        buffer_decl(prog, ctype, sb, count)
        buffer_decl(prog, ctype, rb, count)
        return f"{op}({sb}, {rb}, {count}, {mpitype}, {red_op}, {comm});"
    if op == "MPI_Ibarrier":
        prog.decl(f"MPI_Request req{suffix};")
        prog.decl(f"MPI_Status st{suffix};")
        return (f"MPI_Ibarrier({comm}, &req{suffix}); "
                f"MPI_Wait(&req{suffix}, &st{suffix});")
    if op == "MPI_Ibcast":
        buffer_decl(prog, ctype, sb, count)
        prog.decl(f"MPI_Request req{suffix};")
        prog.decl(f"MPI_Status st{suffix};")
        return (f"MPI_Ibcast({sb}, {count}, {mpitype}, {root}, {comm}, &req{suffix}); "
                f"MPI_Wait(&req{suffix}, &st{suffix});")
    if op == "MPI_Ireduce":
        buffer_decl(prog, ctype, sb, count)
        buffer_decl(prog, ctype, rb, count)
        prog.decl(f"MPI_Request req{suffix};")
        prog.decl(f"MPI_Status st{suffix};")
        return (f"MPI_Ireduce({sb}, {rb}, {count}, {mpitype}, {red_op}, {root}, "
                f"{comm}, &req{suffix}); MPI_Wait(&req{suffix}, &st{suffix});")
    if op == "MPI_Iallreduce":
        buffer_decl(prog, ctype, sb, count)
        buffer_decl(prog, ctype, rb, count)
        prog.decl(f"MPI_Request req{suffix};")
        prog.decl(f"MPI_Status st{suffix};")
        return (f"MPI_Iallreduce({sb}, {rb}, {count}, {mpitype}, {red_op}, {comm}, "
                f"&req{suffix}); MPI_Wait(&req{suffix}, &st{suffix});")
    raise ValueError(f"unknown collective {op}")
