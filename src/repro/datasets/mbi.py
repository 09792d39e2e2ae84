"""MBI-style benchmark generator.

Produces ~1860 deterministic C programs across the 9 MBI error labels plus
correct codes, with the per-label counts of the paper's Fig. 1(b) / Fig. 3
(1116 incorrect + 745 correct; Resource Leak has exactly 14 instances, the
detail Section V-A calls out).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from repro.datasets.labels import CORRECT
from repro.datasets.loader import Sample
from repro.datasets.seeding import stable_seed
from repro.datasets.templates import (
    COLLECTIVES,
    DTYPES,
    NB_COLLECTIVES,
    Prog,
    REDUCE_OPS,
    collective_call,
    filler_compute,
    mbi_header,
)

#: Per-label sample counts (matches Fig. 1(b) / Fig. 3 shapes).
MBI_COUNTS: Dict[str, int] = {
    CORRECT: 745,
    "Call Ordering": 582,
    "Parameter Matching": 160,
    "Invalid Parameter": 100,
    "Message Race": 70,
    "Request Lifecycle": 60,
    "Epoch Lifecycle": 50,
    "Local Concurrency": 40,
    "Global Concurrency": 40,
    "Resource Leak": 14,
}

_P2P_MODES = ("send", "ssend", "isend", "psend")


def _p2p_exchange(prog: Prog, rng: random.Random, *, mode: str = "send",
                  ctype: str = "int", mpitype: str = "MPI_INT", count: int = 4,
                  send_tag: str = "1", recv_tag: str = "1",
                  recv_type: str = "", recv_count: int = 0,
                  recv_source: str = "0", send_dest: str = "1",
                  skip_wait: bool = False, touch_buffer: bool = False) -> None:
    """Rank 0 sends to rank 1; rank 1 receives.  Knobs introduce bugs."""
    recv_type = recv_type or mpitype
    recv_count = recv_count or count
    prog.decl(f"{ctype} buf[{max(1, count, recv_count)}];")
    prog.decl("MPI_Status status;")
    body = prog.stmt
    body("if (rank == 0) {")
    if mode == "send":
        body(f"  MPI_Send(buf, {count}, {mpitype}, {send_dest}, {send_tag}, MPI_COMM_WORLD);")
    elif mode == "ssend":
        body(f"  MPI_Ssend(buf, {count}, {mpitype}, {send_dest}, {send_tag}, MPI_COMM_WORLD);")
    elif mode == "isend":
        prog.decl("MPI_Request req;")
        body(f"  MPI_Isend(buf, {count}, {mpitype}, {send_dest}, {send_tag}, MPI_COMM_WORLD, &req);")
        if touch_buffer:
            body(f"  buf[0] = ({ctype}) rank;")
        if not skip_wait:
            body("  MPI_Wait(&req, &status);")
    elif mode == "psend":
        prog.decl("MPI_Request req;")
        body(f"  MPI_Send_init(buf, {count}, {mpitype}, {send_dest}, {send_tag}, MPI_COMM_WORLD, &req);")
        body("  MPI_Start(&req);")
        if not skip_wait:
            body("  MPI_Wait(&req, &status);")
        body("  MPI_Request_free(&req);")
    body("}")
    body("if (rank == 1) {")
    body(f"  MPI_Recv(buf, {recv_count}, {recv_type}, {recv_source}, {recv_tag}, "
         "MPI_COMM_WORLD, &status);")
    body("}")


def _new_prog(rng: random.Random, min_procs: int = 2) -> Prog:
    prog = Prog(min_procs=min_procs)
    if rng.random() < 0.7:
        filler_compute(rng, prog)
    return prog


class MBIGenerator:
    """Deterministic generator for the MBI-style dataset."""

    def __init__(self, seed: int = 20240304):
        self.seed = seed

    # ------------------------------------------------------------- correct
    def _correct_variants(self) -> List[Callable[[random.Random, int], Tuple[Prog, List[str]]]]:
        def pingpong(rng, i):
            prog = _new_prog(rng)
            mode = _P2P_MODES[i % len(_P2P_MODES)]
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            count = rng.choice([1, 4, 16, 64])
            tag = str(rng.randrange(0, 20))
            _p2p_exchange(prog, rng, mode=mode, ctype=ctype, mpitype=mpitype,
                          count=count, send_tag=tag, recv_tag=tag)
            return prog, ["P2P!basic" if mode in ("send", "ssend") else "P2P!nonblocking"]

        def exchange_both(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            count = rng.choice([1, 4, 8])
            prog.decl(f"{ctype} sb[{count}];")
            prog.decl(f"{ctype} rb[{count}];")
            prog.decl("MPI_Status status;")
            prog.stmt("int peer = (rank == 0) ? 1 : 0;")
            prog.stmt("if (rank < 2) {")
            prog.stmt(f"  MPI_Sendrecv(sb, {count}, {mpitype}, peer, 3, rb, {count}, "
                      f"{mpitype}, peer, 3, MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!basic"]

        def coll(rng, i):
            prog = _new_prog(rng, min_procs=2)
            op = COLLECTIVES[i % len(COLLECTIVES)]
            ctype, mpitype = DTYPES[(i // len(COLLECTIVES)) % len(DTYPES)]
            count = rng.choice([1, 4, 16])
            call = collective_call(prog, op, ctype=ctype, mpitype=mpitype,
                                   count=count, red_op=rng.choice(REDUCE_OPS))
            prog.stmt(call)
            return prog, ["COLL!basic"]

        def coll_chain(rng, i):
            prog = _new_prog(rng)
            k = 2 + (i % 2)
            ops = [COLLECTIVES[(i * 3 + j) % len(COLLECTIVES)] for j in range(k)]
            for j, op in enumerate(ops):
                ctype, mpitype = DTYPES[(i + j) % len(DTYPES)]
                prog.stmt(collective_call(prog, op, ctype=ctype, mpitype=mpitype,
                                          count=rng.choice([1, 4]), suffix=str(j)))
            return prog, ["COLL!basic"]

        def nb_coll(rng, i):
            prog = _new_prog(rng)
            op = NB_COLLECTIVES[i % len(NB_COLLECTIVES)]
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            prog.stmt(collective_call(prog, op, ctype=ctype, mpitype=mpitype,
                                      count=rng.choice([1, 4])))
            return prog, ["COLL!nonblocking"]

        def persistent(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            count = rng.choice([1, 4, 8])
            prog.decl(f"{ctype} buf[{count}];")
            prog.decl("MPI_Request req;")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt(f"  MPI_Send_init(buf, {count}, {mpitype}, 1, 0, MPI_COMM_WORLD, &req);")
            prog.stmt("  MPI_Start(&req);")
            prog.stmt("  MPI_Wait(&req, &status);")
            prog.stmt("  MPI_Request_free(&req);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt(f"  MPI_Recv_init(buf, {count}, {mpitype}, 0, 0, MPI_COMM_WORLD, &req);")
            prog.stmt("  MPI_Start(&req);")
            prog.stmt("  MPI_Wait(&req, &status);")
            prog.stmt("  MPI_Request_free(&req);")
            prog.stmt("}")
            return prog, ["P2P!persistent"]

        def rma_fence(rng, i):
            prog = _new_prog(rng)
            kind = ("MPI_Put", "MPI_Get", "MPI_Accumulate")[i % 3]
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[16];")
            prog.decl("int data = 42;")
            prog.stmt("MPI_Win_create(winbuf, 16, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("MPI_Win_fence(0, win);")
            prog.stmt("if (rank == 0) {")
            if kind == "MPI_Put":
                prog.stmt("  MPI_Put(&data, 1, MPI_INT, 1, 0, 1, MPI_INT, win);")
            elif kind == "MPI_Get":
                prog.stmt("  MPI_Get(&data, 1, MPI_INT, 1, 0, 1, MPI_INT, win);")
            else:
                prog.stmt("  MPI_Accumulate(&data, 1, MPI_INT, 1, 0, 1, MPI_INT, "
                          "MPI_SUM, win);")
            prog.stmt("}")
            prog.stmt("MPI_Win_fence(0, win);")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!fence"]

        def rma_lock(rng, i):
            prog = _new_prog(rng)
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[8];")
            prog.decl("int data = 7;")
            prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 1, 0, win);")
            op = "MPI_Put(&data, 1, MPI_INT, 1, 0, 1, MPI_INT, win);" if i % 2 == 0 \
                else "MPI_Get(&data, 1, MPI_INT, 1, 0, 1, MPI_INT, win);"
            prog.stmt("  " + op)
            prog.stmt("  MPI_Win_unlock(1, win);")
            prog.stmt("}")
            prog.stmt("MPI_Barrier(MPI_COMM_WORLD);")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!lock"]

        def comm_mgmt(rng, i):
            prog = _new_prog(rng)
            prog.decl("MPI_Comm newcomm;")
            if i % 2 == 0:
                prog.stmt("MPI_Comm_split(MPI_COMM_WORLD, rank % 2, rank, &newcomm);")
            else:
                prog.stmt("MPI_Comm_dup(MPI_COMM_WORLD, &newcomm);")
            prog.stmt(collective_call(prog, COLLECTIVES[i % len(COLLECTIVES)],
                                      comm="newcomm"))
            prog.stmt("MPI_Comm_free(&newcomm);")
            return prog, ["COLL!basic"]

        def anysource_single(rng, i):
            # Deterministic wildcard receive: only one possible sender.
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            prog.decl(f"{ctype} buf[4];")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 1) {")
            prog.stmt(f"  MPI_Send(buf, 4, {mpitype}, 0, 9, MPI_COMM_WORLD);")
            prog.stmt("}")
            prog.stmt("if (rank == 0) {")
            prog.stmt(f"  MPI_Recv(buf, 4, {mpitype}, MPI_ANY_SOURCE, 9, "
                      "MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!basic"]

        def compute_only(rng, i):
            prog = _new_prog(rng, min_procs=1)
            for _ in range(1 + i % 3):
                filler_compute(rng, prog)
            prog.stmt("MPI_Barrier(MPI_COMM_WORLD);")
            return prog, ["COLL!basic"]

        def iterative(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            iters = rng.choice([2, 3, 4])
            prog.decl(f"{ctype} buf[4];")
            prog.decl("MPI_Status status;")
            prog.decl("int it;")
            prog.stmt(f"for (it = 0; it < {iters}; it++) {{")
            prog.stmt("  if (rank == 0) {")
            prog.stmt(f"    MPI_Send(buf, 4, {mpitype}, 1, it, MPI_COMM_WORLD);")
            prog.stmt("  }")
            prog.stmt("  if (rank == 1) {")
            prog.stmt(f"    MPI_Recv(buf, 4, {mpitype}, 0, it, MPI_COMM_WORLD, &status);")
            prog.stmt("  }")
            prog.stmt("  MPI_Barrier(MPI_COMM_WORLD);")
            prog.stmt("}")
            return prog, ["P2P!basic", "COLL!basic"]

        def probe_recv(rng, i):
            prog = _new_prog(rng)
            prog.decl("int buf[4];")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Send(buf, 4, MPI_INT, 1, 2, MPI_COMM_WORLD);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt("  MPI_Probe(0, 2, MPI_COMM_WORLD, &status);")
            prog.stmt("  MPI_Recv(buf, 4, MPI_INT, status.MPI_SOURCE, 2, "
                      "MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!probe"]

        # Weights shape the suite like MBI: lots of p2p/collective variants.
        return ([pingpong] * 4 + [coll] * 5 + [coll_chain] * 4 + [exchange_both]
                + [nb_coll] + [persistent] + [rma_fence] + [rma_lock]
                + [comm_mgmt] + [anysource_single] + [compute_only]
                + [iterative] * 2 + [probe_recv])

    # ------------------------------------------------------------- errors
    def _call_ordering_variants(self):
        def recv_recv_deadlock(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            count = rng.choice([1, 4, 16])
            prog.decl(f"{ctype} buf[{count}];")
            prog.decl("MPI_Status status;")
            prog.stmt("int peer = (rank == 0) ? 1 : 0;")
            prog.stmt("if (rank < 2) {")
            prog.stmt(f"  MPI_Recv(buf, {count}, {mpitype}, peer, 0, MPI_COMM_WORLD, &status);")
            prog.stmt(f"  MPI_Send(buf, {count}, {mpitype}, peer, 0, MPI_COMM_WORLD);")
            prog.stmt("}")
            return prog, ["P2P!basic"]

        def ssend_cycle(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            count = rng.choice([1, 4])
            prog.decl(f"{ctype} buf[{count}];")
            prog.decl("MPI_Status status;")
            prog.stmt("int peer = (rank == 0) ? 1 : 0;")
            prog.stmt("if (rank < 2) {")
            prog.stmt(f"  MPI_Ssend(buf, {count}, {mpitype}, peer, 0, MPI_COMM_WORLD);")
            prog.stmt(f"  MPI_Recv(buf, {count}, {mpitype}, peer, 0, MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!basic"]

        def big_send_cycle(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            count = rng.choice([128, 256, 512])  # beyond the eager threshold
            prog.decl(f"{ctype} buf[{count}];")
            prog.decl("MPI_Status status;")
            prog.stmt("int peer = (rank == 0) ? 1 : 0;")
            prog.stmt("if (rank < 2) {")
            prog.stmt(f"  MPI_Send(buf, {count}, {mpitype}, peer, 0, MPI_COMM_WORLD);")
            prog.stmt(f"  MPI_Recv(buf, {count}, {mpitype}, peer, 0, MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!basic"]

        def tag_mismatch(rng, i):
            prog = _new_prog(rng)
            t1 = rng.randrange(0, 8)
            t2 = t1 + 1 + rng.randrange(4)
            _p2p_exchange(prog, rng, mode=_P2P_MODES[i % 2],
                          ctype=DTYPES[i % len(DTYPES)][0],
                          mpitype=DTYPES[i % len(DTYPES)][1],
                          send_tag=str(t1), recv_tag=str(t2))
            return prog, ["P2P!basic"]

        def source_mismatch(rng, i):
            prog = _new_prog(rng)
            # Receiver waits on the wrong peer.
            _p2p_exchange(prog, rng, recv_source="1" if i % 2 else "2",
                          send_dest="1")
            return prog, ["P2P!basic"]

        def collective_mismatch(rng, i):
            prog = _new_prog(rng)
            ops = COLLECTIVES
            a = ops[i % len(ops)]
            b = ops[(i // len(ops) + 1 + i) % len(ops)]
            if a == b:
                b = ops[(ops.index(b) + 1) % len(ops)]
            prog.stmt("if (rank == 0) {")
            prog.stmt("  " + collective_call(prog, a, suffix="A"))
            prog.stmt("} else {")
            prog.stmt("  " + collective_call(prog, b, suffix="B"))
            prog.stmt("}")
            return prog, ["COLL!basic"]

        def collective_missing(rng, i):
            prog = _new_prog(rng)
            op = COLLECTIVES[i % len(COLLECTIVES)]
            prog.stmt("if (rank != 0) {")
            prog.stmt("  " + collective_call(prog, op))
            prog.stmt("}")
            return prog, ["COLL!basic"]

        def collective_order_swap(rng, i):
            prog = _new_prog(rng)
            a = COLLECTIVES[i % len(COLLECTIVES)]
            b = COLLECTIVES[(i + 3) % len(COLLECTIVES)]
            if a == b:
                b = COLLECTIVES[(i + 4) % len(COLLECTIVES)]
            prog.stmt("if (rank == 0) {")
            prog.stmt("  " + collective_call(prog, a, suffix="A"))
            prog.stmt("  " + collective_call(prog, b, suffix="B"))
            prog.stmt("} else {")
            prog.stmt("  " + collective_call(prog, b, suffix="C"))
            prog.stmt("  " + collective_call(prog, a, suffix="D"))
            prog.stmt("}")
            return prog, ["COLL!basic"]

        def coll_vs_p2p(rng, i):
            prog = _new_prog(rng)
            op = COLLECTIVES[i % len(COLLECTIVES)]
            prog.decl("int pbuf[4];")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Recv(pbuf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD, &status);")
            prog.stmt("  " + collective_call(prog, op))
            prog.stmt("} else if (rank == 1) {")
            prog.stmt("  " + collective_call(prog, op, suffix="B"))
            prog.stmt("  MPI_Send(pbuf, 4, MPI_INT, 0, 0, MPI_COMM_WORLD);")
            prog.stmt("}")
            return prog, ["COLL!basic", "P2P!basic"]

        def env_misuse(rng, i):
            prog = _new_prog(rng, min_procs=1)
            kind = i % 3
            if kind == 0:       # missing finalize
                prog.finalize = False
                prog.stmt("MPI_Barrier(MPI_COMM_WORLD);")
            elif kind == 1:     # double init
                prog.stmt("MPI_Init(&argc, &argv);")
            else:               # use after finalize
                prog.stmt("MPI_Finalize();")
                prog.stmt("MPI_Barrier(MPI_COMM_WORLD);")
                prog.finalize = False
            return prog, ["ENV!misuse"]

        def wait_deadlock(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            prog.decl(f"{ctype} buf[4];")
            prog.decl("MPI_Request req;")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt(f"  MPI_Irecv(buf, 4, {mpitype}, 1, 7, MPI_COMM_WORLD, &req);")
            prog.stmt("  MPI_Wait(&req, &status);")   # never matched
            prog.stmt("}")
            return prog, ["P2P!nonblocking"]

        return ([recv_recv_deadlock] * 3 + [ssend_cycle] * 2 + [big_send_cycle] * 2
                + [tag_mismatch] * 3 + [source_mismatch] * 2
                + [collective_mismatch] * 4 + [collective_missing] * 2
                + [collective_order_swap] * 3 + [coll_vs_p2p] * 2
                + [env_misuse] + [wait_deadlock])

    def _parameter_matching_variants(self):
        def p2p_type_mismatch(rng, i):
            prog = _new_prog(rng)
            send = DTYPES[i % len(DTYPES)]
            recv = DTYPES[(i + 1 + i // len(DTYPES)) % len(DTYPES)]
            if recv[1] == send[1]:
                recv = DTYPES[(i + 2) % len(DTYPES)]
            _p2p_exchange(prog, rng, ctype=send[0], mpitype=send[1],
                          recv_type=recv[1], count=rng.choice([1, 4, 8]))
            return prog, ["P2P!basic"]

        def p2p_count_mismatch(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            count = rng.choice([4, 8, 16])
            _p2p_exchange(prog, rng, ctype=ctype, mpitype=mpitype, count=count,
                          recv_count=max(1, count // 2))
            return prog, ["P2P!basic"]

        def root_mismatch(rng, i):
            prog = _new_prog(rng)
            rooted = ("MPI_Bcast", "MPI_Reduce", "MPI_Gather", "MPI_Scatter")
            op = rooted[i % len(rooted)]
            prog.stmt(collective_call(prog, op, root="rank"))
            return prog, ["COLL!basic"]

        def coll_type_mismatch(rng, i):
            prog = _new_prog(rng)
            typed = ("MPI_Bcast", "MPI_Reduce", "MPI_Allreduce", "MPI_Gather",
                     "MPI_Scatter", "MPI_Scan")
            op = typed[i % len(typed)]
            a = DTYPES[i % len(DTYPES)][1]
            b = DTYPES[(i + 2) % len(DTYPES)][1]
            ctype = DTYPES[i % len(DTYPES)][0]
            prog.stmt("if (rank == 0) {")
            prog.stmt("  " + collective_call(prog, op, ctype=ctype, mpitype=a, suffix="A"))
            prog.stmt("} else {")
            prog.stmt("  " + collective_call(prog, op, ctype=ctype, mpitype=b, suffix="B"))
            prog.stmt("}")
            return prog, ["COLL!basic"]

        def op_mismatch(rng, i):
            prog = _new_prog(rng)
            reduce_like = ("MPI_Reduce", "MPI_Allreduce", "MPI_Scan", "MPI_Exscan")
            op = reduce_like[i % len(reduce_like)]
            a = REDUCE_OPS[i % len(REDUCE_OPS)]
            b = REDUCE_OPS[(i + 1) % len(REDUCE_OPS)]
            prog.stmt("if (rank == 0) {")
            prog.stmt("  " + collective_call(prog, op, red_op=a, suffix="A"))
            prog.stmt("} else {")
            prog.stmt("  " + collective_call(prog, op, red_op=b, suffix="B"))
            prog.stmt("}")
            return prog, ["COLL!basic"]

        def coll_count_mismatch(rng, i):
            prog = _new_prog(rng)
            typed = ("MPI_Bcast", "MPI_Reduce", "MPI_Allreduce")
            op = typed[i % len(typed)]
            prog.stmt("if (rank == 0) {")
            prog.stmt("  " + collective_call(prog, op, count=4, suffix="A"))
            prog.stmt("} else {")
            prog.stmt("  " + collective_call(prog, op, count=8, suffix="B"))
            prog.stmt("}")
            return prog, ["COLL!basic"]

        return ([p2p_type_mismatch] * 3 + [p2p_count_mismatch]
                + [root_mismatch] * 2 + [coll_type_mismatch] * 2
                + [op_mismatch] + [coll_count_mismatch])

    def _invalid_parameter_variants(self):
        def negative_count(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            _p2p_exchange(prog, rng, ctype=ctype, mpitype=mpitype,
                          count=4, recv_count=4)
            # Corrupt the sender count afterwards via direct emission.
            prog.body = [line.replace(f"MPI_Send(buf, 4", "MPI_Send(buf, -1")
                         .replace(f"MPI_Ssend(buf, 4", "MPI_Ssend(buf, -1")
                         for line in prog.body]
            return prog, ["P2P!basic"]

        def invalid_tag(rng, i):
            prog = _new_prog(rng)
            bad = "-2" if i % 2 == 0 else "1000000"
            _p2p_exchange(prog, rng, send_tag=bad, recv_tag=bad)
            return prog, ["P2P!basic"]

        def invalid_rank(rng, i):
            prog = _new_prog(rng)
            bad = "nprocs" if i % 2 == 0 else "-3"
            _p2p_exchange(prog, rng, send_dest=bad)
            return prog, ["P2P!basic"]

        def null_buffer(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            prog.decl("MPI_Status status;")
            prog.decl(f"{ctype} buf[4];")
            prog.stmt("if (rank == 0) {")
            prog.stmt(f"  MPI_Send(NULL, 4, {mpitype}, 1, 0, MPI_COMM_WORLD);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt(f"  MPI_Recv(buf, 4, {mpitype}, 0, 0, MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!basic"]

        def invalid_dtype(rng, i):
            prog = _new_prog(rng)
            op = ("MPI_Bcast", "MPI_Reduce", "MPI_Allreduce")[i % 3]
            prog.stmt(collective_call(prog, op, mpitype="MPI_DATATYPE_NULL"))
            return prog, ["COLL!basic"]

        def invalid_op(rng, i):
            prog = _new_prog(rng)
            op = ("MPI_Reduce", "MPI_Allreduce", "MPI_Scan")[i % 3]
            prog.stmt(collective_call(prog, op, red_op="MPI_OP_NULL"))
            return prog, ["COLL!basic"]

        def invalid_comm(rng, i):
            prog = _new_prog(rng)
            op = ("MPI_Barrier", "MPI_Bcast", "MPI_Allreduce")[i % 3]
            prog.stmt(collective_call(prog, op, comm="MPI_COMM_NULL"))
            return prog, ["COLL!basic"]

        def invalid_root(rng, i):
            prog = _new_prog(rng)
            op = ("MPI_Bcast", "MPI_Reduce", "MPI_Gather", "MPI_Scatter")[i % 4]
            prog.stmt(collective_call(prog, op, root="-1" if i % 2 else "nprocs"))
            return prog, ["COLL!basic"]

        return ([negative_count] * 2 + [invalid_tag] * 2 + [invalid_rank] * 2
                + [null_buffer] + [invalid_dtype] + [invalid_op]
                + [invalid_comm] + [invalid_root] * 2)

    def _message_race_variants(self):
        def two_senders(rng, i):
            prog = _new_prog(rng, min_procs=3)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            prog.decl(f"{ctype} buf[2];")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt(f"  MPI_Recv(buf, 1, {mpitype}, MPI_ANY_SOURCE, 0, "
                      "MPI_COMM_WORLD, &status);")
            prog.stmt(f"  MPI_Recv(buf, 1, {mpitype}, MPI_ANY_SOURCE, 0, "
                      "MPI_COMM_WORLD, &status);")
            prog.stmt("} else if (rank <= 2) {")
            prog.stmt(f"  MPI_Send(buf, 1, {mpitype}, 0, 0, MPI_COMM_WORLD);")
            prog.stmt("}")
            return prog, ["P2P!basic"]

        def race_loop(rng, i):
            prog = _new_prog(rng, min_procs=3)
            prog.decl("int buf[2];")
            prog.decl("MPI_Status status;")
            prog.decl("int it;")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  for (it = 0; it < nprocs - 1; it++) {")
            prog.stmt("    MPI_Recv(buf, 1, MPI_INT, MPI_ANY_SOURCE, 4, "
                      "MPI_COMM_WORLD, &status);")
            prog.stmt("  }")
            prog.stmt("} else {")
            prog.stmt("  MPI_Send(buf, 1, MPI_INT, 0, 4, MPI_COMM_WORLD);")
            prog.stmt("}")
            return prog, ["P2P!basic"]

        def anytag_race(rng, i):
            prog = _new_prog(rng, min_procs=3)
            prog.decl("int buf[2];")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Recv(buf, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG, "
                      "MPI_COMM_WORLD, &status);")
            prog.stmt("  MPI_Recv(buf, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG, "
                      "MPI_COMM_WORLD, &status);")
            prog.stmt("} else if (rank <= 2) {")
            prog.stmt(f"  MPI_Send(buf, 1, MPI_INT, 0, rank, MPI_COMM_WORLD);")
            prog.stmt("}")
            return prog, ["P2P!basic"]

        def irecv_race(rng, i):
            prog = _new_prog(rng, min_procs=3)
            prog.decl("int buf[2];")
            prog.decl("MPI_Request req;")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Irecv(buf, 1, MPI_INT, MPI_ANY_SOURCE, 0, "
                      "MPI_COMM_WORLD, &req);")
            prog.stmt("  MPI_Wait(&req, &status);")
            prog.stmt("  MPI_Recv(buf, 1, MPI_INT, MPI_ANY_SOURCE, 0, "
                      "MPI_COMM_WORLD, &status);")
            prog.stmt("} else if (rank <= 2) {")
            prog.stmt("  MPI_Send(buf, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);")
            prog.stmt("}")
            return prog, ["P2P!nonblocking"]

        return [two_senders] * 2 + [race_loop] + [anytag_race] + [irecv_race]

    def _request_lifecycle_variants(self):
        def missing_wait(rng, i):
            prog = _new_prog(rng)
            mode = ("isend", "psend")[i % 2]
            _p2p_exchange(prog, rng, mode=mode, count=rng.choice([4, 128]),
                          skip_wait=True)
            return prog, ["P2P!nonblocking"]

        def wait_on_null(rng, i):
            prog = _new_prog(rng, min_procs=1)
            prog.decl("MPI_Request req = MPI_REQUEST_NULL;")
            prog.decl("MPI_Status status;")
            prog.stmt("MPI_Wait(&req, &status);")
            return prog, ["P2P!nonblocking"]

        def double_start(rng, i):
            prog = _new_prog(rng)
            prog.decl("int buf[200];")
            prog.decl("MPI_Request req;")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Send_init(buf, 200, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);")
            prog.stmt("  MPI_Start(&req);")
            prog.stmt("  MPI_Start(&req);")
            prog.stmt("  MPI_Wait(&req, &status);")
            prog.stmt("  MPI_Request_free(&req);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt("  MPI_Recv(buf, 200, MPI_INT, 0, 0, MPI_COMM_WORLD, &status);")
            prog.stmt("  MPI_Recv(buf, 200, MPI_INT, 0, 0, MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!persistent"]

        def free_active(rng, i):
            prog = _new_prog(rng)
            prog.decl("int buf[128];")
            prog.decl("MPI_Request req;")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Isend(buf, 128, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);")
            prog.stmt("  MPI_Request_free(&req);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt("  MPI_Recv(buf, 128, MPI_INT, 0, 0, MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!nonblocking"]

        def missing_start(rng, i):
            prog = _new_prog(rng)
            prog.decl("int buf[4];")
            prog.decl("MPI_Request req;")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Send_init(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);")
            prog.stmt("  MPI_Wait(&req, &status);")
            prog.stmt("  MPI_Request_free(&req);")
            prog.stmt("  MPI_Send(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt("  MPI_Recv(buf, 4, MPI_INT, 0, 0, MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!persistent"]

        return ([missing_wait] * 2 + [wait_on_null] + [double_start]
                + [free_active] + [missing_start])

    def _epoch_lifecycle_variants(self):
        def rma_no_epoch(rng, i):
            prog = _new_prog(rng)
            kind = ("MPI_Put", "MPI_Get", "MPI_Accumulate")[i % 3]
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[8];")
            prog.decl("int data = 1;")
            prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("if (rank == 0) {")
            if kind == "MPI_Accumulate":
                prog.stmt("  MPI_Accumulate(&data, 1, MPI_INT, 1, 0, 1, MPI_INT, "
                          "MPI_SUM, win);")
            else:
                prog.stmt(f"  {kind}(&data, 1, MPI_INT, 1, 0, 1, MPI_INT, win);")
            prog.stmt("}")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!fence"]

        def unlock_no_lock(rng, i):
            prog = _new_prog(rng)
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[8];")
            prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Win_unlock(1, win);")
            prog.stmt("}")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!lock"]

        def missing_unlock(rng, i):
            prog = _new_prog(rng)
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[8];")
            prog.decl("int data = 2;")
            prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Win_lock(MPI_LOCK_SHARED, 1, 0, win);")
            prog.stmt("  MPI_Put(&data, 1, MPI_INT, 1, 0, 1, MPI_INT, win);")
            prog.stmt("}")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!lock"]

        def double_lock(rng, i):
            prog = _new_prog(rng)
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[8];")
            prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Win_lock(MPI_LOCK_SHARED, 1, 0, win);")
            prog.stmt("  MPI_Win_lock(MPI_LOCK_SHARED, 1, 0, win);")
            prog.stmt("  MPI_Win_unlock(1, win);")
            prog.stmt("}")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!lock"]

        def complete_no_start(rng, i):
            prog = _new_prog(rng)
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[8];")
            prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Win_complete(win);")
            prog.stmt("}")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!pscw"]

        return ([rma_no_epoch] * 3 + [unlock_no_lock] + [missing_unlock]
                + [double_lock] + [complete_no_start])

    def _local_concurrency_variants(self):
        def write_irecv_buffer(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            prog.decl(f"{ctype} buf[4];")
            prog.decl("MPI_Request req;")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt(f"  MPI_Irecv(buf, 4, {mpitype}, 1, 0, MPI_COMM_WORLD, &req);")
            prog.stmt(f"  buf[0] = ({ctype}) 3;")
            prog.stmt("  MPI_Wait(&req, &status);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt(f"  MPI_Send(buf, 4, {mpitype}, 0, 0, MPI_COMM_WORLD);")
            prog.stmt("}")
            return prog, ["P2P!nonblocking"]

        def write_isend_buffer(rng, i):
            prog = _new_prog(rng)
            ctype, mpitype = DTYPES[i % len(DTYPES)]
            count = 128
            prog.decl(f"{ctype} buf[{count}];")
            prog.decl("MPI_Request req;")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt(f"  MPI_Isend(buf, {count}, {mpitype}, 1, 0, MPI_COMM_WORLD, &req);")
            prog.stmt(f"  buf[1] = ({ctype}) 8;")
            prog.stmt("  MPI_Wait(&req, &status);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt(f"  MPI_Recv(buf, {count}, {mpitype}, 0, 0, MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!nonblocking"]

        def read_irecv_buffer(rng, i):
            prog = _new_prog(rng)
            prog.decl("int buf[4];")
            prog.decl("int snoop;")
            prog.decl("MPI_Request req;")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Irecv(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);")
            prog.stmt("  snoop = buf[0];")
            prog.stmt("  MPI_Wait(&req, &status);")
            prog.stmt("  if (snoop > 100) { printf(\"large\\n\"); }")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt("  MPI_Send(buf, 4, MPI_INT, 0, 0, MPI_COMM_WORLD);")
            prog.stmt("}")
            return prog, ["P2P!nonblocking"]

        def persistent_touch(rng, i):
            prog = _new_prog(rng)
            prog.decl("int buf[128];")
            prog.decl("MPI_Request req;")
            prog.decl("MPI_Status status;")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Send_init(buf, 128, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);")
            prog.stmt("  MPI_Start(&req);")
            prog.stmt("  buf[0] = 5;")
            prog.stmt("  MPI_Wait(&req, &status);")
            prog.stmt("  MPI_Request_free(&req);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt("  MPI_Recv(buf, 128, MPI_INT, 0, 0, MPI_COMM_WORLD, &status);")
            prog.stmt("}")
            return prog, ["P2P!persistent"]

        return ([write_irecv_buffer] * 2 + [write_isend_buffer]
                + [read_irecv_buffer] + [persistent_touch])

    def _global_concurrency_variants(self):
        def put_put_race(rng, i):
            prog = _new_prog(rng, min_procs=3)
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[8];")
            prog.decl("int data;")
            prog.stmt("data = rank * 10;")
            prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("MPI_Win_fence(0, win);")
            prog.stmt("if (rank == 0 || rank == 1) {")
            prog.stmt("  MPI_Put(&data, 1, MPI_INT, 2, 0, 1, MPI_INT, win);")
            prog.stmt("}")
            prog.stmt("MPI_Win_fence(0, win);")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!fence"]

        def put_get_race(rng, i):
            prog = _new_prog(rng, min_procs=3)
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[8];")
            prog.decl("int data;")
            prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("MPI_Win_fence(0, win);")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Put(&data, 1, MPI_INT, 2, 0, 1, MPI_INT, win);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt("  MPI_Get(&data, 1, MPI_INT, 2, 0, 1, MPI_INT, win);")
            prog.stmt("}")
            prog.stmt("MPI_Win_fence(0, win);")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!fence"]

        def local_write_race(rng, i):
            prog = _new_prog(rng)
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[8];")
            prog.decl("int data = 3;")
            prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("MPI_Win_fence(0, win);")
            prog.stmt("if (rank == 0) {")
            prog.stmt("  MPI_Put(&data, 1, MPI_INT, 1, 0, 1, MPI_INT, win);")
            prog.stmt("}")
            prog.stmt("if (rank == 1) {")
            prog.stmt("  winbuf[0] = 99;")
            prog.stmt("}")
            prog.stmt("MPI_Win_fence(0, win);")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!fence"]

        def lockall_race(rng, i):
            prog = _new_prog(rng, min_procs=3)
            prog.decl("MPI_Win win;")
            prog.decl("int winbuf[8];")
            prog.decl("int data;")
            prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                      "MPI_COMM_WORLD, &win);")
            prog.stmt("if (rank == 0 || rank == 1) {")
            prog.stmt("  MPI_Win_lock_all(0, win);")
            prog.stmt("  MPI_Put(&data, 1, MPI_INT, 2, 0, 1, MPI_INT, win);")
            prog.stmt("  MPI_Win_unlock_all(win);")
            prog.stmt("}")
            prog.stmt("MPI_Barrier(MPI_COMM_WORLD);")
            prog.stmt("MPI_Win_free(&win);")
            return prog, ["RMA!lockall"]

        return [put_put_race] * 2 + [put_get_race] + [local_write_race] + [lockall_race]

    def _resource_leak_variants(self):
        def leak(kind):
            def make(rng, i):
                prog = _new_prog(rng, min_procs=1)
                if kind == "comm_dup":
                    prog.decl("MPI_Comm newcomm;")
                    prog.stmt("MPI_Comm_dup(MPI_COMM_WORLD, &newcomm);")
                    prog.stmt("MPI_Barrier(newcomm);")
                elif kind == "comm_split":
                    prog.decl("MPI_Comm newcomm;")
                    prog.stmt("MPI_Comm_split(MPI_COMM_WORLD, rank % 2, rank, &newcomm);")
                    prog.stmt("MPI_Barrier(newcomm);")
                elif kind == "type":
                    prog.decl("MPI_Datatype newtype;")
                    prog.decl("int buf[8];")
                    prog.stmt("MPI_Type_contiguous(4, MPI_INT, &newtype);")
                    prog.stmt("MPI_Type_commit(&newtype);")
                    prog.stmt("if (rank == 0) { MPI_Send(buf, 2, newtype, 1, 0, MPI_COMM_WORLD); }")
                    prog.stmt("if (rank == 1) { MPI_Status status; MPI_Recv(buf, 2, newtype, 0, 0, MPI_COMM_WORLD, &status); }")
                elif kind == "type_vector":
                    prog.decl("MPI_Datatype newtype;")
                    prog.stmt("MPI_Type_vector(2, 2, 4, MPI_INT, &newtype);")
                    prog.stmt("MPI_Type_commit(&newtype);")
                elif kind == "group":
                    prog.decl("MPI_Group group;")
                    prog.stmt("MPI_Comm_group(MPI_COMM_WORLD, &group);")
                elif kind == "win":
                    prog.decl("MPI_Win win;")
                    prog.decl("int winbuf[8];")
                    prog.stmt("MPI_Win_create(winbuf, 8, sizeof(int), MPI_INFO_NULL, "
                              "MPI_COMM_WORLD, &win);")
                    prog.stmt("MPI_Win_fence(0, win);")
                    prog.stmt("MPI_Win_fence(0, win);")
                elif kind == "op":
                    prog.decl("MPI_Op myop;")
                    prog.stmt("MPI_Op_create(NULL, 1, &myop);")
                return prog, ["RES!leak"]
            return make

        kinds = ["comm_dup", "comm_split", "type", "type_vector", "group", "win", "op"]
        return [leak(k) for k in kinds]

    # ------------------------------------------------------------- driver
    def generate(self) -> List[Sample]:
        variant_table = {
            CORRECT: self._correct_variants(),
            "Call Ordering": self._call_ordering_variants(),
            "Parameter Matching": self._parameter_matching_variants(),
            "Invalid Parameter": self._invalid_parameter_variants(),
            "Message Race": self._message_race_variants(),
            "Request Lifecycle": self._request_lifecycle_variants(),
            "Epoch Lifecycle": self._epoch_lifecycle_variants(),
            "Local Concurrency": self._local_concurrency_variants(),
            "Global Concurrency": self._global_concurrency_variants(),
            "Resource Leak": self._resource_leak_variants(),
        }
        samples: List[Sample] = []
        for label, count in MBI_COUNTS.items():
            variants = variant_table[label]
            rng = random.Random(stable_seed(self.seed, label))
            for i in range(count):
                maker = variants[i % len(variants)]
                prog, features = maker(rng, i // len(variants) * 7 + i)
                slug = label.replace(" ", "")
                name = f"{slug}-{maker.__name__}-{i + 1:03d}.c"
                prog.header_comment = mbi_header(name, label, "MBI", features)
                samples.append(Sample(
                    name=name, source=prog.render(), label=label, suite="MBI",
                    features=tuple(features),
                ))
        return samples


def generate_mbi(seed: int = 20240304) -> List[Sample]:
    return MBIGenerator(seed).generate()
