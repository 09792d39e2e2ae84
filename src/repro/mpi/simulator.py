"""Rank-interleaving MPI runtime simulator.

Executes a compiled module on N virtual ranks (each a :class:`RankVM`
with private memory), intercepting every MPI call and applying message
matching, collective synchronization, request/epoch lifecycles, and a
battery of runtime correctness checks.  The dynamic-tool baselines
(ITAC / MUST analogues in :mod:`repro.verify`) are thin verdict layers
over the :class:`SimReport` this produces.

Semantics highlights:

* ``MPI_Send`` is *eager* up to ``eager_limit`` elements and rendezvous
  beyond (so buffering-dependent deadlocks manifest); ``MPI_Ssend`` always
  rendezvous.
* Collectives complete only when every rank of the communicator has
  entered a collective; mismatched operation names deadlock (call
  ordering), mismatched root/op/datatype raise parameter-matching events.
* Deadlock = global quiescence with blocked ranks; timeout = step budget
  exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.module import Module
from repro.mpi.api import (
    CallClass,
    DATATYPE_INFO,
    MPI_CONSTANTS,
    MPI_FUNCTIONS,
)
from repro.mpi.interp import DONE, STEP, ExternCall, InterpError, RankVM
from repro.obs.trace import TRACER

ANY_SOURCE = MPI_CONSTANTS["MPI_ANY_SOURCE"]
ANY_TAG = MPI_CONSTANTS["MPI_ANY_TAG"]
PROC_NULL = MPI_CONSTANTS["MPI_PROC_NULL"]
COMM_WORLD = MPI_CONSTANTS["MPI_COMM_WORLD"]
COMM_SELF = MPI_CONSTANTS["MPI_COMM_SELF"]
COMM_NULL = MPI_CONSTANTS["MPI_COMM_NULL"]
REQUEST_NULL = MPI_CONSTANTS["MPI_REQUEST_NULL"]
TAG_UB = MPI_CONSTANTS["MPI_TAG_UB"]
SUCCESS = MPI_CONSTANTS["MPI_SUCCESS"]

_VALID_OPS = {MPI_CONSTANTS[n] for n in (
    "MPI_MAX", "MPI_MIN", "MPI_SUM", "MPI_PROD", "MPI_LAND", "MPI_BAND",
    "MPI_LOR", "MPI_BOR", "MPI_LXOR", "MPI_BXOR", "MPI_MAXLOC", "MPI_MINLOC",
)}


class RunOutcome(Enum):
    OK = "ok"
    DEADLOCK = "deadlock"
    TIMEOUT = "timeout"
    FAULT = "fault"          # interpreter-level crash (null deref, ...)
    ABORT = "abort"          # MPI_Abort


@dataclass
class CheckEvent:
    kind: str
    rank: int
    call: str
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.kind}] rank {self.rank} in {self.call}: {self.detail}"


@dataclass
class SimReport:
    outcome: RunOutcome
    events: List[CheckEvent] = field(default_factory=list)
    steps: int = 0

    def has(self, kind: str) -> bool:
        return any(e.kind == kind for e in self.events)

    @property
    def kinds(self) -> Set[str]:
        return {e.kind for e in self.events}

    @property
    def clean(self) -> bool:
        return self.outcome is RunOutcome.OK and not self.events


# ---------------------------------------------------------------------------
# Runtime objects
# ---------------------------------------------------------------------------

@dataclass
class SendEntry:
    seq: int
    source: int                 # world rank
    dest: int                   # world rank
    tag: int
    comm: int
    dtype: int
    count: int
    payload: List[object]
    mode: str                   # 'eager' | 'rendezvous' | 'request'
    owner_rank: int = -1
    request: Optional["Request"] = None
    matched: bool = False


@dataclass
class Request:
    handle: int
    rank: int
    kind: str                   # 'send' | 'recv' | 'coll'
    persistent: bool = False
    active: bool = False
    complete: bool = False
    freed: bool = False
    buf: int = 0
    count: int = 0
    dtype: int = 0
    peer: int = 0
    tag: int = 0
    comm: int = COMM_WORLD
    entry: Optional[SendEntry] = None
    source_seen: int = ANY_SOURCE
    tag_seen: int = ANY_TAG


@dataclass
class Window:
    handle: int
    comm: int
    bases: Dict[int, int] = field(default_factory=dict)     # rank -> base addr
    sizes: Dict[int, int] = field(default_factory=dict)
    epoch: Dict[int, str] = field(default_factory=dict)     # rank -> mode
    fence_round: int = 0
    accesses: List[Tuple[int, int, int, int, str, int]] = field(default_factory=list)
    # (origin, target, lo, hi, kind, round)
    local_writes: List[Tuple[int, int, int]] = field(default_factory=list)
    # (rank, addr, round)
    freed: bool = False


@dataclass
class Collective:
    op: str
    comm: int
    root: int
    dtype: int
    count: int
    args: List[object]
    call_inst: object
    opname_args: Tuple


class _RankStatus(Enum):
    RUNNABLE = 0
    BLOCKED = 1
    DONE = 2
    FAULT = 3


@dataclass
class _Pending:
    kind: str                   # 'recv' | 'send' | 'wait' | 'coll' | 'probe'
    data: dict


class _Rank:
    def __init__(self, vm: RankVM, rank: int):
        self.vm = vm
        self.rank = rank
        self.status = _RankStatus.RUNNABLE
        self.pending: Optional[_Pending] = None
        self.pending_inst = None
        self.initialized = False
        self.finalized = False
        self.requests: Dict[int, Request] = {}
        self.leak_handles: Dict[str, int] = {"comm": 0, "type": 0, "group": 0,
                                             "win": 0, "buffer": 0, "op": 0}
        self.committed_types: Set[int] = set()


class MPISimulator:
    """Run a module under N virtual MPI processes."""

    def __init__(self, module: Module, nprocs: int = 2, *, seed: int = 0,
                 max_steps: int = 400_000, eager_limit: int = 64,
                 slice_length: int = 64):
        self.module = module
        self.nprocs = nprocs
        self.seed = seed
        self.max_steps = max_steps
        self.eager_limit = eager_limit
        self.slice_length = slice_length

        self.events: List[CheckEvent] = []
        self._event_keys: Set[Tuple] = set()
        self.mailbox: List[SendEntry] = []
        self.collectives: Dict[int, List[Optional[Collective]]] = {}
        self.windows: Dict[int, Window] = {}
        self.comms: Dict[int, List[int]] = {COMM_WORLD: list(range(nprocs))}
        self._next_handle = 2000
        self._seq = 0
        self._total_steps = 0
        self._aborted = False

        self.ranks: List[_Rank] = []
        for r in range(nprocs):
            ctx_holder: List[_Rank] = []

            def make_hooks(holder):
                def on_load(addr: int) -> None:
                    if holder:
                        self._check_buffer_access(holder[0], addr, write=False)

                def on_store(addr: int) -> None:
                    if holder:
                        self._check_buffer_access(holder[0], addr, write=True)
                return on_load, on_store

            on_load, on_store = make_hooks(ctx_holder)
            vm = RankVM(module, r, on_load=on_load, on_store=on_store,
                        libc_rand_seed=seed * 1299709 + 12345)
            ctx = _Rank(vm, r)
            ctx_holder.append(ctx)
            self.ranks.append(ctx)

    # ------------------------------------------------------------------ events
    def _event(self, kind: str, rank: int, call: str, detail: str = "") -> None:
        key = (kind, rank, call, detail)
        if key in self._event_keys:
            return
        self._event_keys.add(key)
        self.events.append(CheckEvent(kind, rank, call, detail))

    # ------------------------------------------------------------------ driver
    def run(self) -> SimReport:
        with TRACER.stage("simulate"):
            order = list(range(self.nprocs))
            rotate = self.seed % max(1, self.nprocs)
            order = order[rotate:] + order[:rotate]

            while True:
                progress = False
                for r in order:
                    ctx = self.ranks[r]
                    if ctx.status is not _RankStatus.RUNNABLE:
                        continue
                    progress |= self._run_slice(ctx)
                    if self._aborted:
                        return self._finish(RunOutcome.ABORT)
                if self._match_all():
                    progress = True
                statuses = [c.status for c in self.ranks]
                if all(s in (_RankStatus.DONE, _RankStatus.FAULT) for s in statuses):
                    outcome = (RunOutcome.FAULT
                               if any(s is _RankStatus.FAULT for s in statuses)
                               else RunOutcome.OK)
                    return self._finish(outcome)
                if self._total_steps > self.max_steps:
                    return self._finish(RunOutcome.TIMEOUT)
                if not progress:
                    blocked = [c for c in self.ranks if c.status is _RankStatus.BLOCKED]
                    for ctx in blocked:
                        call = ctx.pending.data.get("call", "?") if ctx.pending else "?"
                        self._event("deadlock", ctx.rank, call, "no global progress")
                    return self._finish(RunOutcome.DEADLOCK)

    def _finish(self, outcome: RunOutcome) -> SimReport:
        for ctx in self.ranks:
            if ctx.status is _RankStatus.DONE and ctx.initialized and not ctx.finalized:
                self._event("call_ordering", ctx.rank, "main", "missing MPI_Finalize")
                self._leak_scan(ctx, at_finalize=False)
        if outcome is RunOutcome.OK:
            # A message still in flight after every rank completed was sent
            # but never received — the "lost message" diagnostic dynamic
            # tools raise at MPI_Finalize (an eager send completes locally,
            # so only this end-of-run scan can see the mismatch).
            for entry in self.mailbox:
                if not entry.matched:
                    self._event("call_ordering", entry.source, "MPI_Send",
                                f"message to rank {entry.dest} (tag {entry.tag})"
                                " never received")
        return SimReport(outcome, list(self.events), self._total_steps)

    def _run_slice(self, ctx: _Rank) -> bool:
        progressed = False
        for _ in range(self.slice_length):
            try:
                result = ctx.vm.step()
            except InterpError as exc:
                ctx.status = _RankStatus.FAULT
                self._event("crash", ctx.rank, "?", str(exc))
                return True
            self._total_steps += 1
            if result is STEP:
                progressed = True
                continue
            if result is DONE:
                ctx.status = _RankStatus.DONE
                return True
            assert isinstance(result, ExternCall)
            progressed = True
            self._handle_mpi(ctx, result)
            if ctx.status is not _RankStatus.RUNNABLE or self._aborted:
                return True
        return progressed

    # ------------------------------------------------------------------ helpers
    def _comm_members(self, ctx: _Rank, comm: int) -> Optional[List[int]]:
        if comm == COMM_SELF:
            return [ctx.rank]
        return self.comms.get(comm)

    def _fresh_handle(self) -> int:
        self._next_handle += 1
        return self._next_handle

    def _read_buffer(self, ctx: _Rank, addr: int, count: int) -> List[object]:
        return [ctx.vm.memory.cells.get(addr + i, 0) for i in range(max(0, count))]

    def _write_buffer(self, ctx: _Rank, addr: int, payload: List[object]) -> None:
        for i, value in enumerate(payload):
            ctx.vm.memory.cells[addr + i] = value

    def _write_status(self, ctx: _Rank, status_addr: int, source: int, tag: int) -> None:
        if status_addr:
            ctx.vm.memory.cells[status_addr] = source
            ctx.vm.memory.cells[status_addr + 1] = tag
            ctx.vm.memory.cells[status_addr + 2] = SUCCESS

    def _complete(self, ctx: _Rank, value: object = SUCCESS) -> None:
        assert ctx.pending_inst is not None
        ctx.vm.set_result(ctx.pending_inst, value)
        ctx.pending = None
        ctx.pending_inst = None
        ctx.status = _RankStatus.RUNNABLE

    def _block(self, ctx: _Rank, call: ExternCall, kind: str, **data) -> None:
        data["call"] = call.name
        ctx.pending = _Pending(kind, data)
        ctx.pending_inst = call.inst
        ctx.status = _RankStatus.BLOCKED

    # ------------------------------------------------------------------ arg checks
    def _check_common_args(self, ctx: _Rank, call: ExternCall) -> bool:
        """Validate roles; returns False if the call should be skipped."""
        info = MPI_FUNCTIONS[call.name]
        ok = True

        def role(name):
            idx = info.role(name)
            return call.args[idx] if idx is not None and idx < len(call.args) else None

        comm = role("comm")
        members = None
        if comm is not None:
            members = self._comm_members(ctx, int(comm))
            if members is None:
                self._event("invalid_arg", ctx.rank, call.name,
                            f"invalid communicator {comm}")
                ok = False
        count = role("count")
        if count is not None and isinstance(count, (int, float)) and int(count) < 0:
            self._event("invalid_arg", ctx.rank, call.name, f"negative count {count}")
            ok = False
        for dt_role in ("datatype", "recvtype"):
            dtype = role(dt_role)
            if dtype is not None and int(dtype) not in DATATYPE_INFO \
                    and int(dtype) not in ctx.committed_types:
                self._event("invalid_arg", ctx.rank, call.name,
                            f"invalid datatype {dtype}")
                ok = False
        tag = role("tag")
        if tag is not None:
            t = int(tag)
            is_recv = info.call_class in (CallClass.P2P_RECV, CallClass.NB_RECV,
                                          CallClass.P2P_PROBE)
            if t > TAG_UB or (t < 0 and not (is_recv and t == ANY_TAG)):
                self._event("invalid_arg", ctx.rank, call.name, f"invalid tag {t}")
                ok = False
        size = len(members) if members else self.nprocs
        for peer_role in ("dest", "source", "root"):
            peer = role(peer_role)
            if peer is None:
                continue
            p = int(peer)
            wild_ok = peer_role == "source" and p == ANY_SOURCE
            if p == PROC_NULL and peer_role != "root":
                continue
            if not wild_ok and (p < 0 or p >= size):
                self._event("invalid_arg", ctx.rank, call.name,
                            f"invalid {peer_role} rank {p}")
                ok = False
        op = role("op")
        if op is not None and int(op) not in _VALID_OPS:
            self._event("invalid_arg", ctx.rank, call.name, f"invalid op {op}")
            ok = False
        buf = role("buf")
        if buf is not None and int(buf) == 0 and count is not None and int(count or 0) > 0:
            self._event("invalid_arg", ctx.rank, call.name, "null buffer")
            ok = False
        return ok

    # ------------------------------------------------------------------ dispatch
    def _handle_mpi(self, ctx: _Rank, call: ExternCall) -> None:
        name = call.name
        info = MPI_FUNCTIONS.get(name)
        if info is None:
            # Unknown external: treat as no-op returning 0.
            ctx.vm.set_result(call.inst, 0)
            return
        ctx.pending_inst = call.inst  # for _complete()

        if name in ("MPI_Init", "MPI_Init_thread"):
            if ctx.initialized:
                self._event("call_ordering", ctx.rank, name, "double MPI_Init")
            ctx.initialized = True
            if name == "MPI_Init_thread" and len(call.args) >= 4 and call.args[3]:
                ctx.vm.memory.cells[int(call.args[3])] = int(call.args[2])
            self._complete(ctx)
            return
        if not ctx.initialized and name not in ("MPI_Initialized", "MPI_Finalized",
                                                "MPI_Wtime"):
            self._event("call_ordering", ctx.rank, name, "MPI call before MPI_Init")
        if ctx.finalized and name != "MPI_Finalized":
            self._event("call_ordering", ctx.rank, name, "MPI call after MPI_Finalize")

        if name == "MPI_Finalize":
            self._leak_scan(ctx, at_finalize=True)
            ctx.finalized = True
            self._complete(ctx)
            return
        if name == "MPI_Initialized":
            ctx.vm.memory.cells[int(call.args[0])] = int(ctx.initialized)
            self._complete(ctx)
            return
        if name == "MPI_Finalized":
            ctx.vm.memory.cells[int(call.args[0])] = int(ctx.finalized)
            self._complete(ctx)
            return
        if name == "MPI_Wtime":
            self._complete(ctx, self._total_steps * 1e-6)
            return
        if name == "MPI_Abort":
            self._event("abort", ctx.rank, name, f"code {call.args[1] if len(call.args) > 1 else 0}")
            self._aborted = True
            self._complete(ctx)
            return
        if name == "MPI_Comm_rank":
            comm = int(call.args[0])
            members = self._comm_members(ctx, comm)
            if members is None:
                self._event("invalid_arg", ctx.rank, name, f"invalid communicator {comm}")
                self._complete(ctx, MPI_CONSTANTS["MPI_ERR_COMM"])
                return
            ctx.vm.memory.cells[int(call.args[1])] = members.index(ctx.rank) \
                if ctx.rank in members else 0
            self._complete(ctx)
            return
        if name == "MPI_Comm_size":
            comm = int(call.args[0])
            members = self._comm_members(ctx, comm)
            if members is None:
                self._event("invalid_arg", ctx.rank, name, f"invalid communicator {comm}")
                self._complete(ctx, MPI_CONSTANTS["MPI_ERR_COMM"])
                return
            ctx.vm.memory.cells[int(call.args[1])] = len(members)
            self._complete(ctx)
            return
        if name == "MPI_Get_processor_name":
            addr = int(call.args[0])
            for i, ch in enumerate("simnode"):
                ctx.vm.memory.cells[addr + i] = ord(ch)
            ctx.vm.memory.cells[addr + 7] = 0
            if len(call.args) > 1 and call.args[1]:
                ctx.vm.memory.cells[int(call.args[1])] = 7
            self._complete(ctx)
            return
        if name == "MPI_Error_string":
            if len(call.args) > 2 and call.args[2]:
                ctx.vm.memory.cells[int(call.args[2])] = 0
            self._complete(ctx)
            return

        args_ok = self._check_common_args(ctx, call)
        handler = {
            CallClass.P2P_SEND: self._do_send,
            CallClass.P2P_RECV: self._do_recv,
            CallClass.P2P_PROBE: self._do_probe,
            CallClass.NB_SEND: self._do_isend,
            CallClass.NB_RECV: self._do_irecv,
            CallClass.PERSISTENT_INIT: self._do_persistent_init,
            CallClass.START: self._do_start,
            CallClass.COMPLETION: self._do_completion,
            CallClass.REQUEST_FREE: self._do_request_free,
            CallClass.COLLECTIVE: self._do_collective,
            CallClass.NB_COLLECTIVE: self._do_collective,
            CallClass.COMM_MGMT: self._do_comm_mgmt,
            CallClass.RMA_WIN: self._do_rma_win,
            CallClass.RMA_EPOCH: self._do_rma_epoch,
            CallClass.RMA_OP: self._do_rma_op,
            CallClass.DATATYPE: self._do_datatype,
            CallClass.OP_MGMT: self._do_op_mgmt,
            CallClass.BUFFER: self._do_buffer,
        }.get(info.call_class)
        if handler is None:
            self._complete(ctx)
            return
        if not args_ok:
            self._complete(ctx, MPI_CONSTANTS["MPI_ERR_ARG"])
            return
        handler(ctx, call)

    # ------------------------------------------------------------------ p2p
    def _send_fields(self, ctx: _Rank, call: ExternCall):
        info = MPI_FUNCTIONS[call.name]
        buf = int(call.args[info.roles["buf"]])
        count = int(call.args[info.roles["count"]])
        dtype = int(call.args[info.roles["datatype"]])
        peer = int(call.args[info.roles.get("dest", info.roles.get("source", 3))])
        tag = int(call.args[info.roles["tag"]])
        comm = int(call.args[info.roles["comm"]])
        return buf, count, dtype, peer, tag, comm

    def _world_rank(self, ctx: _Rank, comm: int, local: int) -> int:
        members = self._comm_members(ctx, comm)
        if members is None or local < 0 or local >= len(members):
            return local
        return members[local]

    def _post_send(self, ctx: _Rank, call: ExternCall, mode: str,
                   request: Optional[Request] = None) -> Optional[SendEntry]:
        buf, count, dtype, dest, tag, comm = self._send_fields(ctx, call)
        if dest == PROC_NULL:
            return None
        self._seq += 1
        entry = SendEntry(
            seq=self._seq, source=ctx.rank,
            dest=self._world_rank(ctx, comm, dest), tag=tag, comm=comm,
            dtype=dtype, count=count,
            payload=self._read_buffer(ctx, buf, count),
            mode=mode, owner_rank=ctx.rank, request=request,
        )
        self.mailbox.append(entry)
        return entry

    def _do_send(self, ctx: _Rank, call: ExternCall) -> None:
        if call.name == "MPI_Sendrecv":
            self._do_sendrecv(ctx, call)
            return
        buf, count, dtype, dest, tag, comm = self._send_fields(ctx, call)
        rendezvous = call.name in ("MPI_Ssend", "MPI_Rsend") or count > self.eager_limit
        if call.name == "MPI_Bsend":
            rendezvous = False
        entry = self._post_send(ctx, call, "rendezvous" if rendezvous else "eager")
        if entry is None or not rendezvous:
            self._complete(ctx)
            return
        self._block(ctx, call, "send", entry=entry)

    def _do_sendrecv(self, ctx: _Rank, call: ExternCall) -> None:
        info = MPI_FUNCTIONS[call.name]
        a = call.args
        dest = int(a[info.roles["dest"]])
        if dest != PROC_NULL:
            self._seq += 1
            comm = int(a[info.roles["comm"]])
            self.mailbox.append(SendEntry(
                seq=self._seq, source=ctx.rank,
                dest=self._world_rank(ctx, comm, dest),
                tag=int(a[info.roles["tag"]]), comm=comm,
                dtype=int(a[info.roles["datatype"]]),
                count=int(a[info.roles["count"]]),
                payload=self._read_buffer(ctx, int(a[info.roles["buf"]]),
                                          int(a[info.roles["count"]])),
                mode="eager", owner_rank=ctx.rank,
            ))
        source = int(a[info.roles["source"]])
        if source == PROC_NULL:
            self._complete(ctx)
            return
        self._block(ctx, call, "recv",
                    buf=int(a[info.roles["recvbuf"]]),
                    count=int(a[info.roles["recvcount"]]),
                    dtype=int(a[info.roles["recvtype"]]),
                    source=source, tag=int(a[info.roles["recvtag"]]),
                    comm=int(a[info.roles["comm"]]),
                    status=int(a[info.roles["status"]]))

    def _do_recv(self, ctx: _Rank, call: ExternCall) -> None:
        info = MPI_FUNCTIONS[call.name]
        buf, count, dtype, source, tag, comm = self._send_fields(ctx, call)
        status = int(call.args[info.roles["status"]])
        if source == PROC_NULL:
            self._write_status(ctx, status, PROC_NULL, ANY_TAG)
            self._complete(ctx)
            return
        self._block(ctx, call, "recv", buf=buf, count=count, dtype=dtype,
                    source=source, tag=tag, comm=comm, status=status)

    def _do_probe(self, ctx: _Rank, call: ExternCall) -> None:
        info = MPI_FUNCTIONS[call.name]
        source = int(call.args[info.roles["source"]])
        tag = int(call.args[info.roles["tag"]])
        comm = int(call.args[info.roles["comm"]])
        entry = self._find_message(ctx.rank, source, tag, comm, ctx)
        if call.name == "MPI_Iprobe":
            flag_addr = int(call.args[3])
            ctx.vm.memory.cells[flag_addr] = int(entry is not None)
            if entry is not None:
                self._write_status(ctx, int(call.args[4]), entry.source, entry.tag)
            self._complete(ctx)
            return
        if entry is not None:
            self._write_status(ctx, int(call.args[3]), entry.source, entry.tag)
            self._complete(ctx)
            return
        self._block(ctx, call, "probe", source=source, tag=tag, comm=comm,
                    status=int(call.args[3]))

    def _new_request(self, ctx: _Rank, call: ExternCall, kind: str,
                     persistent: bool) -> Request:
        info = MPI_FUNCTIONS[call.name]
        buf, count, dtype, peer, tag, comm = self._send_fields(ctx, call)
        handle = self._fresh_handle()
        req = Request(handle=handle, rank=ctx.rank, kind=kind,
                      persistent=persistent, buf=buf, count=count, dtype=dtype,
                      peer=peer, tag=tag, comm=comm)
        ctx.requests[handle] = req
        req_addr = int(call.args[info.roles["request"]])
        if req_addr:
            ctx.vm.memory.cells[req_addr] = handle
        return req

    def _do_isend(self, ctx: _Rank, call: ExternCall) -> None:
        req = self._new_request(ctx, call, "send", persistent=False)
        req.active = True
        if req.peer == PROC_NULL:
            req.complete = True
        else:
            entry = self._post_send(ctx, call, "request", request=req)
            req.entry = entry
            # Eager completion for small messages (buffer copied already).
            if req.count <= self.eager_limit:
                req.complete = True
        self._complete(ctx)

    def _do_irecv(self, ctx: _Rank, call: ExternCall) -> None:
        req = self._new_request(ctx, call, "recv", persistent=False)
        req.active = True
        if req.peer == PROC_NULL:
            req.complete = True
        self._complete(ctx)

    def _do_persistent_init(self, ctx: _Rank, call: ExternCall) -> None:
        kind = "recv" if call.name == "MPI_Recv_init" else "send"
        req = self._new_request(ctx, call, kind, persistent=True)
        req.active = False
        self._complete(ctx)

    def _do_start(self, ctx: _Rank, call: ExternCall) -> None:
        handles: List[int] = []
        if call.name == "MPI_Start":
            handles.append(int(ctx.vm.memory.cells.get(int(call.args[0]), 0)))
        else:
            n = int(call.args[0])
            base = int(call.args[1])
            handles.extend(int(ctx.vm.memory.cells.get(base + i, 0)) for i in range(n))
        for handle in handles:
            req = ctx.requests.get(handle)
            if req is None or req.freed:
                self._event("request_lifecycle", ctx.rank, call.name,
                            "MPI_Start on invalid request")
                continue
            if not req.persistent:
                self._event("request_lifecycle", ctx.rank, call.name,
                            "MPI_Start on non-persistent request")
                continue
            if req.active and not req.complete:
                self._event("request_lifecycle", ctx.rank, call.name,
                            "MPI_Start on active request")
                continue
            req.active = True
            req.complete = False
            if req.peer == PROC_NULL:
                req.complete = True
            elif req.kind == "send":
                self._seq += 1
                entry = SendEntry(
                    seq=self._seq, source=ctx.rank,
                    dest=self._world_rank(ctx, req.comm, req.peer),
                    tag=req.tag, comm=req.comm, dtype=req.dtype, count=req.count,
                    payload=self._read_buffer(ctx, req.buf, req.count),
                    mode="request", owner_rank=ctx.rank, request=req,
                )
                self.mailbox.append(entry)
                req.entry = entry
                if req.count <= self.eager_limit:
                    req.complete = True
        self._complete(ctx)

    def _do_completion(self, ctx: _Rank, call: ExternCall) -> None:
        name = call.name
        if name in ("MPI_Wait", "MPI_Test"):
            req_addr = int(call.args[0])
            status = int(call.args[1]) if name == "MPI_Wait" else int(call.args[2])
            handles = [(req_addr, int(ctx.vm.memory.cells.get(req_addr, 0)))]
            flag_addr = int(call.args[1]) if name == "MPI_Test" else 0
        else:  # Waitall / Waitany / Testall
            n = int(call.args[0])
            base = int(call.args[1])
            handles = [(base + i, int(ctx.vm.memory.cells.get(base + i, 0)))
                       for i in range(n)]
            status = int(call.args[-1])
            flag_addr = int(call.args[2]) if name == "MPI_Testall" else 0

        valid: List[Tuple[int, Request]] = []
        for addr, handle in handles:
            if handle == REQUEST_NULL or handle == 0:
                self._event("request_lifecycle", ctx.rank, name,
                            "wait on null/inactive request")
                continue
            req = ctx.requests.get(handle)
            if req is None or req.freed:
                self._event("request_lifecycle", ctx.rank, name,
                            "wait on freed/invalid request")
                continue
            if req.persistent and not req.active:
                continue  # MPI: returns immediately with empty status
            valid.append((addr, req))

        if name in ("MPI_Test", "MPI_Testall"):
            self._try_complete_requests(ctx, [r for _, r in valid])
            done = all(r.complete for _, r in valid)
            if flag_addr:
                ctx.vm.memory.cells[flag_addr] = int(done)
            if done:
                self._retire_requests(ctx, valid, status)
            self._complete(ctx)
            return

        self._block(ctx, call, "wait", reqs=valid, status=status,
                    any_mode=(name == "MPI_Waitany"),
                    index_addr=int(call.args[2]) if name == "MPI_Waitany" else 0)

    def _retire_requests(self, ctx: _Rank, pairs: List[Tuple[int, Request]],
                         status_addr: int) -> None:
        for addr, req in pairs:
            if req.kind == "recv":
                self._write_status(ctx, status_addr, req.source_seen, req.tag_seen)
            if req.persistent:
                req.active = False
                req.complete = False
            else:
                req.freed = True
                if addr:
                    ctx.vm.memory.cells[addr] = REQUEST_NULL

    def _do_request_free(self, ctx: _Rank, call: ExternCall) -> None:
        req_addr = int(call.args[0])
        handle = int(ctx.vm.memory.cells.get(req_addr, 0))
        req = ctx.requests.get(handle)
        if req is None or req.freed:
            self._event("request_lifecycle", ctx.rank, call.name,
                        "free of invalid request")
            self._complete(ctx)
            return
        if call.name == "MPI_Cancel":
            # Cancellation marks the request complete-as-cancelled; the
            # handle stays valid and a later Wait/Test retires it (MPI-3
            # §3.8.4).  A buffered (locally complete) send is still
            # cancellable until it is matched; a matched transfer cannot
            # be withdrawn and Wait completes it normally.
            req.complete = True
            if req.entry is not None and not req.entry.matched:
                req.entry.matched = True          # withdraw from matching
            self._complete(ctx)
            return
        if call.name == "MPI_Request_free" and req.active and not req.complete:
            self._event("request_lifecycle", ctx.rank, call.name,
                        "free of active request")
        req.freed = True
        ctx.vm.memory.cells[req_addr] = REQUEST_NULL
        self._complete(ctx)

    # ------------------------------------------------------------------ collectives
    def _do_collective(self, ctx: _Rank, call: ExternCall) -> None:
        info = MPI_FUNCTIONS[call.name]
        comm = int(call.args[info.roles["comm"]])
        members = self._comm_members(ctx, comm)
        if members is None:
            self._complete(ctx, MPI_CONSTANTS["MPI_ERR_COMM"])
            return
        if len(members) == 1:
            # Single-member communicator: completes immediately.
            self._single_rank_collective(ctx, call)
            return
        root = call.args[info.roles["root"]] if "root" in info.roles else -1
        dtype = call.args[info.roles["datatype"]] if "datatype" in info.roles else 0
        count = call.args[info.roles["count"]] if "count" in info.roles else 0
        coll = Collective(
            op=call.name, comm=comm, root=int(root or 0), dtype=int(dtype or 0),
            count=int(count or 0), args=list(call.args), call_inst=call.inst,
            opname_args=(call.name,),
        )
        self._block(ctx, call, "coll", coll=coll, comm=comm)

    def _single_rank_collective(self, ctx: _Rank, call: ExternCall) -> None:
        info = MPI_FUNCTIONS[call.name]
        roles = info.roles
        if "recvbuf" in roles and "buf" in roles and "count" in roles:
            buf = int(call.args[roles["buf"]])
            recvbuf = int(call.args[roles["recvbuf"]])
            count = int(call.args[roles["count"]])
            if buf and recvbuf:
                self._write_buffer(ctx, recvbuf, self._read_buffer(ctx, buf, count))
        if info.call_class is CallClass.NB_COLLECTIVE and "request" in roles:
            req = Request(handle=self._fresh_handle(), rank=ctx.rank, kind="coll",
                          active=True, complete=True)
            ctx.requests[req.handle] = req
            addr = int(call.args[roles["request"]])
            if addr:
                ctx.vm.memory.cells[addr] = req.handle
        self._complete(ctx)

    # ------------------------------------------------------------------ comm mgmt
    def _do_comm_mgmt(self, ctx: _Rank, call: ExternCall) -> None:
        name = call.name
        if name == "MPI_Comm_split":
            # Treated as collective-free handle creation: all ranks calling
            # with any color share a communicator keyed by the color value.
            color = int(call.args[1])
            key = ("split", int(call.args[0]), color)
            handle = self._comm_cache.setdefault(key, self._fresh_handle()) \
                if hasattr(self, "_comm_cache") else None
            if handle is None:
                self._comm_cache: Dict[Tuple, int] = {}
                handle = self._comm_cache.setdefault(key, self._fresh_handle())
            self.comms.setdefault(handle, []).append(ctx.rank)
            self.comms[handle].sort()
            ctx.vm.memory.cells[int(call.args[3])] = handle
            ctx.leak_handles["comm"] += 1
            self._complete(ctx)
            return
        if name == "MPI_Comm_dup":
            parent = self._comm_members(ctx, int(call.args[0])) or [ctx.rank]
            key = ("dup", int(call.args[0]))
            if not hasattr(self, "_comm_cache"):
                self._comm_cache = {}
            handle = self._comm_cache.setdefault(key, self._fresh_handle())
            self.comms[handle] = list(parent)
            ctx.vm.memory.cells[int(call.args[1])] = handle
            ctx.leak_handles["comm"] += 1
            self._complete(ctx)
            return
        if name == "MPI_Comm_free":
            addr = int(call.args[0])
            ctx.vm.memory.cells[addr] = COMM_NULL
            ctx.leak_handles["comm"] = max(0, ctx.leak_handles["comm"] - 1)
            self._complete(ctx)
            return
        if name == "MPI_Comm_group":
            ctx.vm.memory.cells[int(call.args[1])] = self._fresh_handle()
            ctx.leak_handles["group"] += 1
            self._complete(ctx)
            return
        if name == "MPI_Group_free":
            ctx.vm.memory.cells[int(call.args[0])] = MPI_CONSTANTS["MPI_GROUP_NULL"]
            ctx.leak_handles["group"] = max(0, ctx.leak_handles["group"] - 1)
            self._complete(ctx)
            return
        if name == "MPI_Group_incl":
            ctx.vm.memory.cells[int(call.args[3])] = self._fresh_handle()
            ctx.leak_handles["group"] += 1
            self._complete(ctx)
            return
        self._complete(ctx)

    # ------------------------------------------------------------------ RMA
    def _do_rma_win(self, ctx: _Rank, call: ExternCall) -> None:
        name = call.name
        if name in ("MPI_Win_create", "MPI_Win_allocate"):
            if not hasattr(self, "_win_cache"):
                self._win_cache: Dict[Tuple, int] = {}
            key = ("win", ctx.leak_handles["win"])
            handle = self._win_cache.setdefault(key, self._fresh_handle())
            win = self.windows.setdefault(handle, Window(handle=handle, comm=COMM_WORLD))
            if name == "MPI_Win_create":
                base, size = int(call.args[0]), int(call.args[1])
                win_addr = int(call.args[5])
            else:
                size = int(call.args[0])
                base = ctx.vm.memory.allocate(max(1, size))
                base_ptr_addr = int(call.args[4])
                if base_ptr_addr:
                    ctx.vm.memory.cells[base_ptr_addr] = base
                win_addr = int(call.args[5])
            win.bases[ctx.rank] = base
            win.sizes[ctx.rank] = size
            win.epoch[ctx.rank] = "none"
            if win_addr:
                ctx.vm.memory.cells[win_addr] = handle
            ctx.leak_handles["win"] += 1
            self._complete(ctx)
            return
        if name == "MPI_Win_free":
            addr = int(call.args[0])
            handle = int(ctx.vm.memory.cells.get(addr, 0))
            win = self.windows.get(handle)
            if win is not None:
                # Freeing after a fence is the canonical correct pattern (a
                # fence both closes and may open an epoch); only lock/PSCW
                # epochs left open are lifecycle errors.
                if win.epoch.get(ctx.rank, "none") in ("lock", "pscw"):
                    self._event("epoch_lifecycle", ctx.rank, name,
                                "MPI_Win_free with open epoch")
                win.freed = True
            ctx.vm.memory.cells[addr] = MPI_CONSTANTS["MPI_WIN_NULL"]
            ctx.leak_handles["win"] = max(0, ctx.leak_handles["win"] - 1)
            self._complete(ctx)
            return
        self._complete(ctx)

    def _do_rma_epoch(self, ctx: _Rank, call: ExternCall) -> None:
        name = call.name
        info = MPI_FUNCTIONS[name]
        win_idx = info.roles.get("win")
        handle = int(call.args[win_idx]) if win_idx is not None else 0
        win = self.windows.get(handle)
        if win is None:
            self._event("invalid_arg", ctx.rank, name, f"invalid window {handle}")
            self._complete(ctx, MPI_CONSTANTS["MPI_ERR_ARG"])
            return
        mode = win.epoch.get(ctx.rank, "none")
        if name == "MPI_Win_fence":
            # Fence acts as a collective sync over the window's comm.
            self._block(ctx, call, "coll",
                        coll=Collective(op="MPI_Win_fence:" + str(handle),
                                        comm=win.comm, root=-1, dtype=0, count=0,
                                        args=list(call.args), call_inst=call.inst,
                                        opname_args=("MPI_Win_fence", handle)),
                        comm=win.comm, win=win)
            return
        if name in ("MPI_Win_lock", "MPI_Win_lock_all"):
            if mode != "none":
                self._event("epoch_lifecycle", ctx.rank, name, "nested lock epoch")
            win.epoch[ctx.rank] = "lock"
            self._complete(ctx)
            return
        if name in ("MPI_Win_unlock", "MPI_Win_unlock_all"):
            if mode != "lock":
                self._event("epoch_lifecycle", ctx.rank, name,
                            "unlock without matching lock")
            win.epoch[ctx.rank] = "none"
            self._check_rma_conflicts(win)
            self._complete(ctx)
            return
        if name in ("MPI_Win_post", "MPI_Win_start"):
            win.epoch[ctx.rank] = "pscw"
            self._complete(ctx)
            return
        if name in ("MPI_Win_complete", "MPI_Win_wait"):
            if mode != "pscw":
                self._event("epoch_lifecycle", ctx.rank, name,
                            "complete/wait without post/start")
            win.epoch[ctx.rank] = "none"
            self._check_rma_conflicts(win)
            self._complete(ctx)
            return
        self._complete(ctx)

    def _do_rma_op(self, ctx: _Rank, call: ExternCall) -> None:
        name = call.name
        info = MPI_FUNCTIONS[name]
        handle = int(call.args[info.roles["win"]])
        win = self.windows.get(handle)
        if win is None:
            self._event("invalid_arg", ctx.rank, name, f"invalid window {handle}")
            self._complete(ctx, MPI_CONSTANTS["MPI_ERR_ARG"])
            return
        if win.epoch.get(ctx.rank, "none") == "none":
            self._event("epoch_lifecycle", ctx.rank, name,
                        "RMA operation outside access epoch")
        target = int(call.args[info.roles.get("dest", info.roles.get("source", 3))])
        disp = int(call.args[4])
        count = int(call.args[info.roles["count"]])
        kind = "get" if name == "MPI_Get" else "put"
        win.accesses.append((ctx.rank, target, disp, disp + max(1, count),
                             kind, win.fence_round))
        # Apply the data movement immediately (single happens-now semantics).
        buf = int(call.args[info.roles["buf"]])
        if target in win.bases and 0 <= target < self.nprocs:
            target_ctx = self.ranks[target]
            base = win.bases[target]
            if kind == "put":
                payload = self._read_buffer(ctx, buf, count)
                for i, value in enumerate(payload):
                    target_ctx.vm.memory.cells[base + disp + i] = value
            else:
                payload = [target_ctx.vm.memory.cells.get(base + disp + i, 0)
                           for i in range(count)]
                self._write_buffer(ctx, buf, payload)
        self._complete(ctx)

    def _check_rma_conflicts(self, win: Window) -> None:
        current = [a for a in win.accesses if a[5] == win.fence_round]
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                o1, t1, lo1, hi1, k1, _ = current[i]
                o2, t2, lo2, hi2, k2, _ = current[j]
                if o1 == o2 or t1 != t2:
                    continue
                if lo1 < hi2 and lo2 < hi1 and ("put" in (k1, k2)):
                    self._event("global_concurrency", o1, "MPI_Put/MPI_Get",
                                f"conflicting RMA access to rank {t1} window")
        # Local stores into an exposed region concurrent with remote accesses.
        for rank, addr, rnd in win.local_writes:
            if rnd != win.fence_round:
                continue
            base = win.bases.get(rank)
            if base is None:
                continue
            off = addr - base
            for o, t, lo, hi, k, r in current:
                if r == rnd and t == rank and o != rank and lo <= off < hi:
                    self._event("global_concurrency", rank, "local store",
                                "local access to exposed window during epoch")

    # ------------------------------------------------------------------ datatype / op / buffer
    def _do_datatype(self, ctx: _Rank, call: ExternCall) -> None:
        name = call.name
        if name in ("MPI_Type_contiguous", "MPI_Type_vector"):
            handle = self._fresh_handle()
            ctx.vm.memory.cells[int(call.args[-1])] = handle
            ctx.leak_handles["type"] += 1
            self._complete(ctx)
            return
        if name == "MPI_Type_commit":
            handle = int(ctx.vm.memory.cells.get(int(call.args[0]), 0))
            ctx.committed_types.add(handle)
            self._complete(ctx)
            return
        if name == "MPI_Type_free":
            addr = int(call.args[0])
            ctx.committed_types.discard(int(ctx.vm.memory.cells.get(addr, 0)))
            ctx.vm.memory.cells[addr] = MPI_CONSTANTS["MPI_DATATYPE_NULL"]
            ctx.leak_handles["type"] = max(0, ctx.leak_handles["type"] - 1)
            self._complete(ctx)
            return
        self._complete(ctx)

    def _do_op_mgmt(self, ctx: _Rank, call: ExternCall) -> None:
        if call.name == "MPI_Op_create":
            handle = self._fresh_handle()
            _VALID_OPS.add(handle)
            ctx.vm.memory.cells[int(call.args[2])] = handle
            ctx.leak_handles["op"] += 1
        else:
            addr = int(call.args[0])
            ctx.vm.memory.cells[addr] = MPI_CONSTANTS["MPI_OP_NULL"]
            ctx.leak_handles["op"] = max(0, ctx.leak_handles["op"] - 1)
        self._complete(ctx)

    def _do_buffer(self, ctx: _Rank, call: ExternCall) -> None:
        if call.name == "MPI_Buffer_attach":
            ctx.leak_handles["buffer"] += 1
        else:
            ctx.leak_handles["buffer"] = max(0, ctx.leak_handles["buffer"] - 1)
        self._complete(ctx)

    # ------------------------------------------------------------------ matching
    def _find_message(self, dest: int, source: int, tag: int, comm: int,
                      ctx: _Rank) -> Optional[SendEntry]:
        world_source = None
        if source not in (ANY_SOURCE, PROC_NULL):
            world_source = self._world_rank(ctx, comm, source)
        for entry in sorted(self.mailbox, key=lambda e: e.seq):
            if entry.matched or entry.dest != dest or entry.comm != comm:
                continue
            if world_source is not None and entry.source != world_source:
                continue
            if tag != ANY_TAG and entry.tag != tag:
                continue
            return entry
        return None

    def _candidate_count(self, dest: int, tag: int, comm: int) -> int:
        sources = {e.source for e in self.mailbox
                   if not e.matched and e.dest == dest and e.comm == comm
                   and (tag == ANY_TAG or e.tag == tag)}
        return len(sources)

    def _deliver(self, ctx: _Rank, entry: SendEntry, buf: int, count: int,
                 dtype: int, call_name: str) -> None:
        entry.matched = True
        send_kind = DATATYPE_INFO.get(entry.dtype, ("derived", 0))[0]
        recv_kind = DATATYPE_INFO.get(dtype, ("derived", 0))[0]
        if send_kind != recv_kind or (
            send_kind == recv_kind == "derived" and entry.dtype != dtype
        ) or (send_kind != "derived"
              and DATATYPE_INFO.get(entry.dtype, (0, 0))[1]
              != DATATYPE_INFO.get(dtype, (0, 0))[1]):
            self._event("type_mismatch", ctx.rank, call_name,
                        f"send type {entry.dtype} vs recv type {dtype}")
        if count < entry.count:
            self._event("truncation", ctx.rank, call_name,
                        f"recv count {count} < send count {entry.count}")
        self._write_buffer(ctx, buf, entry.payload[:min(count, entry.count)])
        # Unblock / complete the sender side.
        if entry.mode == "rendezvous":
            sender = self.ranks[entry.owner_rank]
            if sender.status is _RankStatus.BLOCKED and sender.pending \
                    and sender.pending.kind == "send" \
                    and sender.pending.data.get("entry") is entry:
                self._complete(sender)
        elif entry.mode == "request" and entry.request is not None:
            entry.request.complete = True

    def _try_complete_requests(self, ctx: _Rank, reqs: List[Request]) -> None:
        for req in reqs:
            if req.complete or not req.active:
                continue
            if req.kind == "recv":
                entry = self._find_message(ctx.rank, req.peer, req.tag, req.comm, ctx)
                if entry is not None:
                    if req.peer == ANY_SOURCE and \
                            self._candidate_count(ctx.rank, req.tag, req.comm) > 1:
                        self._event("message_race", ctx.rank, "MPI_Irecv",
                                    "multiple racing senders for wildcard receive")
                    self._deliver(ctx, entry, req.buf, req.count, req.dtype, "MPI_Irecv")
                    req.source_seen = entry.source
                    req.tag_seen = entry.tag
                    req.complete = True

    def _match_all(self) -> bool:
        progress = False
        # Point-to-point receives and probes.
        for ctx in self.ranks:
            if ctx.status is not _RankStatus.BLOCKED or ctx.pending is None:
                continue
            pending = ctx.pending
            if pending.kind == "recv":
                d = pending.data
                entry = self._find_message(ctx.rank, d["source"], d["tag"],
                                           d["comm"], ctx)
                if entry is None:
                    continue
                if d["source"] == ANY_SOURCE and \
                        self._candidate_count(ctx.rank, d["tag"], d["comm"]) > 1:
                    self._event("message_race", ctx.rank, d["call"],
                                "multiple racing senders for wildcard receive")
                self._deliver(ctx, entry, d["buf"], d["count"], d["dtype"], d["call"])
                self._write_status(ctx, d["status"], entry.source, entry.tag)
                self._complete(ctx)
                progress = True
            elif pending.kind == "probe":
                d = pending.data
                entry = self._find_message(ctx.rank, d["source"], d["tag"],
                                           d["comm"], ctx)
                if entry is not None:
                    self._write_status(ctx, d["status"], entry.source, entry.tag)
                    self._complete(ctx)
                    progress = True
            elif pending.kind == "wait":
                d = pending.data
                self._try_complete_requests(ctx, [r for _, r in d["reqs"]])
                reqs = d["reqs"]
                if d.get("any_mode"):
                    done = [i for i, (_, r) in enumerate(reqs) if r.complete]
                    if done or not reqs:
                        if done and d.get("index_addr"):
                            ctx.vm.memory.cells[d["index_addr"]] = done[0]
                        chosen = [reqs[done[0]]] if done else []
                        self._retire_requests(ctx, chosen, d["status"])
                        self._complete(ctx)
                        progress = True
                elif all(r.complete for _, r in reqs):
                    self._retire_requests(ctx, reqs, d["status"])
                    self._complete(ctx)
                    progress = True

        # Collectives: gather blocked participants per communicator.
        arrivals: Dict[int, Dict[int, _Rank]] = {}
        for ctx in self.ranks:
            if ctx.status is _RankStatus.BLOCKED and ctx.pending \
                    and ctx.pending.kind == "coll":
                comm = ctx.pending.data["comm"]
                arrivals.setdefault(comm, {})[ctx.rank] = ctx
        for comm, waiting in arrivals.items():
            members = self.comms.get(comm)
            if members is None:
                members = sorted(waiting)
            if not all(m in waiting for m in members):
                continue
            ctxs = [waiting[m] for m in members]
            colls = [c.pending.data["coll"] for c in ctxs]
            names = {c.opname_args for c in colls}
            if len(names) > 1:
                for c in ctxs:
                    self._event("call_ordering", c.rank, colls[0].op,
                                "mismatched collective operations: "
                                + " vs ".join(sorted(str(n[0]) for n in names)))
                # Mismatched collectives deadlock: leave everyone blocked.
                continue
            self._run_collective(comm, members, ctxs, colls)
            progress = True
        return progress

    def _run_collective(self, comm: int, members: List[int], ctxs: List[_Rank],
                        colls: List[Collective]) -> None:
        first = colls[0]
        name = first.op
        if name.startswith("MPI_Win_fence"):
            handle = first.opname_args[1]
            win = self.windows.get(handle)
            if win is not None:
                self._check_rma_conflicts(win)
                win.fence_round += 1
                for ctx in ctxs:
                    win.epoch[ctx.rank] = "fence"
            for ctx in ctxs:
                self._complete(ctx)
            return

        info = MPI_FUNCTIONS.get(name)
        roots = {c.root for c in colls if info and "root" in info.roles}
        if len(roots) > 1:
            for ctx in ctxs:
                self._event("parameter_matching", ctx.rank, name,
                            f"mismatched root arguments {sorted(roots)}")
        dtypes = {c.dtype for c in colls if info and "datatype" in info.roles}
        if len(dtypes) > 1:
            kinds = {DATATYPE_INFO.get(d, ("derived", 0))[0] for d in dtypes}
            sizes = {DATATYPE_INFO.get(d, ("derived", 0))[1] for d in dtypes}
            if len(kinds) > 1 or len(sizes) > 1:
                for ctx in ctxs:
                    self._event("parameter_matching", ctx.rank, name,
                                f"mismatched datatypes {sorted(dtypes)}")
        if info and "op" in info.roles:
            ops = {int(c.args[info.roles["op"]]) for c in colls}
            if len(ops) > 1:
                for ctx in ctxs:
                    self._event("parameter_matching", ctx.rank, name,
                                f"mismatched reduce ops {sorted(ops)}")
        counts = {c.count for c in colls if info and "count" in info.roles}
        if len(counts) > 1:
            for ctx in ctxs:
                self._event("parameter_matching", ctx.rank, name,
                            f"mismatched counts {sorted(counts)}")

        self._apply_collective_data(name, members, ctxs, colls)
        for ctx, coll in zip(ctxs, colls):
            if info and info.call_class is CallClass.NB_COLLECTIVE \
                    and "request" in info.roles:
                req = Request(handle=self._fresh_handle(), rank=ctx.rank,
                              kind="coll", active=True, complete=True)
                ctx.requests[req.handle] = req
                addr = int(coll.args[info.roles["request"]])
                if addr:
                    ctx.vm.memory.cells[addr] = req.handle
            self._complete(ctx)

    def _apply_collective_data(self, name: str, members: List[int],
                               ctxs: List[_Rank], colls: List[Collective]) -> None:
        info = MPI_FUNCTIONS.get(name)
        if info is None:
            return
        roles = info.roles
        by_rank = {ctx.rank: (ctx, coll) for ctx, coll in zip(ctxs, colls)}
        base = name.replace("MPI_I", "MPI_")
        if base in ("MPI_Bcast", "MPI_Ibcast") or name in ("MPI_Bcast", "MPI_Ibcast"):
            root_world = members[colls[0].root] if 0 <= colls[0].root < len(members) \
                else members[0]
            if root_world in by_rank:
                rctx, rcoll = by_rank[root_world]
                payload = self._read_buffer(rctx, int(rcoll.args[roles["buf"]]),
                                            rcoll.count)
                for ctx, coll in zip(ctxs, colls):
                    if ctx.rank != root_world:
                        self._write_buffer(ctx, int(coll.args[roles["buf"]]), payload)
            return
        if base in ("MPI_Scatter", "MPI_Scatterv"):
            # Scatter distributes slices of the *root's* send buffer: every
            # rank receives exactly ``count`` elements.  (Found by the fuzz
            # harness: the generic gather-like path below used to write the
            # whole nprocs*count concatenation into the root's count-sized
            # receive buffer, overflowing into adjacent locals.)
            root_world = members[colls[0].root] \
                if 0 <= colls[0].root < len(members) else members[0]
            if root_world in by_rank and "recvbuf" in roles:
                rctx, rcoll = by_rank[root_world]
                payload = self._read_buffer(
                    rctx, int(rcoll.args[roles["buf"]]),
                    rcoll.count * len(members))
                for slot, member in enumerate(members):
                    if member not in by_rank:
                        continue
                    ctx, coll = by_rank[member]
                    slice_ = payload[slot * coll.count:
                                     (slot + 1) * coll.count]
                    self._write_buffer(ctx, int(coll.args[roles["recvbuf"]]),
                                       slice_)
            return
        if "recvbuf" in roles and "buf" in roles:
            reduce_like = "op" in roles
            gathers = [self._read_buffer(ctx, int(coll.args[roles["buf"]]), coll.count)
                       for ctx, coll in zip(ctxs, colls)]
            if reduce_like:
                length = max((len(g) for g in gathers), default=0)
                acc = [0] * length
                for g in gathers:
                    for i, v in enumerate(g):
                        try:
                            acc[i] += v
                        except TypeError:
                            acc[i] = v
                targets = ctxs
                if "root" in roles:
                    root_world = members[colls[0].root] \
                        if 0 <= colls[0].root < len(members) else members[0]
                    targets = [c for c in ctxs if c.rank == root_world]
                for ctx in targets:
                    coll = by_rank[ctx.rank][1]
                    self._write_buffer(ctx, int(coll.args[roles["recvbuf"]]), acc)
            else:
                flat: List[object] = []
                for g in gathers:
                    flat.extend(g)
                targets = ctxs
                if "root" in roles:
                    root_world = members[colls[0].root] \
                        if 0 <= colls[0].root < len(members) else members[0]
                    targets = [c for c in ctxs if c.rank == root_world]
                for ctx in targets:
                    coll = by_rank[ctx.rank][1]
                    self._write_buffer(ctx, int(coll.args[roles["recvbuf"]]), flat)

    # ------------------------------------------------------------------ checks
    def _check_buffer_access(self, ctx: _Rank, addr: int, write: bool) -> None:
        for req in ctx.requests.values():
            if not req.active or req.complete or req.freed:
                continue
            if req.buf <= addr < req.buf + max(1, req.count):
                if req.kind == "recv" or write:
                    self._event("local_concurrency", ctx.rank,
                                "load/store",
                                "access to buffer of pending nonblocking operation")
        # Window exposure tracking for RMA epochs.
        if write:
            for win in self.windows.values():
                base = win.bases.get(ctx.rank)
                if base is None or win.freed:
                    continue
                size = win.sizes.get(ctx.rank, 0)
                if base <= addr < base + max(1, size) \
                        and win.epoch.get(ctx.rank, "none") != "none":
                    win.local_writes.append((ctx.rank, addr, win.fence_round))

    def _leak_scan(self, ctx: _Rank, at_finalize: bool) -> None:
        for req in ctx.requests.values():
            if req.freed:
                continue
            if req.active:
                # Posted but never retired by Wait/Test — even if the data
                # transfer finished eagerly, the request was never completed.
                self._event("request_lifecycle", ctx.rank, "MPI_Finalize",
                            "request never completed (missing wait)")
            else:
                self._event("resource_leak", ctx.rank, "MPI_Finalize",
                            "request handle never freed")
        for kind, count in ctx.leak_handles.items():
            if count > 0:
                self._event("resource_leak", ctx.rank, "MPI_Finalize",
                            f"{count} {kind} handle(s) never freed")


def simulate(module: Module, nprocs: int = 2, **kwargs) -> SimReport:
    """Convenience wrapper: run one simulation and return its report."""
    return MPISimulator(module, nprocs, **kwargs).run()
