"""Inverse mutation operators — candidate patches from program text.

Each bug injector in :mod:`repro.datasets.mutation` leaves a syntactic
signature behind: ``drop_call`` a ``/* call removed by mutation */``
marker (whose single-line rank guard survives the deletion),
``invalid_count`` a ``-1`` count, ``invalid_rank`` a ``9999`` peer,
``root_divergence`` a literal ``rank`` root, ``detach_wait`` an
``MPI_Isend`` completed by nobody with a telltale ``&mut_req`` last
argument, and the matching perturbations (``tag_mismatch``,
``datatype_mismatch``) a send/recv pair whose envelopes disagree.  The
rules here invert those signatures: every rule scans the source with the
same single-statement-per-line parser the mutators use
(:func:`repro.datasets.mutation.find_mpi_calls`) and proposes candidate
sources, each a single textual edit of the input.

Proposals are *candidates*, not repairs: nothing here runs an oracle.
The validation gate (:mod:`repro.repair.gate`) decides.  Rules are
therefore free to over-propose — e.g. aligning a mismatched tag in both
directions — as long as candidate lists stay small and deterministic:
same source (and hint) ⇒ same candidates in the same order, so corpus
repairs are reproducible across worker counts.

Localization hooks: the originating mutation operator's name (recovered
from a fuzz ``origin`` of the form ``...|mutated:<op>``) moves that
operator's rules to the front, and
:class:`~repro.verify.static.StaticFinding` rows (whose ``call`` names
the flagged callee) stably rank candidates editing a flagged call first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.datasets.mutation import (
    _ARG_SLOTS,
    _DATATYPES,
    MPICall,
    _ArgSlots,
    _replace_span,
    find_mpi_calls,
)
from repro.obs.trace import TRACER

#: Comment the ``drop_call`` mutator leaves where a statement used to be.
DROP_MARKER = "/* call removed by mutation */"
#: Comment our orphan-deletion rule leaves, so a repaired source still
#: tells its own story (and never re-matches :data:`DROP_MARKER`).
REPAIR_MARKER = "/* call removed by repair */"

_GUARD_RE = re.compile(r"if\s*\(\s*rank\s*==\s*(\d+)\s*\)")
#: A drop-site line: same prefix/suffix shape as the mutators'
#: ``_CALL_RE``, with the marker comment where the call was.
_MARKER_RE = re.compile(
    r"^([ \t]*(?:if[ \t]*\([^)\n]*\)[ \t]*\{[ \t]*)?)"
    + re.escape(DROP_MARKER)
    + r"([ \t]*\}?[ \t]*)$",
    re.MULTILINE)
_STATUS_DECL_RE = re.compile(r"\bMPI_Status\s+([A-Za-z_]\w*)\s*;")
_ARRAY_DECL_RE = re.compile(
    r"\b(int|float|double|long|char)\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]")

_CTYPE_TO_MPI = {"int": "MPI_INT", "float": "MPI_FLOAT",
                 "double": "MPI_DOUBLE", "long": "MPI_LONG",
                 "char": "MPI_CHAR"}
_MPI_TO_CTYPE = {v: k for k, v in _CTYPE_TO_MPI.items()}

_SEND_NAMES = ("MPI_Send", "MPI_Ssend", "MPI_Rsend", "MPI_Bsend",
               "MPI_Isend", "MPI_Issend")
_RECV_NAMES = ("MPI_Recv", "MPI_Irecv")


@dataclass(frozen=True)
class CandidatePatch:
    """One proposed repair: a whole replacement source plus provenance."""

    operator: str        # inverse-rule name, e.g. "restore_dropped_call"
    note: str            # human-readable one-liner of the edit
    source: str          # full candidate program text
    call: str = ""       # MPI callee the edit touches (finding ranking)


@dataclass
class _Site:
    """One parsed MPI call with its argument slots and rank guard."""

    call: MPICall
    slots: _ArgSlots
    guard: Optional[int]     # ``if (rank == N)`` single-line guard, if any

    def arg(self, field: str) -> Optional[str]:
        idx = getattr(self.slots, field)
        if 0 <= idx < len(self.call.args):
            return self.call.args[idx]
        return None


def _sites(source: str) -> List[_Site]:
    out: List[_Site] = []
    for call in find_mpi_calls(source):
        m = _GUARD_RE.search(call.indent)
        out.append(_Site(call, _ARG_SLOTS.get(call.name, _ArgSlots()),
                         int(m.group(1)) if m else None))
    return out


def _int_or_none(text: Optional[str]) -> Optional[int]:
    if text is not None and text.lstrip("-").isdigit():
        return int(text)
    return None


def _with_arg(source: str, site: _Site, slot: int, value: str,
              rule: str, note: str) -> CandidatePatch:
    """Candidate = ``source`` with one argument of one call rewritten."""
    call = site.call
    args = list(call.args)
    args[slot] = value
    new = MPICall(name=call.name, indent=call.indent, args=args,
                  start=call.start, end=call.end, suffix=call.suffix)
    return CandidatePatch(rule, note, _replace_span(source, call,
                                                    new.render()),
                          call=call.name)


def _pair_p2p(sites: Sequence[_Site], *, require_tag: bool = True,
              ) -> Tuple[List[Tuple[_Site, _Site]], List[_Site]]:
    """Greedy send↔recv pairing on complementary guard/peer envelopes.

    A send under ``if (rank == A)`` with peer ``B`` pairs with a recv
    under ``if (rank == B)`` with peer ``A`` (tags equal too unless
    ``require_tag`` is off — the tag-repair rule pairs *despite* the
    mismatch it is trying to fix).  Returns (pairs, unmatched p2p sites).
    """
    sends = [s for s in sites if s.call.name in _SEND_NAMES
             and s.slots.peer >= 0]
    recvs = [s for s in sites if s.call.name in _RECV_NAMES
             and s.slots.peer >= 0]
    used: set = set()
    pairs: List[Tuple[_Site, _Site]] = []
    unmatched: List[_Site] = []
    for send in sends:
        peer = _int_or_none(send.arg("peer"))
        hit = None
        for j, recv in enumerate(recvs):
            if j in used:
                continue
            if recv.guard is None or send.guard is None:
                continue
            if peer != recv.guard:
                continue
            if _int_or_none(recv.arg("peer")) != send.guard:
                continue
            if require_tag and send.arg("tag") != recv.arg("tag"):
                continue
            hit = j
            break
        if hit is None:
            unmatched.append(send)
        else:
            used.add(hit)
            pairs.append((send, recvs[hit]))
    unmatched.extend(r for j, r in enumerate(recvs) if j not in used)
    return pairs, unmatched


def _buffer_decls(source: str) -> List[Tuple[str, str, int]]:
    """``(ctype, name, extent)`` for every array declaration."""
    return [(c, n, int(e)) for c, n, e in _ARRAY_DECL_RE.findall(source)]


def _buffer_of(site: _Site) -> str:
    args = site.call.args
    return args[0].lstrip("&") if args else ""


# ---------------------------------------------------------------------------
# Inverse rules.  Each: (source, nprocs) -> [CandidatePatch].
# ---------------------------------------------------------------------------

def inv_detach_wait(source: str, nprocs: int) -> List[CandidatePatch]:
    """Complete (or re-block) an ``MPI_Isend`` detached by mutation."""
    out: List[CandidatePatch] = []
    status = _STATUS_DECL_RE.search(source)
    for site in _sites(source):
        call = site.call
        if call.name not in ("MPI_Isend", "MPI_Issend") or not call.args:
            continue
        if call.args[-1] != "&mut_req":
            continue
        blocking = "MPI_Send" if call.name == "MPI_Isend" else "MPI_Ssend"
        restored = MPICall(name=blocking, indent=call.indent,
                           args=call.args[:-1], start=call.start,
                           end=call.end, suffix=call.suffix)
        src = _replace_span(source, call, restored.render())
        # The mutator declared the request next to MPI_Init; retire it.
        src = src.replace("  MPI_Request mut_req;\n", "", 1)
        out.append(CandidatePatch(
            "restore_blocking_send",
            f"{call.name} -> {blocking}, request declaration removed",
            src, call=call.name))
        if status is not None:
            text = (f"{call.indent}{call.name}({', '.join(call.args)}); "
                    f"MPI_Wait(&mut_req, &{status.group(1)});{call.suffix}")
            out.append(CandidatePatch(
                "complete_request",
                f"MPI_Wait(&mut_req, ...) appended after {call.name}",
                _replace_span(source, call, text), call=call.name))
    return out


def inv_drop_call(source: str, nprocs: int) -> List[CandidatePatch]:
    """Rebuild a dropped call at its marker, or delete its orphan.

    The drop marker keeps the victim's single-line rank guard, so the
    executing rank of the lost call is known; the surviving half of the
    pair supplies the envelope (count, datatype, tag) to mirror back.
    Failing that, deleting the orphaned counterpart restores matching.
    """
    out: List[CandidatePatch] = []
    sites = _sites(source)
    _pairs, orphans = _pair_p2p(sites)
    decls = _buffer_decls(source)
    status = _STATUS_DECL_RE.search(source)
    for marker in _MARKER_RE.finditer(source):
        prefix, suffix = marker.group(1), marker.group(2)
        gm = _GUARD_RE.search(prefix)
        guard = int(gm.group(1)) if gm else None
        for orphan in orphans:
            if orphan.guard is None:
                continue
            peer = _int_or_none(orphan.arg("peer"))
            if peer is None or (guard is not None and peer != guard):
                continue
            mirrored = _mirror_statement(orphan, decls, status)
            if mirrored is None:
                continue
            name = mirrored.split("(", 1)[0]
            src = source[:marker.start()] + prefix + mirrored + suffix \
                + source[marker.end():]
            out.append(CandidatePatch(
                "restore_dropped_call",
                f"rebuilt {name} at the drop site to match "
                f"{orphan.call.name}", src, call=name))
    for orphan in orphans:
        call = orphan.call
        src = _replace_span(source, call,
                            f"{call.indent}{REPAIR_MARKER}{call.suffix}")
        out.append(CandidatePatch(
            "remove_orphan", f"removed unmatched {call.name}", src,
            call=call.name))
    return out


def _mirror_statement(orphan: _Site, decls: Sequence[Tuple[str, str, int]],
                      status: Optional[re.Match]) -> Optional[str]:
    """The statement that would complete ``orphan``'s rendezvous."""
    count = orphan.arg("count")
    dtype = orphan.arg("datatype")
    tag = orphan.arg("tag")
    if None in (count, dtype, tag) or orphan.guard is None:
        return None
    # Prefer a distinct same-shape buffer (the dropped call's own buffer
    # usually still sits among the declarations); fall back to sharing
    # the orphan's — distinct ranks, so no aliasing at runtime.
    own = _buffer_of(orphan)
    want_ctype = _MPI_TO_CTYPE.get(dtype)
    extent = _int_or_none(count)
    buf = own
    for ctype, bname, ext in decls:
        if bname != own and ctype == want_ctype and ext == extent:
            buf = bname
            break
    if orphan.call.name in _RECV_NAMES:
        return (f"MPI_Send({buf}, {count}, {dtype}, {orphan.guard}, "
                f"{tag}, MPI_COMM_WORLD);")
    if status is None:
        return None
    return (f"MPI_Recv({buf}, {count}, {dtype}, {orphan.guard}, {tag}, "
            f"MPI_COMM_WORLD, &{status.group(1)});")


def inv_tag_mismatch(source: str, nprocs: int) -> List[CandidatePatch]:
    """Undo a +100 tag bump; align tags across a matched pair."""
    out: List[CandidatePatch] = []
    sites = [s for s in _sites(source)
             if s.slots.tag >= 0 and _int_or_none(s.arg("tag")) is not None]
    for site in sites:
        tag = _int_or_none(site.arg("tag"))
        if tag is not None and tag >= 100:    # generated tags live in [0,100)
            out.append(_with_arg(source, site, site.slots.tag,
                                 str(tag - 100), "restore_tag",
                                 f"tag {tag} -> {tag - 100} on "
                                 f"{site.call.name}"))
    pairs, _ = _pair_p2p(sites, require_tag=False)
    for send, recv in pairs:
        stag, rtag = send.arg("tag"), recv.arg("tag")
        if stag == rtag:
            continue
        out.append(_with_arg(source, send, send.slots.tag, rtag,
                             "align_tag",
                             f"{send.call.name} tag {stag} -> {rtag}"))
        out.append(_with_arg(source, recv, recv.slots.tag, stag,
                             "align_tag",
                             f"{recv.call.name} tag {rtag} -> {stag}"))
    return out


def inv_datatype_mismatch(source: str, nprocs: int) -> List[CandidatePatch]:
    """Re-type a call from its buffer declaration or its counterpart."""
    out: List[CandidatePatch] = []
    decls = {name: ctype for ctype, name, _e in _buffer_decls(source)}
    sites = [s for s in _sites(source)
             if s.slots.datatype >= 0 and s.arg("datatype") in _DATATYPES]
    for site in sites:
        # (a) the buffer's declared C type is ground truth the mutator
        # could not touch.
        have = site.arg("datatype")
        want = _CTYPE_TO_MPI.get(decls.get(_buffer_of(site), ""))
        if want and want != have:
            out.append(_with_arg(source, site, site.slots.datatype, want,
                                 "retype_from_decl",
                                 f"{site.call.name} {have} -> {want} "
                                 f"(buffer declaration)"))
        # (b) sendtype/recvtype of one collective must agree.
        dt_slots = [i for i, a in enumerate(site.call.args)
                    if a in _DATATYPES]
        if len(dt_slots) == 2:
            a, b = dt_slots
            va, vb = site.call.args[a], site.call.args[b]
            if va != vb:
                out.append(_with_arg(source, site, a, vb, "align_datatype",
                                     f"{site.call.name} {va} -> {vb}"))
                out.append(_with_arg(source, site, b, va, "align_datatype",
                                     f"{site.call.name} {vb} -> {va}"))
    # (c) both halves of a matched transfer must agree.
    pairs, _ = _pair_p2p(sites)
    for send, recv in pairs:
        sdt, rdt = send.arg("datatype"), recv.arg("datatype")
        if sdt == rdt:
            continue
        out.append(_with_arg(source, send, send.slots.datatype, rdt,
                             "align_datatype",
                             f"{send.call.name} {sdt} -> {rdt}"))
        out.append(_with_arg(source, recv, recv.slots.datatype, sdt,
                             "align_datatype",
                             f"{recv.call.name} {rdt} -> {sdt}"))
    return out


def inv_invalid_count(source: str, nprocs: int) -> List[CandidatePatch]:
    """Replace a negative count from the evidence the program carries."""
    out: List[CandidatePatch] = []
    sites = _sites(source)
    decls = _buffer_decls(source)
    pairs, _ = _pair_p2p(sites)
    partner = {id(s.call): r for s, r in pairs}
    partner.update({id(r.call): s for s, r in pairs})
    for site in sites:
        cur = _int_or_none(site.arg("count"))
        if site.slots.count < 0 or cur is None or cur >= 0:
            continue
        values: List[str] = []
        for ctype, bname, extent in decls:       # the buffer's own extent
            if bname == _buffer_of(site):
                values.append(str(extent))
        other = partner.get(id(site.call))       # the counterpart's count
        if other is not None:
            mate = _int_or_none(other.arg("count"))
            if mate is not None and mate > 0:
                values.append(str(mate))
        for i, arg in enumerate(site.call.args):  # paired count in-call
            n = _int_or_none(arg)
            if i != site.slots.count and i != site.slots.root \
                    and i != site.slots.peer and i != site.slots.tag \
                    and n is not None and n > 0:
                values.append(str(n))
        values.append("1")                        # always-legal fallback
        seen: set = set()
        for value in values:
            if value in seen:
                continue
            seen.add(value)
            out.append(_with_arg(source, site, site.slots.count, value,
                                 "restore_count",
                                 f"{site.call.name} count {cur} -> "
                                 f"{value}"))
    return out


def inv_invalid_rank(source: str, nprocs: int) -> List[CandidatePatch]:
    """Re-aim a peer rank that points outside the communicator."""
    out: List[CandidatePatch] = []
    sites = _sites(source)
    guards = sorted({s.guard for s in sites if s.guard is not None})
    for site in sites:
        peer = _int_or_none(site.arg("peer"))
        if site.slots.peer < 0 or peer is None:
            continue
        if 0 <= peer < nprocs:
            continue
        ranks: List[int] = []
        # The counterpart still aims at this call's own rank; its guard
        # is where our peer should point.
        for other in sites:
            if other is site or other.slots.peer < 0:
                continue
            if _int_or_none(other.arg("peer")) == site.guard \
                    and other.arg("tag") == site.arg("tag") \
                    and other.guard is not None:
                ranks.append(other.guard)
        ranks.extend(g for g in guards if g != site.guard)
        ranks.extend(r for r in range(nprocs) if r != site.guard)
        seen: set = set()
        for rank in ranks:
            if rank in seen or not 0 <= rank < nprocs:
                continue
            seen.add(rank)
            out.append(_with_arg(source, site, site.slots.peer, str(rank),
                                 "restore_peer",
                                 f"{site.call.name} peer {peer} -> "
                                 f"{rank}"))
    return out


def inv_root_divergence(source: str, nprocs: int) -> List[CandidatePatch]:
    """Pin a rank-dependent collective root back to a constant."""
    out: List[CandidatePatch] = []
    sites = _sites(source)
    sibling_roots = sorted({r for r in
                            (_int_or_none(s.arg("root")) for s in sites)
                            if r is not None and 0 <= r < nprocs})
    for site in sites:
        root = site.arg("root")
        if site.slots.root < 0 or root is None:
            continue
        if _int_or_none(root) is not None:
            continue                       # already constant
        roots = sibling_roots + [r for r in range(nprocs)
                                 if r not in sibling_roots]
        for value in roots:
            out.append(_with_arg(source, site, site.slots.root, str(value),
                                 "restore_root",
                                 f"{site.call.name} root {root!r} -> "
                                 f"{value}"))
    return out


#: Inverse rules keyed by the mutation operator they undo — same keys as
#: :data:`repro.datasets.mutation.OPERATORS`, same stable order.
INVERSE_RULES: Dict[str, Tuple] = {
    "drop_call": (inv_drop_call,),
    "tag_mismatch": (inv_tag_mismatch,),
    "datatype_mismatch": (inv_datatype_mismatch,),
    "invalid_count": (inv_invalid_count,),
    "invalid_rank": (inv_invalid_rank,),
    "root_divergence": (inv_root_divergence,),
    "detach_wait": (inv_detach_wait,),
}


def propose(source: str, nprocs: int = 3, hint: Optional[str] = None,
            findings: Iterable = ()) -> List[CandidatePatch]:
    """All candidate patches for ``source``, deduplicated, in gate order.

    ``hint`` (a mutation operator name, e.g. recovered from a fuzz
    origin) moves that operator's inverse rules to the front;
    ``findings`` (:class:`~repro.verify.static.StaticFinding` rows)
    stably rank candidates that edit a flagged call ahead of the rest.
    """
    with TRACER.stage("propose"):
        order = list(INVERSE_RULES)
        if hint in INVERSE_RULES:
            order.remove(hint)
            order.insert(0, hint)
        seen = {source}
        out: List[CandidatePatch] = []
        for op in order:
            for rule in INVERSE_RULES[op]:
                for cand in rule(source, nprocs):
                    if cand.source in seen:
                        continue
                    seen.add(cand.source)
                    out.append(cand)
        flagged = {getattr(f, "call", "") for f in findings} - {""}
        if flagged:
            out.sort(key=lambda c: 0 if c.call in flagged else 1)
        return out
