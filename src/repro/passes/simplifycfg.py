"""CFG simplification: unreachable-block removal, block merging, and
branch threading through empty forwarding blocks."""

from __future__ import annotations

from repro.ir.analysis import reachable_blocks
from repro.ir.instructions import BranchInst, CondBranchInst
from repro.ir.module import Function, Module


def remove_unreachable_blocks(fn: Function) -> bool:
    reachable = set(id(b) for b in reachable_blocks(fn))
    dead = [b for b in fn.blocks if id(b) not in reachable]
    if not dead:
        return False
    dead_ids = set(id(b) for b in dead)
    for block in fn.blocks:
        if id(block) in dead_ids:
            continue
        for phi in block.phis():
            for pred in list(phi.incoming_blocks):
                if id(pred) in dead_ids:
                    phi.remove_incoming_for(pred)
    for block in dead:
        for inst in list(block.instructions):
            inst.erase()
        fn.remove_block(block)
    return True


def _merge_single_successor(fn: Function) -> bool:
    """Merge B into A when A→B is the only edge in and out."""
    for block in fn.blocks:
        term = block.terminator
        if not isinstance(term, BranchInst):
            continue
        succ = term.target
        if succ is block or succ is fn.entry:
            continue
        preds = succ.predecessors()
        if len(preds) != 1 or preds[0] is not block:
            continue
        if succ.phis():
            for phi in list(succ.phis()):
                # Single predecessor: the phi is trivial.
                value = phi.incoming[0][0]
                phi.replace_all_uses_with(value)
                phi.erase()
        term.erase()
        for inst in list(succ.instructions):
            succ.instructions.remove(inst)
            inst.parent = block
            block.instructions.append(inst)
        # Rewire successors' phis to refer to the merged block.
        for nxt in block.successors():
            for phi in nxt.phis():
                phi.incoming_blocks = [
                    block if b is succ else b for b in phi.incoming_blocks
                ]
        fn.remove_block(succ)
        return True
    return False


def _thread_forwarding_blocks(fn: Function) -> bool:
    """Retarget edges that go through a block containing only ``br``."""
    changed = False
    for block in list(fn.blocks):
        if block is fn.entry or len(block.instructions) != 1:
            continue
        term = block.terminator
        if not isinstance(term, BranchInst):
            continue
        target = term.target
        if target is block or target.phis():
            continue
        preds = block.predecessors()
        if not preds:
            continue
        ok = True
        for pred in preds:
            pterm = pred.terminator
            if isinstance(pterm, CondBranchInst):
                # Avoid introducing duplicate edges that would confuse phis.
                existing = (pterm.true_block, pterm.false_block)
                replacement = tuple(
                    target if b is block else b for b in existing
                )
                if replacement[0] is replacement[1] and target.phis():
                    ok = False
        if not ok:
            continue
        for pred in preds:
            pterm = pred.terminator
            if isinstance(pterm, BranchInst) and pterm.target is block:
                pterm.target = target
            elif isinstance(pterm, CondBranchInst):
                if pterm.true_block is block:
                    pterm.true_block = target
                if pterm.false_block is block:
                    pterm.false_block = target
        changed = True
    return changed


def simplify_cfg(module: Module) -> int:
    """Returns the number of simplification rounds that changed something."""
    rounds = 0
    for fn in module.defined_functions():
        changed = True
        while changed:
            changed = False
            if remove_unreachable_blocks(fn):
                changed = True
            if _thread_forwarding_blocks(fn):
                changed = True
                remove_unreachable_blocks(fn)
            if _merge_single_successor(fn):
                changed = True
            if changed:
                rounds += 1
    return rounds
