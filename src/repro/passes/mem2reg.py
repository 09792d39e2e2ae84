"""mem2reg: promote entry-block allocas to SSA registers.

The standard LLVM algorithm: compute iterated dominance frontiers of the
store blocks, insert (liveness-pruned) phi nodes, then rename via a DFS
over the dominator tree.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.analysis import (
    compute_dominators,
    dominance_frontiers,
    predecessor_map,
    reachable_blocks,
)
from repro.ir.instructions import AllocaInst, LoadInst, PhiInst, StoreInst
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import UndefValue, Value


def _is_promotable(alloca: AllocaInst) -> bool:
    if alloca.array_size is not None:
        return False
    if alloca.allocated_type.is_aggregate:
        return False
    for user in alloca.uses:
        if isinstance(user, LoadInst):
            continue
        if isinstance(user, StoreInst) and user.pointer is alloca and user.value is not alloca:
            continue
        return False
    return True


def promote_memory_to_registers(module: Module) -> int:
    """Run mem2reg on every defined function; returns promoted-slot count."""
    total = 0
    for fn in module.defined_functions():
        total += _promote_function(fn)
    return total


def _promote_function(fn: Function) -> int:
    reachable = reachable_blocks(fn)
    reachable_set = set(id(b) for b in reachable)
    allocas = [
        inst for inst in fn.entry.instructions
        if isinstance(inst, AllocaInst) and _is_promotable(inst)
    ]
    if not allocas:
        return 0

    preds = predecessor_map(fn)
    idom = compute_dominators(fn, preds)
    frontiers = dominance_frontiers(fn, preds)

    # Dominator-tree children.
    children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in reachable}
    for block, parent in idom.items():
        if parent is not None:
            children[parent].append(block)

    phi_owner: Dict[PhiInst, AllocaInst] = {}

    for alloca in allocas:
        def_blocks: Set[BasicBlock] = set()
        use_blocks: Set[BasicBlock] = set()
        for user in alloca.uses:
            if user.parent is None or id(user.parent) not in reachable_set:
                continue
            if isinstance(user, StoreInst):
                def_blocks.add(user.parent)
            else:
                use_blocks.add(user.parent)

        live_in = _live_in_blocks(alloca, def_blocks, use_blocks, preds)

        # Iterated dominance frontier, pruned by liveness.
        worklist = list(def_blocks)
        has_phi: Set[BasicBlock] = set()
        while worklist:
            block = worklist.pop()
            for frontier_block in frontiers.get(block, ()):
                if frontier_block in has_phi or frontier_block not in live_in:
                    continue
                phi = PhiInst(alloca.allocated_type, fn.unique_name("phi"))
                frontier_block.insert_front(phi)
                phi_owner[phi] = alloca
                has_phi.add(frontier_block)
                if frontier_block not in def_blocks:
                    worklist.append(frontier_block)

    # Rename along the dominator tree (iterative DFS to avoid recursion limits).
    promotable = set(allocas)
    incoming: Dict[AllocaInst, Value] = {}
    stack = [(fn.entry, incoming)]
    while stack:
        block, values = stack.pop()
        values = dict(values)
        for inst in list(block.instructions):
            if isinstance(inst, PhiInst) and inst in phi_owner:
                values[phi_owner[inst]] = inst
            elif isinstance(inst, LoadInst) and isinstance(inst.pointer, AllocaInst) \
                    and inst.pointer in promotable:
                alloca = inst.pointer
                current = values.get(alloca)
                if current is None:
                    current = UndefValue(alloca.allocated_type)
                inst.replace_all_uses_with(current)
                inst.erase()
            elif isinstance(inst, StoreInst) and isinstance(inst.pointer, AllocaInst) \
                    and inst.pointer in promotable:
                values[inst.pointer] = inst.value
                inst.erase()
        for succ in block.successors():
            for phi in succ.phis():
                alloca = phi_owner.get(phi)
                if alloca is None:
                    continue
                value = values.get(alloca)
                if value is None:
                    value = UndefValue(alloca.allocated_type)
                phi.add_incoming(value, block)
        for child in children.get(block, ()):
            stack.append((child, values))

    # Remove the now-dead allocas.
    promoted = 0
    for alloca in allocas:
        if not alloca.uses:
            alloca.erase()
            promoted += 1

    _prune_dead_phis(fn, phi_owner)
    return promoted


def _live_in_blocks(alloca: AllocaInst, def_blocks: Set[BasicBlock],
                    use_blocks: Set[BasicBlock],
                    preds: Dict[BasicBlock, List[BasicBlock]],
                    ) -> Set[BasicBlock]:
    """Blocks where the alloca's value is live on entry (LLVM-style)."""
    worklist: List[BasicBlock] = []
    for block in use_blocks:
        # Upward-exposed load: a load before any store in the same block.
        exposed = False
        for inst in block.instructions:
            if isinstance(inst, StoreInst) and inst.pointer is alloca:
                break
            if isinstance(inst, LoadInst) and inst.pointer is alloca:
                exposed = True
                break
        if exposed:
            worklist.append(block)
    live: Set[BasicBlock] = set()
    while worklist:
        block = worklist.pop()
        if block in live:
            continue
        live.add(block)
        for pred in preds.get(block, ()):
            if pred in def_blocks:
                continue
            if pred not in live:
                worklist.append(pred)
    return live


def _prune_dead_phis(fn: Function, phi_owner: Dict[PhiInst, "AllocaInst"]) -> None:
    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            for phi in list(block.phis()):
                if phi not in phi_owner:
                    continue
                users = [u for u in phi.uses if u is not phi]
                if not users:
                    phi.erase()
                    changed = True
