"""Dead code elimination: drop unused, side-effect-free instructions."""

from __future__ import annotations

from repro.ir.instructions import Instruction, PhiInst
from repro.ir.module import Module


def _is_trivially_dead(inst: Instruction) -> bool:
    if inst.uses:
        return False
    if inst.is_terminator or inst.has_side_effects:
        return False
    # Loads are removable when unused (no volatile support in this IR).
    return True


def eliminate_dead_code(module: Module) -> int:
    removed = 0
    for fn in module.defined_functions():
        changed = True
        while changed:
            changed = False
            for block in fn.blocks:
                for inst in reversed(list(block.instructions)):
                    if isinstance(inst, PhiInst):
                        users = [u for u in inst.uses if u is not inst]
                        if users:
                            continue
                        inst.erase()
                        removed += 1
                        changed = True
                    elif _is_trivially_dead(inst):
                        inst.erase()
                        removed += 1
                        changed = True
    return removed


def remove_dead_functions(module: Module, keep=("main",)) -> int:
    """Drop defined functions that are never referenced (−Os shrink step)."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for name, fn in list(module.functions.items()):
            if name in keep or fn.is_declaration:
                continue
            if not fn.uses:
                for block in fn.blocks:
                    for inst in list(block.instructions):
                        inst.erase()
                del module.functions[name]
                removed += 1
                changed = True
    return removed
