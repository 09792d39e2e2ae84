"""ProGraML program graphs (Cummins et al., ICML'21), as used by the paper.

One unified graph per module with three node types and three edge types:

* nodes — ``control`` (instructions), ``variable`` (SSA values/arguments/
  globals), ``constant`` (literals);
* edges — ``control`` (instruction ordering + branch targets), ``data``
  (def→use and use→def through variable/constant nodes), ``call``
  (call site → callee entry, callee return → call site).

Node *text* follows ProGraML: instructions carry their opcode (calls to
external functions carry the callee identity, which is how MPI call
information reaches the GNN), variables/constants carry their type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.embeddings.triplets import abstract_type
from repro.ir.instructions import CallInst, Instruction
from repro.ir.module import Function, Module
from repro.ir.values import (
    Argument,
    Constant,
    ConstantString,
    GlobalVariable,
    UndefValue,
    Value,
)
from repro.obs.trace import TRACER

NODE_TYPES = ("control", "variable", "constant")
EDGE_TYPES = ("control", "data", "call")


@dataclass
class ProgramGraph:
    """Edge-list representation ready for batching into the GNN."""

    node_text: List[str] = field(default_factory=list)
    node_type: List[int] = field(default_factory=list)       # index in NODE_TYPES
    edges: Dict[str, List[Tuple[int, int]]] = field(
        default_factory=lambda: {t: [] for t in EDGE_TYPES})

    @property
    def num_nodes(self) -> int:
        return len(self.node_text)

    def add_node(self, text: str, ntype: str) -> int:
        self.node_text.append(text)
        self.node_type.append(NODE_TYPES.index(ntype))
        return len(self.node_text) - 1

    def add_edge(self, etype: str, src: int, dst: int) -> None:
        self.edges[etype].append((src, dst))

    def edge_array(self, etype: str) -> np.ndarray:
        pairs = self.edges[etype]
        if not pairs:
            return np.zeros((2, 0), dtype=np.int64)
        return np.asarray(pairs, dtype=np.int64).T


def _instruction_text(inst: Instruction) -> str:
    if isinstance(inst, CallInst):
        return f"call:{inst.callee_name}"
    return inst.opcode


def build_program_graph(module: Module) -> ProgramGraph:
    with TRACER.stage("graph"):
        return _build_program_graph(module)


def _build_program_graph(module: Module) -> ProgramGraph:
    graph = ProgramGraph()
    inst_node: Dict[int, int] = {}
    value_node: Dict[int, int] = {}
    fn_entry_node: Dict[str, int] = {}
    fn_return_nodes: Dict[str, List[int]] = {}

    def data_node(value: Value) -> int:
        key = id(value)
        if key in value_node:
            return value_node[key]
        if isinstance(value, ConstantString):
            node = graph.add_node("const:string", "constant")
        elif isinstance(value, Constant):
            node = graph.add_node(f"const:{abstract_type(value.type)}", "constant")
        elif isinstance(value, UndefValue):
            node = graph.add_node("const:undef", "constant")
        elif isinstance(value, (Argument, GlobalVariable)):
            node = graph.add_node(f"var:{abstract_type(value.type)}", "variable")
        else:
            node = graph.add_node(f"var:{abstract_type(value.type)}", "variable")
        value_node[key] = node
        return node

    # Pass 1: instruction (control) nodes.
    for fn in module.defined_functions():
        returns: List[int] = []
        for bi, block in enumerate(fn.blocks):
            for pos, inst in enumerate(block.instructions):
                node = graph.add_node(_instruction_text(inst), "control")
                inst_node[id(inst)] = node
                if fn.name not in fn_entry_node and bi == 0 and pos == 0:
                    fn_entry_node[fn.name] = node
                if inst.opcode == "ret":
                    returns.append(node)
        fn_return_nodes[fn.name] = returns

    # Pass 2: edges.
    for fn in module.defined_functions():
        for block in fn.blocks:
            insts = block.instructions
            # Control edges: sequential + terminator → successor heads.
            for pos in range(len(insts) - 1):
                graph.add_edge("control", inst_node[id(insts[pos])],
                               inst_node[id(insts[pos + 1])])
            if insts and insts[-1].is_terminator:
                for succ in block.successors():
                    if succ.instructions:
                        graph.add_edge("control", inst_node[id(insts[-1])],
                                       inst_node[id(succ.instructions[0])])
            for inst in insts:
                dst = inst_node[id(inst)]
                # Data edges: operand value node → instruction.
                for op in inst.operands:
                    if isinstance(op, Instruction):
                        # def → var node → use
                        var = data_node(op)
                        graph.add_edge("data", inst_node[id(op)], var)
                        graph.add_edge("data", var, dst)
                    elif isinstance(op, Function):
                        continue  # handled as call edges
                    else:
                        graph.add_edge("data", data_node(op), dst)
                # Result variable node for instructions with uses.
                if inst.uses and not inst.type.is_void:
                    var = data_node(inst)
                    graph.add_edge("data", dst, var)
                # Call edges.
                if isinstance(inst, CallInst):
                    callee = inst.callee
                    if isinstance(callee, Function) and not callee.is_declaration:
                        graph.add_edge("call", dst, fn_entry_node[callee.name])
                        for ret in fn_return_nodes.get(callee.name, ()):
                            graph.add_edge("call", ret, dst)
                    else:
                        # External function: a dedicated control node so the
                        # callee's identity is a first-class graph entity.
                        key = ("extfn", callee.name)
                        if key not in value_node:
                            value_node[key] = graph.add_node(  # type: ignore[index]
                                f"fn:{callee.name}", "control")
                        graph.add_edge("call", dst, value_node[key])  # type: ignore[index]
    return graph
