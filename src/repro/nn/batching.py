"""Disjoint-union batching of program graphs (PyG-style)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graphs.programl import EDGE_TYPES, NODE_TYPES, ProgramGraph
from repro.graphs.vocab import GraphVocabulary
from repro.nn.tensor import SegmentContext


@dataclass
class GraphBatch:
    node_index: np.ndarray                  # (N,) vocab ids
    node_type: np.ndarray                   # (N,) node-type ids
    edges: Dict[str, np.ndarray]            # edge type -> (2, E)
    graph_ids: np.ndarray                   # (N,) graph membership
    num_graphs: int
    # Rows of the node-vocabulary embedding; without it the vocabulary
    # lookup's backward falls back to ``np.add.at``.
    vocab_size: Optional[int] = None
    # Precomputed segment contexts, reused across layers and epochs.
    src_ctx: Dict[str, SegmentContext] = field(default_factory=dict)
    dst_ctx: Dict[str, SegmentContext] = field(default_factory=dict)
    pool_ctx: SegmentContext = None  # type: ignore[assignment]
    node_ctx: Optional[SegmentContext] = None   # over node_index
    type_ctx: SegmentContext = None  # type: ignore[assignment]

    def __post_init__(self):
        n = len(self.node_index)
        for etype, arr in self.edges.items():
            self.src_ctx[etype] = SegmentContext(arr[0], n)
            self.dst_ctx[etype] = SegmentContext(arr[1], n)
        if self.pool_ctx is None:
            self.pool_ctx = SegmentContext(self.graph_ids, self.num_graphs)
        if self.node_ctx is None and self.vocab_size is not None:
            self.node_ctx = SegmentContext(self.node_index, self.vocab_size)
        if self.type_ctx is None:
            self.type_ctx = SegmentContext(self.node_type, len(NODE_TYPES))


#: Edge-type key used when heterogeneity is ablated away.
MERGED_EDGE_TYPE = "all"


def batch_graphs(graphs: Sequence[ProgramGraph],
                 vocab: GraphVocabulary,
                 merge_edges: bool = False) -> GraphBatch:
    node_chunks: List[np.ndarray] = []
    type_chunks: List[np.ndarray] = []
    id_chunks: List[np.ndarray] = []
    edge_chunks: Dict[str, List[np.ndarray]] = {t: [] for t in EDGE_TYPES}
    offset = 0
    for gid, graph in enumerate(graphs):
        n = graph.num_nodes
        node_chunks.append(vocab.encode_graph(graph))
        type_chunks.append(np.asarray(graph.node_type, dtype=np.int64))
        id_chunks.append(np.full(n, gid, dtype=np.int64))
        for etype in EDGE_TYPES:
            arr = graph.edge_array(etype)
            if arr.shape[1]:
                edge_chunks[etype].append(arr + offset)
        offset += n
    edges = {}
    for etype in EDGE_TYPES:
        chunks = edge_chunks[etype]
        edges[etype] = (np.concatenate(chunks, axis=1) if chunks
                        else np.zeros((2, 0), dtype=np.int64))
    if merge_edges:
        # Homogeneous ablation: every relation collapses into one type.
        merged = [arr for arr in edges.values() if arr.shape[1]]
        edges = {MERGED_EDGE_TYPE: (np.concatenate(merged, axis=1) if merged
                                    else np.zeros((2, 0), dtype=np.int64))}
    return GraphBatch(
        node_index=np.concatenate(node_chunks) if node_chunks else np.zeros(0, np.int64),
        node_type=np.concatenate(type_chunks) if type_chunks else np.zeros(0, np.int64),
        edges=edges,
        graph_ids=np.concatenate(id_chunks) if id_chunks else np.zeros(0, np.int64),
        num_graphs=len(graphs),
        vocab_size=len(vocab),
    )
