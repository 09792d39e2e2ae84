"""Graph layers: GATv2 convolution, heterogeneous aggregation, pooling.

GATv2 (Brody et al. 2021) as used by the paper: the attention score for
edge (j → i) is ``a^T LeakyReLU(W_s h_j + W_t h_i)``, softmax-normalized
over each destination's incoming edges; messages are the source features
transformed by ``W_s`` and weighted by attention.

``HeteroGATLayer`` mirrors PyG's ``HeteroConv``: one GATv2 per edge type
over a shared node feature space, outputs summed per destination node.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nn.layers import Module, Parameter, _glorot
from repro.nn.tensor import (
    Tensor,
    gather_rows,
    leaky_relu,
    relu,
    scatter_add,
    segment_max,
    segment_softmax,
)


class GATv2Conv(Module):
    """GATv2 edge convolution; ``attention=False`` degrades it to plain
    mean aggregation (the GCN-like ablation baseline)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 negative_slope: float = 0.2, attention: bool = True):
        self.w_src = Parameter(_glorot(rng, in_dim, out_dim))
        self.w_dst = Parameter(_glorot(rng, in_dim, out_dim))
        self.attn = Parameter(_glorot(rng, out_dim, 1))
        self.bias = Parameter(np.zeros(out_dim))
        self.negative_slope = negative_slope
        self.out_dim = out_dim
        self.attention = attention

    def __call__(self, x: Tensor, edge_index: np.ndarray,
                 src_ctx=None, dst_ctx=None) -> Tensor:
        num_nodes = x.data.shape[0]
        if edge_index.shape[1] == 0:
            zeros = Tensor(np.zeros((num_nodes, self.out_dim)))
            return zeros + self.bias
        src, dst = edge_index[0], edge_index[1]
        hs = x @ self.w_src
        hs_edges = gather_rows(hs, src, src_ctx)     # (E,out), shared below
        if self.attention:
            hd = x @ self.w_dst
            edge_feat = hs_edges + gather_rows(hd, dst, dst_ctx)
            scores = leaky_relu(edge_feat, self.negative_slope) @ self.attn  # (E,1)
            alpha = segment_softmax(scores.sum(axis=1), dst, num_nodes, dst_ctx)
            # Weight messages by attention: (E,out) * (E,1)
            weights = Tensor._make(
                alpha.data[:, None], (alpha,),
                lambda out: alpha._accumulate(out.grad[:, 0]) if alpha.requires_grad else None,
            )
        else:
            # Uniform 1/deg(dst) weights — no learned attention.
            deg = np.bincount(dst, minlength=num_nodes).clip(min=1)
            weights = Tensor(1.0 / deg[dst][:, None])
        messages = hs_edges * weights
        return scatter_add(messages, dst, num_nodes, dst_ctx) + self.bias


class HeteroGATLayer(Module):
    """One GATv2 per edge type; per-node sum across types; ReLU."""

    def __init__(self, in_dim: int, out_dim: int, edge_types,
                 rng: np.random.Generator, attention: bool = True):
        self.convs: Dict[str, GATv2Conv] = {
            et: GATv2Conv(in_dim, out_dim, rng, attention=attention)
            for et in edge_types
        }

    def __call__(self, x: Tensor, edges: Dict[str, np.ndarray],
                 src_ctx=None, dst_ctx=None) -> Tensor:
        out = None
        for etype, conv in self.convs.items():
            term = conv(x, edges.get(etype, np.zeros((2, 0), dtype=np.int64)),
                        (src_ctx or {}).get(etype), (dst_ctx or {}).get(etype))
            out = term if out is None else out + term
        assert out is not None
        return relu(out)


def global_max_pool(x: Tensor, graph_ids: np.ndarray, num_graphs: int,
                    ctx=None) -> Tensor:
    """Adaptive max pooling: per-graph elementwise max over node features."""
    return segment_max(x, graph_ids, num_graphs, ctx)


def global_mean_pool(x: Tensor, graph_ids: np.ndarray, num_graphs: int,
                     ctx=None) -> Tensor:
    """Per-graph mean over node features (pooling ablation baseline)."""
    total = scatter_add(x, graph_ids, num_graphs, ctx)
    counts = np.bincount(graph_ids, minlength=num_graphs).clip(min=1)
    return total * Tensor(1.0 / counts[:, None])
