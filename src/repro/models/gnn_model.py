"""The paper's GNN pipeline (Section IV-B, Fig. 5).

ProGraML graphs → 3 hetero GATv2 layers (128, 64, 32) → adaptive
(global) max pooling → 2 fully connected layers → softmax over classes.
Cross-entropy loss, Adam with lr 4e-4, 10 epochs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.graphs.programl import EDGE_TYPES, NODE_TYPES, ProgramGraph
from repro.graphs.vocab import GraphVocabulary, build_vocabulary
from repro.nn.batching import MERGED_EDGE_TYPE, GraphBatch, batch_graphs
from repro.nn.gnn import (
    HeteroGATLayer,
    global_max_pool,
    global_mean_pool,
)
from repro.nn.layers import Embedding, Linear, Module
from repro.nn.loss import cross_entropy, softmax_probabilities
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, relu
from repro.obs.trace import TRACER


class _GNNNetwork(Module):
    def __init__(self, vocab_size: int, n_classes: int, rng: np.random.Generator,
                 emb_dim: int = 64, hidden: Sequence[int] = (128, 64, 32),
                 pooling: str = "max", attention: bool = True,
                 hetero: bool = True):
        self.embedding = Embedding(vocab_size, emb_dim, rng)
        self.type_embedding = Embedding(len(NODE_TYPES), emb_dim, rng)
        edge_types = EDGE_TYPES if hetero else (MERGED_EDGE_TYPE,)
        dims = [emb_dim, *hidden]
        self.layers = [
            HeteroGATLayer(dims[i], dims[i + 1], edge_types, rng,
                           attention=attention)
            for i in range(len(hidden))
        ]
        self.fc1 = Linear(hidden[-1], hidden[-1], rng)
        self.fc2 = Linear(hidden[-1], n_classes, rng)
        self.pool = global_max_pool if pooling == "max" else global_mean_pool

    def __call__(self, batch: GraphBatch) -> Tensor:
        x = (self.embedding(batch.node_index, batch.node_ctx)
             + self.type_embedding(batch.node_type, batch.type_ctx))
        for layer in self.layers:
            x = layer(x, batch.edges, batch.src_ctx, batch.dst_ctx)
        pooled = self.pool(x, batch.graph_ids, batch.num_graphs, batch.pool_ctx)
        return self.fc2(relu(self.fc1(pooled)))


class GNNModel:
    """Trainable wrapper with the paper's hyperparameters as defaults.

    ``pooling`` ('max' | 'mean'), ``attention`` and ``hetero`` expose the
    architecture choices the paper fixed (adaptive max pooling, GATv2
    attention, heterogeneous edge types) for the design-ablation study.
    """

    def __init__(self, epochs: int = 10, lr: float = 4e-4, batch_size: int = 32,
                 emb_dim: int = 64, hidden: Sequence[int] = (128, 64, 32),
                 seed: int = 0, verbose: bool = False, pooling: str = "max",
                 attention: bool = True, hetero: bool = True):
        if pooling not in ("max", "mean"):
            raise ValueError("pooling must be 'max' or 'mean'")
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.emb_dim = emb_dim
        self.hidden = tuple(hidden)
        self.seed = seed
        self.verbose = verbose
        self.pooling = pooling
        self.attention = attention
        self.hetero = hetero
        self.network: Optional[_GNNNetwork] = None
        self.vocab: Optional[GraphVocabulary] = None
        self.classes_: Optional[np.ndarray] = None

    def _batch(self, graphs: Sequence[ProgramGraph]) -> GraphBatch:
        return batch_graphs(graphs, self.vocab, merge_edges=not self.hetero)

    def fit(self, graphs: List[ProgramGraph], y: Sequence[str],
            vocab: Optional[GraphVocabulary] = None) -> "GNNModel":
        rng = np.random.default_rng(self.seed)
        self.vocab = vocab or build_vocabulary(graphs)
        labels = np.asarray(y)
        self.classes_, y_enc = np.unique(labels, return_inverse=True)
        self.network = _GNNNetwork(len(self.vocab), len(self.classes_), rng,
                                   self.emb_dim, self.hidden,
                                   pooling=self.pooling,
                                   attention=self.attention,
                                   hetero=self.hetero)
        optimizer = Adam(self.network.parameters(), lr=self.lr)
        n = len(graphs)
        # Fixed batch composition (contexts are precomputed per batch and
        # reused every epoch); only the batch *order* is reshuffled.
        order = rng.permutation(n)
        batches = []
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            batches.append((self._batch([graphs[i] for i in idx]),
                            y_enc[idx], len(idx)))
        for epoch in range(self.epochs):
            total_loss = 0.0
            for b in rng.permutation(len(batches)):
                batch, labels, size = batches[b]
                with TRACER.stage("forward"):
                    loss = cross_entropy(self.network(batch), labels)
                with TRACER.stage("backward"):
                    optimizer.zero_grad()
                    loss.backward()
                with TRACER.stage("optim"):
                    optimizer.step()
                total_loss += float(loss.data) * size
            if self.verbose:
                print(f"  epoch {epoch + 1}/{self.epochs}: loss {total_loss / n:.4f}")
        return self

    def predict_logits(self, graphs: List[ProgramGraph]) -> np.ndarray:
        assert self.network is not None and self.vocab is not None, "not fitted"
        outputs = []
        for start in range(0, len(graphs), self.batch_size):
            batch = self._batch(graphs[start:start + self.batch_size])
            with TRACER.stage("forward"):
                outputs.append(self.network(batch).data)
        return np.concatenate(outputs) if outputs else np.zeros((0, len(self.classes_)))

    def predict(self, graphs: List[ProgramGraph]) -> np.ndarray:
        assert self.classes_ is not None
        logits = self.predict_logits(graphs)
        return self.classes_[logits.argmax(axis=1)]

    def predict_proba(self, graphs: List[ProgramGraph]) -> np.ndarray:
        return softmax_probabilities(self.predict_logits(graphs))

    def score(self, graphs: List[ProgramGraph], y: Sequence[str]) -> float:
        return float(np.mean(self.predict(graphs) == np.asarray(y)))
