"""TransE trainer for IR2vec seed embeddings.

TransE models a triple (h, r, t) as ``e_h + e_r ≈ e_t`` and trains with a
margin ranking loss against corrupted negatives.  Fully vectorized numpy
minibatch SGD; deterministic per seed (the paper's "Seeds" experiment
regenerates embeddings under a different seed and measures the accuracy
drop of a GA tuned on the original).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.embeddings.triplets import Triple


@dataclass
class SeedEmbeddings:
    dim: int
    entities: Dict[str, int]
    relations: Dict[str, int]
    entity_vectors: np.ndarray          # (n_entities, dim)
    relation_vectors: np.ndarray        # (n_relations, dim)
    unknown: np.ndarray                 # fallback vector

    def entity(self, name: str) -> np.ndarray:
        idx = self.entities.get(name)
        if idx is None:
            return self.unknown
        return self.entity_vectors[idx]

    def relation(self, name: str) -> np.ndarray:
        return self.relation_vectors[self.relations[name]]


def train_seed_embeddings(
    triples: Sequence[Triple],
    dim: int = 256,
    *,
    seed: int = 42,
    epochs: int = 60,
    margin: float = 1.0,
    lr: float = 0.01,
    batch_size: int = 4096,
) -> SeedEmbeddings:
    """Train TransE seed embeddings over a corpus of triples."""
    rng = np.random.default_rng(seed)
    entity_names = sorted({h for h, _, _ in triples} | {t for _, _, t in triples})
    relation_names = sorted({r for _, r, _ in triples})
    e_index = {n: i for i, n in enumerate(entity_names)}
    r_index = {n: i for i, n in enumerate(relation_names)}

    n_e, n_r = len(entity_names), len(relation_names)
    bound = 6.0 / np.sqrt(dim)
    E = rng.uniform(-bound, bound, size=(n_e, dim))
    R = rng.uniform(-bound, bound, size=(n_r, dim))
    R /= np.linalg.norm(R, axis=1, keepdims=True) + 1e-12

    heads = np.array([e_index[h] for h, _, _ in triples], dtype=np.int64)
    rels = np.array([r_index[r] for _, r, _ in triples], dtype=np.int64)
    tails = np.array([e_index[t] for _, _, t in triples], dtype=np.int64)
    n = len(triples)
    if n == 0:
        unknown = np.zeros(dim)
        return SeedEmbeddings(dim, e_index, r_index, E, R, unknown)

    for _ in range(epochs):
        E /= np.maximum(1.0, np.linalg.norm(E, axis=1, keepdims=True))
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            h, r, t = heads[idx], rels[idx], tails[idx]
            # Corrupt head or tail uniformly.
            corrupt_tail = rng.random(len(idx)) < 0.5
            neg = rng.integers(0, n_e, size=len(idx))
            h_neg = np.where(corrupt_tail, h, neg)
            t_neg = np.where(corrupt_tail, neg, t)

            eh, er, et = E[h], R[r], E[t]
            d_pos = eh + er - et
            d_neg = E[h_neg] + er - E[t_neg]
            s_pos = np.linalg.norm(d_pos, axis=1)
            s_neg = np.linalg.norm(d_neg, axis=1)
            viol = margin + s_pos - s_neg > 0
            if not viol.any():
                continue
            v = np.where(viol)[0]
            g_pos = d_pos[v] / (s_pos[v, None] + 1e-9)
            g_neg = d_neg[v] / (s_neg[v, None] + 1e-9)
            np.add.at(E, h[v], -lr * g_pos)
            np.add.at(E, t[v], lr * g_pos)
            np.add.at(R, r[v], -lr * (g_pos - g_neg))
            np.add.at(E, h_neg[v], lr * g_neg)
            np.add.at(E, t_neg[v], -lr * g_neg)

    E /= np.maximum(1.0, np.linalg.norm(E, axis=1, keepdims=True))
    unknown = E.mean(axis=0)
    return SeedEmbeddings(dim, e_index, r_index, E, R, unknown)
