"""Node-text vocabulary for program graphs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np

from repro.graphs.programl import ProgramGraph

UNK = "<unk>"


@dataclass
class GraphVocabulary:
    index: Dict[str, int]

    def __len__(self) -> int:
        return len(self.index)

    def encode(self, texts: Iterable[str]) -> np.ndarray:
        unk = self.index[UNK]
        return np.array([self.index.get(t, unk) for t in texts], dtype=np.int64)

    def encode_graph(self, graph: ProgramGraph) -> np.ndarray:
        return self.encode(graph.node_text)


def build_vocabulary(graphs: Iterable[ProgramGraph], min_count: int = 1) -> GraphVocabulary:
    counts: Dict[str, int] = {}
    for graph in graphs:
        for text in graph.node_text:
            counts[text] = counts.get(text, 0) + 1
    vocab = {UNK: 0}
    for text in sorted(counts):
        if counts[text] >= min_count:
            vocab[text] = len(vocab)
    return GraphVocabulary(vocab)
