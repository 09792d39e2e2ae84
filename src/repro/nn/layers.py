"""Parameterized layers: Linear and Embedding."""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.tensor import SegmentContext, Tensor, gather_rows


class Parameter(Tensor):
    """A trainable tensor."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with parameter discovery."""

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        seen = set()
        stack = [self]
        while stack:
            obj = stack.pop()
            for value in vars(obj).values():
                if isinstance(value, Parameter) and id(value) not in seen:
                    seen.add(id(value))
                    params.append(value)
                elif isinstance(value, Module):
                    stack.append(value)
                elif isinstance(value, dict):
                    stack.extend(v for v in value.values() if isinstance(v, Module))
                elif isinstance(value, (list, tuple)):
                    stack.extend(v for v in value if isinstance(v, Module))
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Parameter(_glorot(rng, in_dim, out_dim))
        self.bias = Parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class Embedding(Module):
    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.table = Parameter(rng.normal(0.0, 0.1, size=(vocab_size, dim)))

    def __call__(self, index: np.ndarray,
                 ctx: Optional[SegmentContext] = None) -> Tensor:
        """Rows of the table; ``ctx`` (over ``index``, one segment per
        table row) turns the backward scatter into a planned sum."""
        if ctx is not None and ctx.num_segments != len(self.table.data):
            raise ValueError(f"segment context has {ctx.num_segments} "
                             f"segments for {len(self.table.data)} rows")
        return gather_rows(self.table, index, ctx)
