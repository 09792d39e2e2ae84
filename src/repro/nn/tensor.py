"""Reverse-mode autograd over numpy arrays.

Only the operations the GNN pipeline needs, each fully vectorized:
elementwise arithmetic, matmul, activations, reductions, row gather /
scatter-add, segment softmax and segment max (the message-passing and
pooling primitives).

Performance notes: tensors are float32, and every op keeps them so
(no float64 temporaries). Segment reductions never call ``np.add.at``;
they go through a :class:`SegmentContext`, which presorts its index
once per batch and is reused across layers and epochs. The context
picks one of two reduction plans from its own run lengths:

- *by rank* when each rank step covers many rows (message passing over
  edges, whose runs hold 1-8 rows): for each rank k it holds the
  segments that have a k-th row and that row's index, so a sum is
  ``out[segs] = values[rows]`` for k = 0 and ``out[segs] += values[rows]``
  for each later rank, one vectorized gather-add per rank;
- *reduceat* when a few long runs would make that many small steps
  (graph pooling, embedding lookups): one ``np.add.reduceat`` over the
  stably sorted rows.

Summation-order contract: under the by-rank plan, each segment's sum
adds its rows one after another in row (edge) order,
``((v[r0] + v[r1]) + v[r2]) + ...`` with ``r0 < r1 < r2``, so it is
bit-identical to a sequential loop over the rows.

Gradient adoption: ``_accumulate`` keeps the first gradient a tensor
receives as its ``.grad`` instead of adding it into fresh zeros. It
copies only when that array is a view, is not float32, or is handed to
another parent too (the caller says so with ``shared=True``, as
``__add__`` does when both operands take ``out.grad`` unchanged). So no
two tensors ever share a ``.grad`` buffer, and a later ``+=`` into one
cannot change another.

Memory contract: the graph is a DAG that reference counting frees. A
node holds its parents (``_prev``) and its op's ``backward(out)``
function, which the driver calls with the node, so no node refers back
to itself and dropping the last reference to a result frees its graph
at once, without the cyclic GC. An op whose inputs need no gradient
returns a plain leaf and records nothing. ``backward()`` releases the
graph as it goes: after propagating a node it drops that node's
``_backward``, ``_prev`` and ``grad``. Only leaves (parameters and
``requires_grad`` inputs) keep ``.grad``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

DTYPE = np.float32


#: The by-rank plan costs one gather-add per rank, reduceat a pass whose
#: cost grows with runs x columns, so the plan follows rows / longest
#: run. Measured with float32 on a 2-core box: on gnn-train batches the
#: edge contexts (85-830 rows per longest run) sum 2-13x faster by rank
#: at 32-128 columns, while pooling (24), the vocabulary (5) and the
#: node types (2) sum 1.2-55x slower. Sweeps with equal runs put the
#: crossover at 30-60 rows per longest run for 128 columns and at
#: 150-300 for 32.
RANK_PLAN_MIN_ROWS = 64


class SegmentContext:
    """A segment-reduction plan over ``index``, built once at construction.

    ``sum`` and ``max`` reduce the rows of ``values`` that share an index
    value into ``num_segments`` rows; segments no row names get 0 (sum)
    or -inf (max). See the module notes for the two plans and the
    summation order.
    """

    def __init__(self, index: np.ndarray, num_segments: int):
        index = np.asarray(index, dtype=np.int64)
        self.index = index
        self.num_segments = num_segments
        order = np.argsort(index, kind="stable")
        sorted_idx = index[order]
        starts = np.flatnonzero(np.diff(sorted_idx, prepend=sorted_idx[:1] - 1))
        lengths = np.diff(starts, append=len(index))
        #: (segments, rows) per rank, or None under the reduceat plan.
        self.ranks: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        if len(index) >= RANK_PLAN_MIN_ROWS * lengths.max(initial=0):
            rank = np.arange(len(index)) - np.repeat(starts, lengths)
            by_rank = np.argsort(rank, kind="stable")
            cuts = np.cumsum(np.bincount(rank))[:-1]
            self.ranks = [(sorted_idx[p], order[p])
                          for p in np.split(by_rank, cuts)]
        else:
            self.order = order
            self.run_starts = starts
            self.run_segments = sorted_idx[starts]

    def _reduce(self, values: np.ndarray, ufunc: np.ufunc,
                fill: float) -> np.ndarray:
        out = np.full((self.num_segments,) + values.shape[1:], fill,
                      dtype=values.dtype)
        if self.ranks is None:
            out[self.run_segments] = ufunc.reduceat(
                values[self.order], self.run_starts, axis=0)
            return out
        for k, (segs, rows) in enumerate(self.ranks):
            gathered = values[rows]
            out[segs] = gathered if k == 0 else ufunc(out[segs], gathered)
        return out

    def sum(self, values: np.ndarray) -> np.ndarray:
        return self._reduce(values, np.add, 0.0)

    def max(self, values: np.ndarray) -> np.ndarray:
        return self._reduce(values, np.maximum, -np.inf)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False,
                 _prev: Tuple["Tensor", ...] = (),
                 _backward: Optional[Callable[["Tensor"], None]] = None):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._backward = _backward
        self._prev = _prev

    # -- helpers --------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray, shared: bool = False) -> None:
        """Add ``grad`` into ``.grad``, adopting the first one (module
        notes); ``shared`` says another parent receives ``grad`` too."""
        if self.grad is not None:
            self.grad += grad
        elif shared or grad.base is not None or grad.dtype != DTYPE:
            self.grad = np.array(grad, dtype=DTYPE)
        else:
            self.grad = grad

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.requires_grad else 'no'})"

    # -- graph construction ----------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[["Tensor"], None]) -> "Tensor":
        if not any(p.requires_grad for p in parents):
            return Tensor(data)
        return Tensor(data, requires_grad=True, _prev=parents,
                      _backward=backward)

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                grad = _unbroadcast(out.grad, self.data.shape)
                self._accumulate(grad, shared=grad is out.grad
                                 and other.requires_grad)
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * Tensor(-1.0)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(
                    -out.grad * self.data / (other.data ** 2), other.data.shape))

        return Tensor._make(self.data / other.data, (self, other), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ out.grad)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    __matmul__ = matmul

    # -- reductions --------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims),
                            (self,), backward)

    def mean(self) -> "Tensor":
        n = self.data.size

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(np.full_like(self.data, out.grad / n))

        return Tensor._make(np.asarray(self.data.mean()), (self,), backward)

    # -- backprop driver ----------------------------------------------------------
    def backward(self) -> None:
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node)
            node._backward, node._prev, node.grad = None, (), None


# ---------------------------------------------------------------------------
# Functional ops
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(out: Tensor) -> None:
        if x.requires_grad:
            x._accumulate(out.grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    mask = x.data > 0
    factor = np.where(mask, DTYPE(1.0), DTYPE(slope))

    def backward(out: Tensor) -> None:
        if x.requires_grad:
            x._accumulate(out.grad * factor)

    return Tensor._make(x.data * factor, (x,), backward)


def concat(tensors: List[Tensor], axis: int = 0) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out: Tensor) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * out.grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(out.grad[tuple(index)])

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis),
                        tuple(tensors), backward)


def gather_rows(x: Tensor, index: np.ndarray,
                ctx: Optional[SegmentContext] = None) -> Tensor:
    """Select rows x[index]; scatter-adds gradients back.

    Passing a :class:`SegmentContext` built over ``index`` (with
    ``num_segments == len(x)``) makes the backward a planned segment sum
    instead of ``np.add.at``.
    """
    index = np.asarray(index, dtype=np.int64)

    def backward(out: Tensor) -> None:
        if not x.requires_grad:
            return
        if ctx is not None:
            x._accumulate(ctx.sum(out.grad))
        else:
            grad = np.zeros_like(x.data)
            np.add.at(grad, index, out.grad)
            x._accumulate(grad)

    return Tensor._make(x.data[index], (x,), backward)


def scatter_add(x: Tensor, index: np.ndarray, num_segments: int,
                ctx: Optional[SegmentContext] = None) -> Tensor:
    """Sum rows of x into ``num_segments`` buckets given per-row indices."""
    ctx = ctx or SegmentContext(index, num_segments)
    data = ctx.sum(x.data)

    def backward(out: Tensor) -> None:
        if x.requires_grad:
            x._accumulate(out.grad[ctx.index])

    return Tensor._make(data, (x,), backward)


def segment_softmax(scores: Tensor, index: np.ndarray, num_segments: int,
                    ctx: Optional[SegmentContext] = None) -> Tensor:
    """Softmax over groups of rows sharing ``index`` (attention weights)."""
    ctx = ctx or SegmentContext(index, num_segments)
    index = ctx.index
    seg_max = ctx.max(scores.data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = scores.data - seg_max[index]
    exp = np.exp(np.clip(shifted, -60.0, 60.0))
    seg_sum = ctx.sum(exp)
    seg_sum[seg_sum == 0] = 1.0
    alpha = exp / seg_sum[index]

    def backward(out: Tensor) -> None:
        if not scores.requires_grad:
            return
        # d softmax: alpha * (g - sum_seg(alpha * g))
        weighted = alpha * out.grad
        seg_dot = ctx.sum(weighted)
        scores._accumulate(weighted - alpha * seg_dot[index])

    return Tensor._make(alpha, (scores,), backward)


def segment_max(x: Tensor, index: np.ndarray, num_segments: int,
                ctx: Optional[SegmentContext] = None) -> Tensor:
    """Per-segment elementwise max over rows (global max pooling)."""
    ctx = ctx or SegmentContext(index, num_segments)
    index = ctx.index
    data = ctx.max(x.data)
    data[~np.isfinite(data)] = 0.0
    # Winner rows per (segment, column); exact ties share the gradient.
    is_max = (x.data == data[index]).astype(DTYPE)
    counts = ctx.sum(is_max)
    counts[counts == 0] = 1.0

    def backward(out: Tensor) -> None:
        if x.requires_grad:
            x._accumulate(out.grad[index] * is_max / counts[index])

    return Tensor._make(data, (x,), backward)
