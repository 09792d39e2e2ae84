"""Segment-reduction plans, gradient adoption and float32 training.

``SegmentContext`` has two plans (by rank and reduceat); both are
checked against a float64 ``np.add.at`` reference, and the by-rank plan
against the strictly sequential row-order sum its contract promises.
``Tensor._accumulate`` adopts the first gradient it receives, so the
tests here also check that no two tensors end up sharing a ``.grad``
buffer, and that a training step stays in float32 throughout.
"""

import itertools

import numpy as np
import pytest

from repro.frontend import compile_c
from repro.graphs import build_program_graph, build_vocabulary
from repro.nn import Adam, Tensor, batch_graphs, concat, cross_entropy, relu
from repro.nn.tensor import RANK_PLAN_MIN_ROWS, SegmentContext

_SOURCES = (
    "#include <mpi.h>\nint main(int argc, char** argv) {"
    " MPI_Init(&argc, &argv); MPI_Finalize(); return 0; }",
    "#include <mpi.h>\nint main(int argc, char** argv) {"
    " int buf[4]; int rank; MPI_Init(&argc, &argv);"
    " MPI_Comm_rank(MPI_COMM_WORLD, &rank);"
    " if (rank == 0) { MPI_Send(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD); }"
    " MPI_Finalize(); return 0; }",
)


@pytest.fixture(scope="module")
def graphs():
    return [build_program_graph(compile_c(s, f"t{i}", "O0"))
            for i, s in enumerate(_SOURCES * 3)]


# ---------------------------------------------------------------------------
# SegmentContext against references
# ---------------------------------------------------------------------------

def _sequential_sum(index, values, num_segments):
    """Each segment's rows added one after another in row order."""
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    seen = set()
    for i, seg in enumerate(index):
        out[seg] = values[i] if seg not in seen else out[seg] + values[i]
        seen.add(seg)
    return out


def _reference(index, values, num_segments):
    total = np.zeros((num_segments,) + values.shape[1:], dtype=np.float64)
    np.add.at(total, index, values.astype(np.float64))
    peak = np.full((num_segments,) + values.shape[1:], -np.inf,
                   dtype=values.dtype)
    np.maximum.at(peak, index, values)
    return total, peak


def _short_runs(rng, rows):
    """Runs of at most 3 rows over many segments: the by-rank plan."""
    return rng.permutation(np.repeat(np.arange(rows), 3)[:rows]), rows


def _long_runs(rng, rows):
    """Four segments (of eight) share every row: the reduceat plan."""
    return rng.choice([0, 2, 5, 7], size=rows), 8


@pytest.mark.parametrize("runs,by_rank", [(_short_runs, True),
                                          (_long_runs, False)],
                         ids=["by-rank", "reduceat"])
@pytest.mark.parametrize("columns", [None, 1, 7, 64])
def test_both_plans_match_float64_reference(runs, by_rank, columns):
    rng = np.random.default_rng(columns or 0)
    index, num_segments = runs(rng, 300)
    shape = (len(index),) if columns is None else (len(index), columns)
    values = rng.normal(size=shape).astype(np.float32)
    ctx = SegmentContext(index, num_segments)
    assert (ctx.ranks is not None) == by_rank
    total, peak = _reference(index, values, num_segments)
    got = ctx.sum(values)
    assert got.dtype == np.float32 and got.shape == total.shape
    assert np.allclose(got, total, rtol=1e-5, atol=1e-4)
    assert np.array_equal(ctx.max(values), peak)
    # Segments no row names: 0 for sums, -inf for maxima.
    unused = np.setdiff1d(np.arange(num_segments), index)
    assert (got[unused] == 0).all() and np.isneginf(ctx.max(values)[unused]).all()


def test_plan_choice_follows_the_measured_crossover():
    longest = 5
    at = np.repeat(np.arange(RANK_PLAN_MIN_ROWS), longest)
    assert len(at) == RANK_PLAN_MIN_ROWS * longest
    assert SegmentContext(at, RANK_PLAN_MIN_ROWS).ranks is not None
    assert SegmentContext(at[:-1], RANK_PLAN_MIN_ROWS).ranks is None


@pytest.mark.parametrize("columns", [None, 16])
def test_by_rank_sum_is_the_sequential_row_order_sum(columns):
    rng = np.random.default_rng(3)
    index = rng.integers(0, 400, size=1000)
    shape = (1000,) if columns is None else (1000, columns)
    # Wide magnitudes make any reordering of the additions visible.
    values = (rng.normal(size=shape)
              * 10.0 ** rng.integers(-4, 5, size=shape)).astype(np.float32)
    ctx = SegmentContext(index, 400)
    assert ctx.ranks is not None
    assert ctx.sum(values).tobytes() == \
        _sequential_sum(index, values, 400).tobytes()


@pytest.mark.parametrize("shape", [(0,), (0, 4)])
def test_empty_input(shape):
    ctx = SegmentContext(np.zeros(0, dtype=np.int64), 3)
    values = np.zeros(shape, dtype=np.float32)
    assert np.array_equal(ctx.sum(values), np.zeros((3,) + shape[1:]))
    assert np.isneginf(ctx.max(values)).all()


def test_no_segments_and_single_row():
    empty = SegmentContext(np.zeros(0, dtype=np.int64), 0)
    assert empty.sum(np.zeros((0, 2), np.float32)).shape == (0, 2)
    one = SegmentContext(np.array([1]), 3)
    assert np.array_equal(one.sum(np.array([[2.0]], np.float32)),
                          [[0.0], [2.0], [0.0]])


# ---------------------------------------------------------------------------
# Gradient adoption
# ---------------------------------------------------------------------------

def test_accumulate_adopts_only_owned_float32_unshared_arrays():
    t = Tensor(np.zeros(4), requires_grad=True)
    owned = np.ones(4, dtype=np.float32)
    t._accumulate(owned)
    assert t.grad is owned
    for grad, shared in ((np.ones((4, 2), np.float32)[:, 0], False),
                         (np.ones(4), False),
                         (np.ones(4, np.float32), True)):
        t.grad = None
        t._accumulate(grad, shared=shared)
        assert t.grad.dtype == np.float32
        assert not np.shares_memory(t.grad, grad)


def _sum_plus_q(p, q, w):
    return (p + q).sum()


def _shared_subexpression(p, q, w):
    y = p * q
    return (y + y + p).sum()


def _concat_views(p, q, w):
    both = concat([p, q], axis=1)           # backward hands out views
    return relu(both @ w).sum() + p.sum()


@pytest.mark.parametrize("build", [_sum_plus_q, _shared_subexpression,
                                   _concat_views],
                         ids=["add", "shared-subexpression", "concat"])
def test_adopted_gradients_do_not_alias(build):
    rng = np.random.default_rng(0)
    p, q = (Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            for _ in range(2))
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    leaves = [p, q, w]
    build(p, q, w).backward()
    grads = [t.grad for t in leaves if t.grad is not None]
    assert len(grads) >= 2
    for a, b in itertools.combinations(grads, 2):
        assert not np.shares_memory(a, b)
    for i, leaf in enumerate(leaves):
        if leaf.grad is None:
            continue
        others = [(t, t.data.copy(), None if t.grad is None else t.grad.copy())
                  for t in leaves if t is not leaf]
        Adam([leaf], lr=0.1).step()
        leaf.grad += 1.0
        for t, data, grad in others:
            assert np.array_equal(t.data, data)
            assert (t.grad is None) == (grad is None)
            assert grad is None or np.array_equal(t.grad, grad)


# ---------------------------------------------------------------------------
# Training stays in float32 and is deterministic
# ---------------------------------------------------------------------------

def test_training_step_is_float32_throughout(graphs, monkeypatch):
    from repro.models.gnn_model import _GNNNetwork

    vocab = build_vocabulary(graphs)
    batch = batch_graphs(graphs, vocab)
    net = _GNNNetwork(len(vocab), 2, np.random.default_rng(0), emb_dim=8,
                      hidden=(8, 4))
    optimizer = Adam(net.parameters(), lr=1e-2)
    made, handed = [], []
    make, accumulate = Tensor._make, Tensor._accumulate

    def record_make(data, parents, backward):
        made.append(np.asarray(data).dtype)
        return make(data, parents, backward)

    def record_accumulate(self, grad, shared=False):
        handed.append(grad.dtype)
        accumulate(self, grad, shared)

    monkeypatch.setattr(Tensor, "_make", staticmethod(record_make))
    monkeypatch.setattr(Tensor, "_accumulate", record_accumulate)
    loss = cross_entropy(net(batch), np.array([0, 1] * 3))
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    assert made and handed
    assert set(made) == {np.dtype(np.float32)}
    assert set(handed) == {np.dtype(np.float32)}
    assert all(p.data.dtype == np.float32 and p.grad.dtype == np.float32
               for p in net.parameters() if p.grad is not None)


def test_same_seed_fits_give_bit_identical_logits(graphs):
    from repro.models.gnn_model import GNNModel

    labels = ["ok", "bug"] * 3
    logits = []
    for _ in range(2):
        model = GNNModel(epochs=3, batch_size=4, emb_dim=8, hidden=(8, 4),
                         seed=7)
        model.fit(graphs, labels)
        logits.append(model.predict_logits(graphs))
    assert logits[0].tobytes() == logits[1].tobytes()
