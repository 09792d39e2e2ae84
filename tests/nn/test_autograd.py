"""Autograd correctness: every op checked against numeric differentiation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.tensor import (
    SegmentContext,
    Tensor,
    concat,
    gather_rows,
    leaky_relu,
    relu,
    scatter_add,
    segment_max,
    segment_softmax,
)

EPS = 1e-3
TOL = 2e-2     # float32 numerics


def numeric_grad(f, x: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        hi = f()
        flat[i] = orig - EPS
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * EPS)
    return grad


def check(op, *shapes, make_index=None):
    rng = np.random.default_rng(0)
    arrays_ = [rng.normal(size=s).astype(np.float32) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays_]

    def loss_value():
        ts = [Tensor(a) for a in arrays_]
        return float((op(*ts).sum() * Tensor(1.0)).data)

    out = op(*tensors).sum()
    out.backward()
    for t, a in zip(tensors, arrays_):
        num = numeric_grad(lambda a=a: loss_value(), a)
        assert np.allclose(t.grad, num, atol=TOL, rtol=TOL), (
            f"analytic {t.grad} vs numeric {num}")


def test_add_mul_sub_div_grads():
    check(lambda a, b: a + b, (3, 4), (3, 4))
    check(lambda a, b: a * b, (3, 4), (3, 4))
    check(lambda a, b: a - b, (3, 4), (3, 4))
    check(lambda a, b: a / (b * b + 1.0), (3, 4), (3, 4))


def test_broadcast_grads():
    check(lambda a, b: a + b, (3, 4), (4,))
    check(lambda a, b: a * b, (3, 4), (1, 4))


def test_matmul_grads():
    check(lambda a, b: a @ b, (3, 5), (5, 2))


def test_activation_grads():
    check(lambda a: relu(a), (4, 4))
    check(lambda a: leaky_relu(a, 0.2), (4, 4))


def test_mean_and_axis_sum_grads():
    check(lambda a: a.mean(), (5, 3))
    check(lambda a: a.sum(axis=1).sum(), (5, 3))


def test_concat_grads():
    check(lambda a, b: concat([a, b], axis=0), (2, 3), (4, 3))
    check(lambda a, b: concat([a, b], axis=1), (3, 2), (3, 4))


def test_gather_rows_grads():
    index = np.array([0, 2, 2, 1])
    check(lambda a: gather_rows(a, index), (3, 4))
    ctx = SegmentContext(index, 3)
    check(lambda a: gather_rows(a, index, ctx), (3, 4))


def test_scatter_add_grads():
    index = np.array([0, 1, 0, 2, 1])
    check(lambda a: scatter_add(a, index, 3), (5, 4))


def test_segment_softmax_grads_and_normalization():
    index = np.array([0, 0, 1, 1, 1, 2])
    rng = np.random.default_rng(1)
    scores = Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True)
    alpha = segment_softmax(scores, index, 3)
    sums = np.zeros(3)
    np.add.at(sums, index, alpha.data)
    assert np.allclose(sums, 1.0, atol=1e-5)
    check(lambda a: segment_softmax(a, index, 3), (6,))


def test_segment_max_grads():
    index = np.array([0, 0, 1, 1, 2])
    check(lambda a: segment_max(a, index, 3), (5, 3))


def test_segment_context_matches_naive():
    rng = np.random.default_rng(2)
    index = rng.integers(0, 5, size=40)
    values = rng.normal(size=(40, 8)).astype(np.float32)
    ctx = SegmentContext(index, 5)
    naive = np.zeros((5, 8), dtype=np.float32)
    np.add.at(naive, index, values)
    assert np.allclose(ctx.sum(values), naive, atol=1e-4)
    naive_max = np.full((5, 8), -np.inf, dtype=np.float32)
    np.maximum.at(naive_max, index, values)
    assert np.allclose(ctx.max(values), naive_max)


def test_empty_segments_get_zero():
    index = np.array([0, 0, 3])
    values = np.ones((3, 2), dtype=np.float32)
    ctx = SegmentContext(index, 5)
    out = ctx.sum(values)
    assert np.allclose(out[1], 0) and np.allclose(out[2], 0)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float32, (4, 3), elements=st.floats(-5, 5, width=32)),
       arrays(np.float32, (4, 3), elements=st.floats(-5, 5, width=32)))
def test_grad_accumulation_linearity(a, b):
    """d(sum(a*b + a))/da == b + 1 exactly."""
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b)
    (ta * tb + ta).sum().backward()
    assert np.allclose(ta.grad, b + 1.0, atol=1e-5)


def test_backward_through_shared_subexpression():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x          # x^2
    z = y + y          # 2 x^2 ; dz/dx = 4x = 8
    z.sum().backward()
    assert np.allclose(x.grad, [8.0])
    # backward() released the graph: only the leaf keeps its gradient.
    assert y.grad is None and y._prev == () and y._backward is None
    assert z.grad is None and z._prev == ()


def _mlp_steps():
    from repro.nn import Adam, Linear, cross_entropy

    rng = np.random.default_rng(0)
    fc1, fc2 = Linear(4, 8, rng), Linear(8, 2, rng)
    optimizer = Adam(fc1.parameters() + fc2.parameters(), lr=1e-2)
    x = rng.normal(size=(6, 4))
    labels = np.array([0, 1] * 3)

    def run():
        for _ in range(3):
            loss = cross_entropy(fc2(relu(fc1(Tensor(x)))), labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        return []

    return run


def _gnn_fit_predict():
    from repro.frontend import compile_c
    from repro.graphs import build_program_graph
    from repro.models.gnn_model import GNNModel

    bare = ("#include <mpi.h>\nint main(int argc, char** argv) {"
            " MPI_Init(&argc, &argv); MPI_Finalize(); return 0; }")
    send = ("#include <mpi.h>\nint main(int argc, char** argv) {"
            " int buf[4]; MPI_Init(&argc, &argv);"
            " MPI_Send(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD);"
            " MPI_Finalize(); return 0; }")
    graphs = [build_program_graph(compile_c(s, "t", "O0"))
              for s in (bare, send) * 3]
    labels = ["ok", "bug"] * 3

    def run():
        model = GNNModel(epochs=2, batch_size=4, emb_dim=8, hidden=(8, 4))
        model.fit(graphs, labels)
        model.predict_logits(graphs)
        return model.network.parameters()

    return run


@pytest.mark.parametrize("make_loop", [_mlp_steps, _gnn_fit_predict],
                         ids=["mlp-adam", "gnn-fit-predict"])
def test_training_graph_is_freed_without_cyclic_gc(make_loop):
    """Reference counting alone frees every step's graph."""
    import gc

    def live_tensors():
        return [o for o in gc.get_objects() if isinstance(o, Tensor)]

    run = make_loop()
    gc.collect()
    gc.disable()
    try:
        before = live_tensors()
        kept = run()
        # Both lists hold their tensors alive, so no id can be reused.
        known = {id(t) for t in before + kept}
        left = [t for t in live_tensors() if id(t) not in known]
    finally:
        gc.enable()
    assert not left, f"{len(left)} tensors outlived the loop"
