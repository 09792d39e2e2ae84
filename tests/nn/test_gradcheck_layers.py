"""Layer-level gradient checks: analytic vs finite-difference.

The per-op checks in ``test_autograd.py`` verify each primitive; these
verify whole layers and the full GNN composition — exactly the gradients
Adam consumes during training — by perturbing the layers' *parameters*.
"""

import numpy as np

from repro.nn.gnn import (
    GATv2Conv,
    HeteroGATLayer,
    global_max_pool,
    global_mean_pool,
)
from repro.nn.loss import cross_entropy
from repro.nn.tensor import Tensor

EPS = 1e-3
TOL = 3e-2     # float32 numerics over deeper graphs

_N = 6
_X = np.random.default_rng(3).normal(size=(_N, 5)).astype(np.float32)
_EDGES = {
    "control": np.array([[0, 1, 2, 3], [1, 2, 3, 4]]),
    "data": np.array([[0, 2, 4], [5, 5, 5]]),
    "call": np.array([[1], [0]]),
}
_GRAPH_IDS = np.array([0, 0, 0, 1, 1, 1])


def numeric_grad(loss_fn, param) -> np.ndarray:
    grad = np.zeros_like(param.data, dtype=np.float64)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        hi = loss_fn()
        flat[i] = orig - EPS
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * EPS)
    return grad


def assert_param_grads(module, loss_fn):
    """Backprop once, then finite-difference every parameter."""
    loss = loss_fn(as_tensor=True)
    module.zero_grad()
    loss.backward()
    for param in module.parameters():
        analytic = param.grad
        numeric = numeric_grad(lambda: float(loss_fn(as_tensor=True).data),
                               param)
        if analytic is None:
            # A parameter untouched by the forward pass (e.g. the attention
            # vector when attention=False) must not influence the loss.
            assert np.allclose(numeric, 0.0, atol=TOL)
            continue
        assert np.allclose(analytic, numeric, atol=TOL, rtol=TOL), (
            f"max err {np.abs(analytic - numeric).max()}")


def test_gatv2_parameter_gradients():
    rng = np.random.default_rng(0)
    conv = GATv2Conv(5, 3, rng)

    def loss(as_tensor=False):
        out = conv(Tensor(_X), _EDGES["control"])
        val = (out * out).sum()
        return val if as_tensor else float(val.data)

    assert_param_grads(conv, loss)


def test_gatv2_no_attention_parameter_gradients():
    rng = np.random.default_rng(1)
    conv = GATv2Conv(5, 3, rng, attention=False)

    def loss(as_tensor=False):
        out = conv(Tensor(_X), _EDGES["control"])
        val = (out * out).sum()
        return val if as_tensor else float(val.data)

    assert_param_grads(conv, loss)
    # The attention vector is unused in this mode: its gradient stays 0.
    assert conv.attn.grad is None or np.allclose(conv.attn.grad, 0.0)


def test_hetero_layer_parameter_gradients():
    rng = np.random.default_rng(2)
    layer = HeteroGATLayer(5, 3, tuple(_EDGES), rng)

    def loss(as_tensor=False):
        out = layer(Tensor(_X), _EDGES)
        val = (out * out).sum()
        return val if as_tensor else float(val.data)

    assert_param_grads(layer, loss)


def test_pooled_cross_entropy_gradients():
    rng = np.random.default_rng(4)
    conv = GATv2Conv(5, 3, rng)
    labels = np.array([0, 1])

    for pool in (global_max_pool, global_mean_pool):
        def loss(as_tensor=False, pool=pool):
            h = conv(Tensor(_X), _EDGES["control"])
            pooled = pool(h, _GRAPH_IDS, 2)
            val = cross_entropy(pooled, labels)
            return val if as_tensor else float(val.data)

        assert_param_grads(conv, loss)


def test_full_network_gradients_small():
    from repro.models.gnn_model import _GNNNetwork
    from repro.nn.batching import GraphBatch

    rng = np.random.default_rng(5)
    net = _GNNNetwork(vocab_size=7, n_classes=2, rng=rng, emb_dim=4,
                      hidden=(4, 3))
    batch = GraphBatch(
        node_index=np.array([0, 1, 2, 3, 4, 5]),
        node_type=np.array([0, 0, 1, 0, 1, 2]),
        edges=_EDGES,
        graph_ids=_GRAPH_IDS,
        num_graphs=2,
        vocab_size=7,
    )
    assert batch.node_ctx is not None and batch.type_ctx is not None
    labels = np.array([0, 1])

    def loss(as_tensor=False):
        val = cross_entropy(net(batch), labels)
        return val if as_tensor else float(val.data)

    loss_t = loss(as_tensor=True)
    net.zero_grad()
    loss_t.backward()
    # Spot-check the deepest and shallowest parameters end to end.
    for param in (net.embedding.parameters()[0], net.fc2.parameters()[0]):
        numeric = numeric_grad(lambda: loss(), param)
        assert param.grad is not None
        assert np.allclose(param.grad, numeric, atol=TOL, rtol=TOL)


def test_adam_matches_reference_first_step():
    from repro.nn.layers import Parameter
    from repro.nn.optim import Adam

    p = Parameter(np.array([1.0, -2.0], dtype=np.float32))
    opt = Adam([p], lr=0.1)
    p.grad = np.array([0.5, -1.0], dtype=np.float32)
    opt.step()
    # After one bias-corrected step, |update| == lr for any nonzero grad
    # (m_hat/sqrt(v_hat) == sign(g) when t == 1), up to eps.
    expected = np.array([1.0, -2.0]) - 0.1 * np.sign([0.5, -1.0])
    assert np.allclose(p.data, expected, atol=1e-4)


def test_adam_skips_gradless_parameters():
    from repro.nn.layers import Parameter
    from repro.nn.optim import Adam

    p = Parameter(np.array([3.0], dtype=np.float32))
    opt = Adam([p], lr=0.5)
    opt.step()                          # p.grad is None
    assert np.allclose(p.data, [3.0])


def test_training_loop_decreases_loss():
    from repro.models.gnn_model import _GNNNetwork
    from repro.nn.batching import GraphBatch
    from repro.nn.optim import Adam

    # Width 8 avoids the dead-ReLU saddle a 4-wide net can start in.
    rng = np.random.default_rng(0)
    net = _GNNNetwork(vocab_size=7, n_classes=2, rng=rng, emb_dim=8,
                      hidden=(8, 4))
    batch = GraphBatch(
        node_index=np.array([0, 1, 2, 3, 4, 5]),
        node_type=np.array([0, 0, 1, 0, 1, 2]),
        edges=_EDGES,
        graph_ids=_GRAPH_IDS,
        num_graphs=2,
    )
    labels = np.array([0, 1])
    opt = Adam(net.parameters(), lr=5e-2)
    losses = []
    for _ in range(40):
        loss = cross_entropy(net(batch), labels)
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    assert losses[-1] < losses[0] * 0.5
