"""GNN layers, loss, optimizer, and batching."""

import numpy as np
import pytest

from repro.frontend import compile_c
from repro.graphs import build_program_graph, build_vocabulary
from repro.nn import (
    Adam, GATv2Conv, GraphBatch, HeteroGATLayer, Linear, Tensor,
    batch_graphs, cross_entropy, global_max_pool,
)
from repro.nn.layers import Embedding
from repro.nn.loss import softmax_probabilities


def test_linear_shapes_and_params():
    rng = np.random.default_rng(0)
    layer = Linear(8, 3, rng)
    out = layer(Tensor(np.ones((5, 8))))
    assert out.shape == (5, 3)
    assert len(layer.parameters()) == 2


def test_gatv2_message_passing_shapes():
    rng = np.random.default_rng(0)
    conv = GATv2Conv(6, 4, rng)
    x = Tensor(rng.normal(size=(5, 6)), requires_grad=False)
    edges = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    out = conv(x, edges)
    assert out.shape == (5, 4)
    # Node 0 has no incoming edges: output equals bias only.
    assert np.allclose(out.data[0], conv.bias.data, atol=1e-6)


def test_gatv2_empty_edges():
    rng = np.random.default_rng(0)
    conv = GATv2Conv(6, 4, rng)
    out = conv(Tensor(np.ones((3, 6))), np.zeros((2, 0), dtype=np.int64))
    assert out.shape == (3, 4)


def test_hetero_layer_combines_relations():
    rng = np.random.default_rng(0)
    layer = HeteroGATLayer(6, 4, ("control", "data", "call"), rng)
    x = Tensor(rng.normal(size=(4, 6)))
    edges = {
        "control": np.array([[0, 1], [1, 2]]),
        "data": np.array([[2], [3]]),
        "call": np.zeros((2, 0), dtype=np.int64),
    }
    out = layer(x, edges)
    assert out.shape == (4, 4)
    assert np.all(out.data >= 0)    # ReLU output


def test_cross_entropy_matches_manual():
    logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]), requires_grad=True)
    labels = np.array([0, 1])
    loss = cross_entropy(logits, labels)
    expected = -np.log(np.exp(2) / (np.exp(2) + 1))
    assert np.isclose(float(loss.data), expected, atol=1e-5)
    loss.backward()
    assert logits.grad is not None
    probs = softmax_probabilities(logits.data)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_adam_reduces_quadratic():
    from repro.nn.layers import Parameter

    p = Parameter(np.array([5.0, -3.0]))
    opt = Adam([p], lr=0.2)
    for _ in range(150):
        loss = (p * p).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    assert np.all(np.abs(p.data) < 0.2)


def test_training_loop_fits_toy_graph_labels():
    """Two distinguishable graph families must be separable in few steps."""
    rng = np.random.default_rng(0)
    src_a = "#include <mpi.h>\nint main(int argc, char** argv) { MPI_Init(&argc, &argv); MPI_Finalize(); return 0; }"
    src_b = """#include <mpi.h>
int main(int argc, char** argv) {
  int buf[4]; MPI_Init(&argc, &argv);
  MPI_Send(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD);
  MPI_Finalize(); return 0; }"""
    graphs = [build_program_graph(compile_c(s, "t", "O0"))
              for s in (src_a, src_b) * 6]
    labels = np.array([0, 1] * 6)
    vocab = build_vocabulary(graphs)
    from repro.models.gnn_model import _GNNNetwork

    net = _GNNNetwork(len(vocab), 2, rng, emb_dim=16, hidden=(16, 8))
    opt = Adam(net.parameters(), lr=5e-3)
    batch = batch_graphs(graphs, vocab)
    first = None
    for step in range(40):
        logits = net(batch)
        loss = cross_entropy(logits, labels)
        if first is None:
            first = float(loss.data)
        opt.zero_grad()
        loss.backward()
        opt.step()
    assert float(loss.data) < first
    pred = net(batch).data.argmax(axis=1)
    assert np.mean(pred == labels) == 1.0


def test_batching_offsets_and_pooling():
    src = "#include <mpi.h>\nint main(int argc, char** argv) { MPI_Init(&argc, &argv); MPI_Finalize(); return 0; }"
    g = build_program_graph(compile_c(src, "t", "O0"))
    vocab = build_vocabulary([g])
    batch = batch_graphs([g, g, g], vocab)
    assert batch.num_graphs == 3
    assert len(batch.node_index) == 3 * g.num_nodes
    # Edges of graph i are offset by i * num_nodes.
    e0 = g.edge_array("control")
    eb = batch.edges["control"]
    assert eb.shape[1] == 3 * e0.shape[1]
    assert eb[:, e0.shape[1]].min() >= g.num_nodes
    x = Tensor(np.arange(batch.node_index.size * 2, dtype=float)
               .reshape(-1, 2))
    pooled = global_max_pool(x, batch.graph_ids, 3, batch.pool_ctx)
    assert pooled.shape == (3, 2)
    assert pooled.data[0, 0] < pooled.data[1, 0] < pooled.data[2, 0]


def test_gatv2_without_attention_is_mean_aggregation():
    rng = np.random.default_rng(0)
    conv = GATv2Conv(6, 4, rng, attention=False)
    x = Tensor(rng.normal(size=(4, 6)).astype(np.float32), requires_grad=True)
    # Node 3 receives from nodes 0, 1, 2.
    edges = np.array([[0, 1, 2], [3, 3, 3]])
    out = conv(x, edges)
    hs = x.data @ conv.w_src.data
    expected = hs[:3].mean(axis=0) + conv.bias.data
    assert np.allclose(out.data[3], expected, atol=1e-5)
    # Gradients still flow to the source transform.
    out.sum().backward()
    assert conv.w_src.grad is not None


def test_global_mean_pool_matches_numpy():
    from repro.nn.gnn import global_mean_pool

    x = Tensor(np.arange(12, dtype=np.float32).reshape(6, 2),
               requires_grad=True)
    graph_ids = np.array([0, 0, 0, 1, 1, 1])
    pooled = global_mean_pool(x, graph_ids, 2)
    assert np.allclose(pooled.data[0], x.data[:3].mean(axis=0))
    assert np.allclose(pooled.data[1], x.data[3:].mean(axis=0))
    pooled.sum().backward()
    # Each node contributes 1/3 to its graph's mean.
    assert np.allclose(x.grad, np.full((6, 2), 1 / 3), atol=1e-6)


def test_batch_graphs_merge_edges():
    from repro.nn.batching import MERGED_EDGE_TYPE

    src = """#include <mpi.h>
int main(int argc, char** argv) {
  int r;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &r);
  MPI_Finalize();
  return 0;
}"""
    graph = build_program_graph(compile_c(src, "m.c", "O0"))
    vocab = build_vocabulary([graph])
    hetero = batch_graphs([graph], vocab)
    merged = batch_graphs([graph], vocab, merge_edges=True)
    assert set(merged.edges) == {MERGED_EDGE_TYPE}
    total_hetero = sum(arr.shape[1] for arr in hetero.edges.values())
    assert merged.edges[MERGED_EDGE_TYPE].shape[1] == total_hetero


def test_gnn_model_variant_knobs_train():
    from repro.datasets import load_corrbench
    from repro.models.features import featurize_dataset
    from repro.models.gnn_model import GNNModel
    from repro.pipeline import ProGraMLFeaturizer

    ds = load_corrbench(subsample=24)
    graphs = featurize_dataset(ProGraMLFeaturizer(opt_level="O0"), ds)
    y = [s.binary for s in ds.samples]
    for overrides in ({"pooling": "mean"}, {"attention": False},
                      {"hetero": False}):
        model = GNNModel(epochs=1, lr=1e-3, **overrides)
        model.fit(graphs, y)
        pred = model.predict(graphs[:4])
        assert len(pred) == 4


def test_gnn_model_rejects_bad_pooling():
    import pytest
    from repro.models.gnn_model import GNNModel

    with pytest.raises(ValueError):
        GNNModel(pooling="sum")


def test_embedding_uses_a_segment_context_with_one_segment_per_row():
    from repro.nn.tensor import SegmentContext

    table = Embedding(5, 3, np.random.default_rng(0))
    index = np.array([4, 0, 4, 2])
    out = table(index, SegmentContext(index, 5))
    out.sum().backward()
    assert np.array_equal(table.table.grad[:, 0], [1, 0, 1, 0, 2])
    with pytest.raises(ValueError):
        table(index, SegmentContext(index, 4))
