"""End-to-end model pipelines on small dataset slices."""

import numpy as np
import pytest

from repro.datasets import load_mbi
from repro.eval.config import ReproConfig
from repro.graphs.vocab import build_vocabulary
from repro.ml import GAConfig
from repro.engine import ExecutionEngine
from repro.models import GNNModel, IR2vecModel, featurize_dataset
from repro.pipeline import IR2VecFeaturizer, ProGraMLFeaturizer


def ir2vec_feature_matrix(ds, opt_level, engine=None):
    return featurize_dataset(IR2VecFeaturizer(opt_level=opt_level), ds,
                             engine=engine)


def graph_dataset(ds, opt_level):
    return featurize_dataset(ProGraMLFeaturizer(opt_level=opt_level), ds)


@pytest.fixture(scope="module")
def small():
    ds = load_mbi(subsample=160)
    y = np.array([s.binary for s in ds])
    return ds, y


def test_feature_matrix_shape_and_cache(small):
    ds, _ = small
    engine = ExecutionEngine()
    X1 = ir2vec_feature_matrix(ds, "Os", engine)
    X2 = ir2vec_feature_matrix(ds, "Os", engine)
    assert X1.shape == (len(ds), 512)
    assert X1.tobytes() == X2.tobytes()
    assert engine.stats["features"].hits == len(ds)   # second call cached
    X0 = ir2vec_feature_matrix(ds, "O0", engine)
    assert not np.allclose(X0, X1)


def test_feature_cache_keys_on_full_content(small):
    """Datasets differing only in a *middle* sample must not share features.

    Regression test for the old (name, len, first/last-5 names) cache key,
    which silently returned stale features in exactly this situation.
    """
    from dataclasses import replace

    ds, _ = small
    mutated = replace(
        ds.samples[len(ds) // 2],
        source="#include <mpi.h>\n"
               "int main(int argc, char** argv) {\n"
               "  MPI_Init(&argc, &argv);\n  MPI_Finalize();\n  return 0;\n}\n")
    samples = list(ds.samples)
    samples[len(ds) // 2] = mutated
    from repro.datasets.loader import Dataset

    twin = Dataset(ds.name, samples)      # same name/len/first5/last5 names
    engine = ExecutionEngine()
    X_orig = ir2vec_feature_matrix(ds, "Os", engine)
    X_twin = ir2vec_feature_matrix(twin, "Os", engine)
    assert engine.stats["features"].misses == len(ds) + 1
    assert not np.allclose(X_orig[len(ds) // 2], X_twin[len(ds) // 2])


def test_featurize_dataset_generic_cache(small):
    ds, _ = small
    engine = ExecutionEngine()
    feat = IR2VecFeaturizer(opt_level="Os", seed=42)
    X1 = featurize_dataset(feat, ds, engine=engine)
    # A *different instance* with equal config must hit the same entries.
    X2 = featurize_dataset(IR2VecFeaturizer(opt_level="Os", seed=42), ds,
                           engine=engine)
    assert engine.stats["features"].hits == len(ds)
    assert np.array_equal(X1, X2)
    assert np.array_equal(X1, ir2vec_feature_matrix(ds, "Os"))


def test_ir2vec_model_beats_chance(small):
    ds, y = small
    X = ir2vec_feature_matrix(ds, "Os")
    rng = np.random.default_rng(0)
    order = rng.permutation(len(ds))
    cut = int(len(ds) * 0.8)
    tr, va = order[:cut], order[cut:]
    model = IR2vecModel(use_ga=False)
    model.fit(X[tr], y[tr])
    majority = max(np.mean(y[va] == "Incorrect"), np.mean(y[va] == "Correct"))
    assert model.score(X[va], y[va]) > majority - 0.05


def test_ir2vec_model_ga_selects_five(small):
    ds, y = small
    X = ir2vec_feature_matrix(ds, "Os")
    model = IR2vecModel(use_ga=True,
                        ga_config=GAConfig(population_size=30, generations=2))
    model.fit(X, y)
    assert len(model.selected) == 5
    assert model.predict(X).shape == (len(ds),)


def test_ir2vec_model_unfitted_raises(small):
    ds, _ = small
    X = ir2vec_feature_matrix(ds, "Os")
    with pytest.raises(AssertionError):
        IR2vecModel().predict(X)


def test_gnn_model_trains_and_predicts(small):
    ds, y = small
    graphs = graph_dataset(ds, "O0")
    model = GNNModel(epochs=3, lr=3e-3, seed=1)
    vocab = build_vocabulary(graphs)
    model.fit(graphs, y, vocab)
    pred = model.predict(graphs)
    assert pred.shape == (len(ds),)
    assert set(pred) <= {"Correct", "Incorrect"}
    proba = model.predict_proba(graphs[:5])
    assert proba.shape == (5, 2)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-5)
    # Training accuracy should beat the majority class after 3 epochs.
    majority = max(np.mean(y == "Incorrect"), np.mean(y == "Correct"))
    assert model.score(graphs, y) >= majority - 0.1


def test_gnn_model_handles_unseen_vocab(small):
    ds, y = small
    graphs = graph_dataset(ds, "O0")
    vocab = build_vocabulary(graphs[:50])
    model = GNNModel(epochs=1, seed=0)
    model.fit(graphs[:50], y[:50], vocab)
    # Predicting graphs with tokens unseen at training must not crash.
    pred = model.predict(graphs[50:60])
    assert len(pred) == 10


def test_config_profiles():
    fast = ReproConfig.fast()
    paper = ReproConfig.paper()
    assert fast.folds < paper.folds
    assert fast.ga.population_size < paper.ga.population_size
    assert paper.ga.population_size == 2500
    assert paper.ga.generations == 25
    assert paper.gnn_lr == pytest.approx(4e-4)
    assert paper.gnn_epochs == 10
