"""The pinned seed table: packaged, loaded without training, carried by
artifacts, and tied to the code that would retrain it."""

import numpy as np
import pytest

from repro.datasets import load_corrbench
from repro.embeddings import ir2vec, seed_table
from repro.engine import EngineConfig, ExecutionEngine
from repro.ml import GAConfig
from repro.pipeline import DetectionPipeline
from repro.pipeline.stages import (
    CFrontend,
    IR2VecFeaturizer,
    IR2VecFeaturizerConfig,
)

SMOKE_GA = GAConfig(population_size=20, generations=2)


def _forbidden(*args, **kwargs):
    raise AssertionError("the seed table must not be trained")


@pytest.fixture
def no_training(monkeypatch):
    """A fresh encoder cache in which any TransE training fails."""
    monkeypatch.setattr(ir2vec, "_DEFAULT_ENCODERS", {})
    monkeypatch.setattr(seed_table, "train_seed_embeddings", _forbidden)
    monkeypatch.setattr("repro.embeddings.transe.train_seed_embeddings",
                        _forbidden)


def _features(pipeline, samples):
    """Rows recomputed on a fresh engine (no memory-tier hits)."""
    pipeline.engine = ExecutionEngine()
    return pipeline.engine.featurize_samples(pipeline.frontend,
                                             pipeline.featurizer, samples)


def test_pinned_recipe_matches_code():
    """The packaged table was trained from the corpus, hyperparameters
    and trainer source the code has now; re-pin when this fails."""
    _seeds, recipe = seed_table.load_pinned()
    triples = seed_table.corpus_triples(seed_table.canonical_corpus())
    assert recipe == seed_table.recipe_digest(triples)


def test_pinned_table_shape_and_bytes_roundtrip():
    with open(seed_table.TABLE_PATH, "rb") as fh:
        blob = fh.read()
    seeds, recipe = seed_table.from_bytes(blob)
    assert seeds.dim == seed_table.PINNED_DIM
    assert seeds.entity_vectors.shape == (len(seeds.entities),
                                          seed_table.PINNED_DIM)
    assert sorted(seeds.relations) == ["Arg", "NextInst", "TypeOf"]
    assert seed_table.to_bytes(seeds, recipe) == blob


def test_default_encoder_42_loads_without_training(no_training):
    encoder = ir2vec.default_encoder(42)
    pinned, _recipe = seed_table.load_pinned()
    assert encoder.seeds.entities == pinned.entities
    assert np.array_equal(encoder.seeds.entity_vectors,
                          pinned.entity_vectors)
    assert ir2vec.default_encoder(42) is encoder


def test_load_and_predict_never_train(tmp_path, no_training):
    dataset = load_corrbench(subsample=30)
    path = str(tmp_path / "model.rpd")
    DetectionPipeline.from_method("ir2vec", ga_config=SMOKE_GA) \
        .fit(dataset).save(path)
    ir2vec._DEFAULT_ENCODERS.clear()
    loaded = DetectionPipeline.load(path)
    results = loaded.predict_batch([s.source for s in dataset.samples[:4]])
    assert len(results) == 4
    assert ir2vec._DEFAULT_ENCODERS == {}        # the artifact's own table


def test_seed7_pipeline_roundtrips_without_retraining(tmp_path,
                                                      monkeypatch):
    dataset = load_corrbench(subsample=30)
    pipeline = DetectionPipeline.from_method("ir2vec", embedding_seed=7,
                                             ga_config=SMOKE_GA)
    pipeline.fit(dataset)
    before = _features(pipeline, dataset.samples)
    path = str(tmp_path / "seed7.rpd")
    pipeline.save(path)

    monkeypatch.setattr(ir2vec, "_DEFAULT_ENCODERS", {})
    monkeypatch.setattr(seed_table, "train_seed_embeddings", _forbidden)
    loaded = DetectionPipeline.load(path)
    assert loaded.featurizer.seed == 7
    after = _features(loaded, dataset.samples)
    assert after.tobytes() == before.tobytes()


def test_default_table_id_of_pinned_seed_is_its_content_digest():
    pinned, _recipe = seed_table.load_pinned()
    assert ir2vec.default_table_id(42) == ir2vec.IR2VecEncoder(pinned).digest


def test_warm_store_answers_a_trained_seed_without_training(tmp_path,
                                                            monkeypatch):
    """A trained default table is keyed by its recipe, not its bits, so
    a warm rerun of a seed without a pinned table reads the store and
    never trains; installing the table (warmup) keeps the key."""
    samples = load_corrbench(subsample=30).samples[:6]
    frontend = CFrontend()
    tiny = ir2vec.default_encoder(
        7, corpus=[frontend.compile(s.source, s.name) for s in samples[:2]],
        dim=8)
    # As if seed 7 had been trained in this process already.
    monkeypatch.setattr(ir2vec, "_DEFAULT_ENCODERS", {7: tiny})
    monkeypatch.setattr(ir2vec, "_DEFAULT_TABLE_IDS", {})
    featurizer = IR2VecFeaturizer(IR2VecFeaturizerConfig(seed=7))
    name = featurizer.state_digest()
    assert name.startswith("recipe:")
    featurizer.warmup()
    assert featurizer.state_digest() == name
    cold = ExecutionEngine(EngineConfig(cache_dir=str(tmp_path))) \
        .featurize_samples(frontend, featurizer, samples)

    # A fresh process: nothing trained or named, and training fails.
    monkeypatch.setattr(ir2vec, "_DEFAULT_ENCODERS", {})
    monkeypatch.setattr(ir2vec, "_DEFAULT_TABLE_IDS", {})
    monkeypatch.setattr(seed_table, "train_seed_embeddings", _forbidden)
    engine = ExecutionEngine(EngineConfig(cache_dir=str(tmp_path)))
    warm = engine.featurize_samples(
        frontend, IR2VecFeaturizer(IR2VecFeaturizerConfig(seed=7)), samples)
    assert warm.tobytes() == cold.tobytes()
    assert engine.stats["features"].hits == len(samples)
    assert ir2vec._DEFAULT_ENCODERS == {}
