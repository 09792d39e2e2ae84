"""DetectionPipeline: fit/predict_batch, custom stages, batch parity."""

import copy
from dataclasses import dataclass

import numpy as np
import pytest

from repro.datasets import load_corrbench
from repro.engine import EngineConfig, ExecutionEngine
from repro.ml import GAConfig
from repro.pipeline import (
    DetectionPipeline,
    DecisionTreeStageConfig,
    GNNStageConfig,
    register_featurizer,
)
from repro.pipeline.registry import FEATURIZERS

CORRECT_SRC = """
#include <mpi.h>
int main(int argc, char** argv) {
  int rank; int buf[4]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) MPI_Send(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD);
  if (rank == 1) MPI_Recv(buf, 4, MPI_INT, 0, 0, MPI_COMM_WORLD, &st);
  MPI_Finalize();
  return 0;
}
"""

SMOKE_GA = GAConfig(population_size=20, generations=2)


@pytest.fixture(scope="module")
def dataset():
    return load_corrbench(subsample=60)


@pytest.fixture(scope="module")
def ir2vec_pipeline(dataset):
    return DetectionPipeline.from_method(
        "ir2vec", ga_config=SMOKE_GA).fit(dataset)


@pytest.fixture(scope="module")
def gnn_pipeline(dataset):
    return DetectionPipeline.from_method("gnn", epochs=1).fit(dataset)


def test_from_method_defaults():
    ir2 = DetectionPipeline.from_method("ir2vec")
    gnn = DetectionPipeline.from_method("gnn")
    assert ir2.frontend.opt_level == "Os"        # paper default
    assert gnn.frontend.opt_level == "O0"
    assert ir2.method == "ir2vec" and gnn.method == "gnn"
    with pytest.raises(ValueError, match="method must be"):
        DetectionPipeline.from_method("transformer")


def test_incompatible_stages_rejected():
    """Matrix-vs-graph mismatches fail at assembly, not deep in the model."""
    with pytest.raises(ValueError, match="expects"):
        DetectionPipeline.from_names("programl", "decision-tree")
    with pytest.raises(ValueError, match="expects"):
        DetectionPipeline.from_names("ir2vec", "gnn")


def test_unfitted_predict_raises():
    with pytest.raises(RuntimeError, match="fit"):
        DetectionPipeline.from_method("ir2vec").predict_batch([CORRECT_SRC])


def test_invalid_label_mode_rejected(dataset):
    with pytest.raises(ValueError, match="binary"):
        DetectionPipeline.from_method("ir2vec").fit(dataset, labels="wrong")


def test_predict_batch_accepts_mixed_inputs(ir2vec_pipeline, dataset):
    sample = dataset.samples[0]
    results = ir2vec_pipeline.predict_batch(
        [CORRECT_SRC, sample, ("named.c", CORRECT_SRC)])
    assert len(results) == 3
    for r in results:
        assert r.label in ("Correct", "Incorrect")
        assert r.method == "ir2vec"
    # Identical source → identical verdict (shared compile cache).
    assert results[0].label == results[2].label


@pytest.mark.parametrize("which", ["ir2vec", "gnn"])
def test_batch_matches_per_sample_check(which, dataset, ir2vec_pipeline,
                                        gnn_pipeline):
    """predict_batch and the facade's one-at-a-time check() must agree."""
    pipeline = ir2vec_pipeline if which == "ir2vec" else gnn_pipeline
    samples = dataset.samples[:12]
    batch = pipeline.predict_batch(samples)
    singles = [pipeline.predict_source(s.source, s.name) for s in samples]
    assert [r.label for r in batch] == [r.label for r in singles]


def _cold_run(pipeline, samples, which):
    """Labels and per-sample scores for one ``predict_batch`` call on a
    fresh engine, so no store tier answers from an earlier call.  The
    scores are GNN probabilities, or the IR2vec rows the tree reads."""
    cold = copy.copy(pipeline)
    with ExecutionEngine(EngineConfig(workers=0)) as engine:
        cold.engine = engine
        labels = [r.label for r in cold.predict_batch(samples)]
        features = engine.featurize_samples(cold.frontend, cold.featurizer,
                                            samples)
    scores = (cold.classifier.predict_proba(features) if which == "gnn"
              else np.asarray(features))
    return labels, scores


@pytest.mark.parametrize("which", ["ir2vec", "gnn"])
def test_results_do_not_depend_on_batch_composition(which, dataset,
                                                    ir2vec_pipeline,
                                                    gnn_pipeline):
    """A micro-batch may hold one source several times next to others:
    each sample gets exactly the verdict and scores it gets alone."""
    pipeline = ir2vec_pipeline if which == "ir2vec" else gnn_pipeline
    a, b = dataset.samples[0], dataset.samples[1]
    assert a.source != b.source
    labels, scores = _cold_run(pipeline, [a, a, b, a], which)
    alone = {s.name: _cold_run(pipeline, [s], which) for s in (a, b)}
    for i, sample in enumerate([a, a, b, a]):
        alone_labels, alone_scores = alone[sample.name]
        assert labels[i] == alone_labels[0]
        np.testing.assert_array_equal(scores[i], alone_scores[0])


def test_predict_dataset_matches_batch(ir2vec_pipeline, dataset):
    labels = ir2vec_pipeline.predict_dataset(dataset)
    batch = ir2vec_pipeline.predict_batch(dataset.samples)
    assert list(labels) == [r.label for r in batch]


# ---------------------------------------------------------------------------
# Acceptance: a custom featurizer registered with no core-code edits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CallCountConfig:
    opt_level: str = "O0"


class CallCountFeaturizer:
    """Toy featurizer: counts of call/total instructions per module."""

    name = "call-count"
    kind = "matrix"

    def __init__(self, config=None, **overrides):
        self.config = config or CallCountConfig(**overrides)

    @property
    def opt_level(self):
        return self.config.opt_level

    def transform(self, modules):
        rows = []
        for module in modules:
            n_inst = n_call = 0
            for fn in module.defined_functions():
                for block in fn.blocks:
                    for inst in block.instructions:
                        n_inst += 1
                        n_call += type(inst).__name__ == "CallInst"
            rows.append([float(n_inst), float(n_call),
                         float(n_inst - n_call), 1.0, 0.0])
        return np.asarray(rows)


def test_custom_featurizer_end_to_end(dataset):
    """register_featurizer → build by name → fit → predict, no core edits."""
    if "call-count" not in FEATURIZERS:
        register_featurizer("call-count", CallCountFeaturizer, CallCountConfig)
    pipeline = DetectionPipeline.from_names(
        "call-count", "decision-tree",
        classifier_config=DecisionTreeStageConfig(use_ga=False))
    pipeline.fit(dataset)
    results = pipeline.predict_batch([CORRECT_SRC, *dataset.samples[:4]])
    assert len(results) == 5
    assert all(r.label in ("Correct", "Incorrect") for r in results)
    assert results[0].method == "call-count+decision-tree"


def test_custom_featurizer_artifact_roundtrip(tmp_path, dataset):
    if "call-count" not in FEATURIZERS:
        register_featurizer("call-count", CallCountFeaturizer, CallCountConfig)
    pipeline = DetectionPipeline.from_names(
        "call-count", "decision-tree",
        classifier_config=DecisionTreeStageConfig(use_ga=False)).fit(dataset)
    path = str(tmp_path / "custom.rpd")
    pipeline.save(path)
    reloaded = DetectionPipeline.load(path)
    original = [r.label for r in pipeline.predict_batch(dataset.samples[:8])]
    restored = [r.label for r in reloaded.predict_batch(dataset.samples[:8])]
    assert original == restored


def test_pipeline_close_shuts_down_engine_pool(dataset, fan_out_small):
    from repro.engine import EngineConfig, ExecutionEngine

    engine = ExecutionEngine(EngineConfig(workers=2))
    pipeline = DetectionPipeline.from_names(
        "ir2vec", "decision-tree",
        classifier_config=DecisionTreeStageConfig(use_ga=False),
        engine=engine).fit(dataset)
    # Sources the engine's store has not seen, so the pool does the work.
    unseen = [(s.name, s.source + "\n/* unseen */\n")
              for s in dataset.samples[:8]]
    assert len(pipeline.predict_batch(unseen[:4])) == 4
    assert engine.pool_active
    pipeline.close()
    assert not engine.pool_active
    # close() is teardown, not a lobotomy: predicting again just
    # restarts the pool.
    assert len(pipeline.predict_batch(unseen[4:])) == 4
    assert engine.pool_active
    pipeline.close()
    assert not engine.pool_active


def test_pipeline_context_manager(dataset, fan_out_small):
    from repro.engine import EngineConfig, ExecutionEngine

    engine = ExecutionEngine(EngineConfig(workers=2))
    with DetectionPipeline.from_names(
            "ir2vec", "decision-tree",
            classifier_config=DecisionTreeStageConfig(use_ga=False),
            engine=engine) as pipeline:
        pipeline.fit(dataset)
        pipeline.predict_batch(dataset.samples[:4])
        assert engine.pool_active
    assert not engine.pool_active
