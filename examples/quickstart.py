#!/usr/bin/env python3
"""Quickstart: assemble, train, batch-apply, and persist a detection pipeline.

Builds the paper's IR2vec + decision-tree stack *by stage name* through
the pipeline registries, trains it on a slice of the MBI-style suite, and
then classifies:

1. held-out suite programs the model never saw — in one ``predict_batch``
   call (shared compile cache, one vectorized classifier call) — the
   in-distribution setting of the paper's Intra experiments, and
2. a hand-written minimal recv/recv deadlock — an out-of-distribution
   probe.  The paper's Hypre study (Table VI) shows exactly this regime
   is where benchmark-trained models get brittle, so treat this verdict
   as a demonstration of the limitation, not of the headline accuracy.

Finally the fitted pipeline round-trips through the versioned artifact
format (JSON manifest + per-stage blobs).

All compile/featurize work runs on the process default execution
engine, which is serial with an in-memory cache.  To fan it out over
worker processes and make re-runs skip compilation and featurization
entirely, install another one first::

    from repro.engine import EngineConfig, ExecutionEngine, set_default_engine
    set_default_engine(ExecutionEngine(EngineConfig(
        workers=4, cache_dir="~/.cache/repro")))

(the CLI equivalent is ``python -m repro train --workers 4 --cache-dir
~/.cache/repro ...``).

To serve the saved artifact over HTTP — concurrent requests coalesced
into micro-batched ``predict_batch`` calls, hot-reloadable on retrain —
run ``python -m repro serve <artifact>`` (see docs/serving.md).

Run:  python examples/quickstart.py
"""

import os
import tempfile

from repro.datasets import load_mbi
from repro.pipeline import (
    DetectionPipeline,
    DecisionTreeStageConfig,
    classifier_names,
    featurizer_names,
)
from repro.ml import GAConfig

HANDWRITTEN_DEADLOCK = """
#include <mpi.h>
int main(int argc, char** argv) {
  int rank;
  int buffer[8];
  MPI_Status status;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  int peer = (rank == 0) ? 1 : 0;
  /* both ranks receive first: classic call-ordering deadlock */
  MPI_Recv(buffer, 8, MPI_INT, peer, 0, MPI_COMM_WORLD, &status);
  MPI_Send(buffer, 8, MPI_INT, peer, 0, MPI_COMM_WORLD);
  MPI_Finalize();
  return 0;
}
"""


def main() -> None:
    print("Registered stages:")
    print(f"  featurizers: {', '.join(featurizer_names())}")
    print(f"  classifiers: {', '.join(classifier_names())}")

    from repro.engine import default_engine

    engine = default_engine()
    print(f"execution engine: workers={engine.workers} "
          f"cache_dir={engine.cache_dir or '(disabled)'}  "
          "(see set_default_engine in this file's docstring)")

    print("\nLoading the MBI-style dataset (generated, deterministic)...")
    training = load_mbi(subsample=600)
    correct, incorrect = training.correct_incorrect_counts()
    print(f"  training on {len(training)} codes "
          f"({correct} correct / {incorrect} incorrect)")

    # Held-out programs: in the full suite but not in the training slice.
    full = load_mbi()
    trained_names = {s.name for s in training.samples}
    held_out = [s for s in full if s.name not in trained_names][:40]

    print("Assembling ir2vec + decision-tree by name "
          "(-Os IR, vector normalization, GA feature selection)...")
    pipeline = DetectionPipeline.from_names(
        "ir2vec", "decision-tree",
        classifier_config=DecisionTreeStageConfig(
            ga=GAConfig(population_size=150, generations=8)),
        method="ir2vec")
    pipeline.fit(training, labels="binary")

    print(f"\nchecking {len(held_out)} held-out suite programs in one "
          "batch (the paper's Intra setting):")
    results = pipeline.predict_batch(held_out)
    hits = 0
    for i, (sample, result) in enumerate(zip(held_out, results)):
        hit = result.is_correct == sample.is_correct
        hits += hit
        if i < 6:                      # show the first few verdicts
            marker = "HIT " if hit else "MISS"
            print(f"  [{marker}] {sample.name:44s} truth={sample.label:<18} "
                  f"predicted={result.label}")
    print(f"  ... held-out accuracy: {hits}/{len(held_out)} "
          f"= {hits / len(held_out):.2f}  (paper-scale training reaches "
          "~0.92, Table II)")

    print("\nhand-written minimal deadlock (out of distribution — "
          "see Table VI):")
    result = pipeline.predict_source(HANDWRITTEN_DEADLOCK, "handwritten.c")
    print(f"  recv/recv deadlock -> {result.label}  ({result.detail})")

    print("\nsaving + reloading the versioned artifact...")
    with tempfile.TemporaryDirectory() as tmp:
        artifact = os.path.join(tmp, "quickstart.rpd")
        pipeline.save(artifact)
        reloaded = DetectionPipeline.load(artifact)
        again = reloaded.predict_source(HANDWRITTEN_DEADLOCK, "handwritten.c")
        print(f"  artifact contents: {sorted(os.listdir(artifact))}")
        print(f"  reloaded verdict matches: {again.label == result.label}")

    print("\nnext: serve an artifact over HTTP with micro-batching + "
          "hot reload —")
    print("  python -m repro train -d corrbench --profile smoke "
          "-o model.rpd")
    print("  python -m repro serve model.rpd        # see docs/serving.md")


if __name__ == "__main__":
    main()
