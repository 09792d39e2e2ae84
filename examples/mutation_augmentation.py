#!/usr/bin/env python3
"""Mutation-based bug injection (paper Section V-F / VI future work).

The paper's scaling plan beyond MBI and MPI-CorrBench is to "use mutation
techniques or GitHub to acquire new incorrect cases".  This example runs
that loop end-to-end with the library's mutation engine:

1. take a correct ping-pong from the MBI-style suite,
2. inject each kind of bug the engine knows (dropped call, tag mismatch,
   invalid count, detached Isend, ...),
3. show that a detector trained on the plain suite flags the mutants it
   never saw, and
4. measure the per-operator detection rate over the whole suite.

Run:  python examples/mutation_augmentation.py
"""

from repro import DetectionPipeline
from repro.datasets import CORRECT, MutationEngine, load_mbi
from repro.eval import ReproConfig
from repro.eval.experiments import mutation_detection, render_mutation_detection

def main() -> None:
    config = ReproConfig.smoke()
    dataset = load_mbi(subsample=config.mbi_subsample)

    # -- 1/2: mutate one correct program --------------------------------
    correct = next(s for s in dataset if s.label == CORRECT)
    engine = MutationEngine(seed=7)
    mutants = engine.mutate_sample(correct, per_sample=4)
    print(f"base program: {correct.name}")
    for m in mutants:
        print(f"  {m.operator:<18} -> {m.sample.label}")

    # -- 3: train on the plain suite, check the mutants (one batch) ------
    pipeline = DetectionPipeline.from_method(
        "ir2vec", ga_config=config.ga).fit(dataset)
    print("\nverdicts on unseen mutants:")
    results = pipeline.predict_batch([m.sample for m in mutants])
    for m, result in zip(mutants, results):
        marker = "HIT " if not result.is_correct else "MISS"
        print(f"  [{marker}] {m.operator:<18} predicted={result.label}")

    # -- 4: per-operator detection rate over the suite ------------------
    rows = mutation_detection(config, "MBI", per_sample=2)
    print()
    print(render_mutation_detection(rows, "MBI"))


if __name__ == "__main__":
    main()
