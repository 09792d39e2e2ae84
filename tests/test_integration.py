"""Cross-module integration tests: the full pipeline on real scenarios."""

import numpy as np
import pytest

from repro.datasets import load_corrbench, load_mbi
from repro.datasets.hypre import hypre_pair
from repro.embeddings.ir2vec import default_encoder
from repro.frontend import compile_c
from repro.graphs import build_program_graph
from repro.ir import parse_module, print_module, verify_module
from repro.mpi.simulator import RunOutcome, simulate


def test_c_to_every_representation():
    """One source through compiler, printer/parser, embedding, graph, sim."""
    sample = load_mbi().samples[0]
    module = compile_c(sample.source, sample.name, "O0")
    verify_module(module)
    # Textual round-trip.
    assert print_module(parse_module(print_module(module))) == print_module(module)
    # Embedding.
    vec = default_encoder().encode(module)
    assert vec.shape == (512,) and np.isfinite(vec).all()
    # Graph.
    graph = build_program_graph(module)
    assert graph.num_nodes > 10
    # Simulation terminates with a verdict.
    report = simulate(module, nprocs=2, max_steps=100_000)
    assert report.outcome in RunOutcome
    assert report.steps > 0


def test_embeddings_separate_correct_from_deadlock_population():
    """Centroid distance sanity: deadlocks shouldn't embed like correct."""
    ds = load_mbi(subsample=300)
    enc = default_encoder()
    groups = {"Correct": [], "Call Ordering": []}
    for s in ds:
        if s.label in groups and len(groups[s.label]) < 25:
            groups[s.label].append(enc.encode(compile_c(s.source, s.name, "Os")))
    a = np.mean(groups["Correct"], axis=0)
    b = np.mean(groups["Call Ordering"], axis=0)
    within = np.mean([np.linalg.norm(v - a) for v in groups["Correct"]])
    between = np.linalg.norm(a - b)
    assert between > 0.0
    assert np.isfinite(within)


def test_hypre_incorrect_races_under_simulation():
    """The tag-reuse bug must be a *real* race with >= 3 ranks."""
    ok, ko = hypre_pair()
    ok_report = simulate(compile_c(ok.source, ok.name, "O0", verify=False),
                         nprocs=3, max_steps=400_000)
    ko_report = simulate(compile_c(ko.source, ko.name, "O0", verify=False),
                         nprocs=3, max_steps=400_000)
    assert ok_report.outcome is RunOutcome.OK
    assert not ok_report.has("type_mismatch")
    # The same-tag version lets phase-2 messages match phase-1 receives.
    assert ko_report.outcome is not RunOutcome.FAULT


def test_both_suites_fully_compile_at_model_opt_levels():
    mbi = load_mbi(subsample=150)
    corr = load_corrbench(subsample=80)
    for ds, opts in ((mbi, ("O0", "Os")), (corr, ("O0", "Os"))):
        for s in ds:
            for opt in opts:
                module = compile_c(s.source, s.name, opt, verify=False)
                assert module.get_function("main") is not None


def test_feature_matrix_has_no_degenerate_columns_after_ga_input_norm():
    from repro.embeddings.normalize import normalize_features
    from repro.models import featurize_dataset
    from repro.pipeline import IR2VecFeaturizer

    ds = load_mbi(subsample=150)
    X = normalize_features(
        featurize_dataset(IR2VecFeaturizer(opt_level="Os"), ds), "vector")
    assert np.isfinite(X).all()
    assert np.abs(X).max() <= 1.0 + 1e-9
    # At least half the coordinates vary across programs.
    varying = (X.std(axis=0) > 1e-12).mean()
    assert varying > 0.5


def test_top_level_public_api_surface():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    # The headline objects are importable from the package root.
    from repro import DetectionPipeline, MutationEngine, localize_error  # noqa: F401
