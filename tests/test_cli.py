"""CLI tests — every subcommand driven in-process through main()."""

import os

import pytest

from repro.cli import build_parser, main

CORRECT_SRC = """#include <mpi.h>
int main(int argc, char** argv) {
  int rank; int buf[4]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) { MPI_Send(buf, 4, MPI_INT, 1, 5, MPI_COMM_WORLD); }
  if (rank == 1) { MPI_Recv(buf, 4, MPI_INT, 0, 5, MPI_COMM_WORLD, &st); }
  MPI_Finalize();
  return 0;
}
"""

DEADLOCK_SRC = """#include <mpi.h>
int main(int argc, char** argv) {
  int rank; int buf[4]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Recv(buf, 4, MPI_INT, 1 - rank, 5, MPI_COMM_WORLD, &st);
  MPI_Finalize();
  return 0;
}
"""


@pytest.fixture()
def correct_file(tmp_path):
    path = tmp_path / "correct.c"
    path.write_text(CORRECT_SRC)
    return str(path)


@pytest.fixture()
def deadlock_file(tmp_path):
    path = tmp_path / "deadlock.c"
    path.write_text(DEADLOCK_SRC)
    return str(path)


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_docstring_table_lists_every_subcommand():
    import argparse

    import repro.cli

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    lines = repro.cli.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("=====")]
    rows = {line.split()[0] for line in lines[rules[1] + 1:rules[2]]
            if line and not line.startswith(" ")}
    assert set(sub.choices) <= rows, sorted(set(sub.choices) - rows)


def test_compile_to_stdout(correct_file, capsys):
    assert main(["compile", correct_file]) == 0
    out = capsys.readouterr().out
    assert "define" in out and "MPI_Send" in out


def test_compile_to_file(correct_file, tmp_path):
    out_path = str(tmp_path / "out.ll")
    assert main(["compile", correct_file, "-O", "Os", "-o", out_path]) == 0
    assert "define" in open(out_path).read()


def test_compile_error_reports_and_fails(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int main( {")
    assert main(["compile", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_correct_exits_zero(correct_file, capsys):
    assert main(["simulate", correct_file, "-n", "2"]) == 0
    assert "outcome: OK" in capsys.readouterr().out


def test_simulate_deadlock_exits_nonzero(correct_file, deadlock_file, capsys):
    assert main(["simulate", deadlock_file, "-n", "2"]) == 2
    out = capsys.readouterr().out
    assert "DEADLOCK" in out and "deadlock" in out


def test_verify_tools_on_deadlock(deadlock_file):
    assert main(["verify", deadlock_file, "--tool", "itac", "-n", "2"]) == 2
    # Static tools run too (verdict may differ; exit code is 0 or 2).
    assert main(["verify", deadlock_file, "--tool", "parcoach"]) in (0, 2)
    assert main(["verify", deadlock_file, "--tool", "mpi-checker"]) in (0, 2)


def test_generate_writes_suite_and_manifest(tmp_path, capsys):
    out_dir = str(tmp_path / "suite")
    assert main(["generate", "corrbench", out_dir, "--subsample", "24"]) == 0
    names = os.listdir(out_dir)
    assert "MANIFEST.tsv" in names
    c_files = [n for n in names if n.endswith(".c")]
    assert len(c_files) >= 20
    manifest = open(os.path.join(out_dir, "MANIFEST.tsv")).read()
    assert all(line.count("\t") == 1 for line in manifest.strip().splitlines())


def test_train_check_roundtrip(tmp_path, correct_file, deadlock_file, capsys):
    model_path = str(tmp_path / "model.pkl")
    assert main(["train", "-d", "corrbench", "-m", "ir2vec",
                 "--profile", "smoke", "-o", model_path]) == 0
    assert os.path.exists(model_path)
    code = main(["check", model_path, correct_file, deadlock_file])
    out = capsys.readouterr().out
    assert code in (0, 2)
    assert out.count(":") >= 2       # one verdict line per file


def test_train_check_zip_artifact(tmp_path, correct_file, deadlock_file,
                                  capsys):
    model_path = str(tmp_path / "model.zip")
    assert main(["train", "-d", "corrbench", "-m", "ir2vec",
                 "--profile", "smoke", "-o", model_path]) == 0
    assert os.path.isfile(model_path)          # single-file zip artifact
    assert main(["check", model_path, correct_file, deadlock_file]) in (0, 2)
    out = capsys.readouterr().out
    assert out.count(":") >= 2


def test_check_rejects_legacy_pickle(tmp_path, correct_file, capsys):
    import pickle
    import warnings

    legacy = str(tmp_path / "legacy.pkl")
    with open(legacy, "wb") as fh:
        pickle.dump({"old": "detector"}, fh)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        assert main(["check", legacy, correct_file]) == 1
    assert "legacy raw-pickle" in capsys.readouterr().err


def test_mutate_writes_mutants(tmp_path, correct_file, capsys):
    out_dir = str(tmp_path / "mutants")
    assert main(["mutate", correct_file, out_dir, "--count", "3"]) == 0
    out = capsys.readouterr().out
    produced = os.listdir(out_dir)
    assert produced and all(n.startswith("Mutant-") for n in produced)
    assert len(out.strip().splitlines()) == len(produced)


def test_experiment_fig3(capsys):
    assert main(["experiment", "fig3", "--profile", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "MBI" in out and "correct=" in out


def test_experiment_choices_come_from_registry():
    from repro.eval.experiments import EXPERIMENTS

    sub = next(a for a in build_parser()._actions
               if a.dest == "command").choices["experiment"]
    name = next(a for a in sub._actions if a.dest == "name")
    assert list(name.choices) == sorted(EXPERIMENTS)


def test_experiment_prints_registry_rendering(capsys):
    from repro.eval.config import ReproConfig
    from repro.eval.experiments import EXPERIMENTS

    assert main(["experiment", "table6", "--profile", "smoke"]) == 0
    out = capsys.readouterr().out
    table6 = EXPERIMENTS["table6"]
    assert out == table6.render(table6.run(ReproConfig.smoke())) + "\n"


def test_experiment_fig6_prints_plain_labels(capsys):
    assert main(["experiment", "fig6", "--profile", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "support: {'Call Ordering': " in out
    assert "np.str_" not in out


def test_experiment_fig1(capsys):
    assert main(["experiment", "fig1", "--profile", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 1" in out and "Call Ordering" in out


def test_detector_save_load_roundtrip(tmp_path):
    from repro.datasets import load_corrbench
    from repro.ml.genetic import GAConfig
    from repro.pipeline import DetectionPipeline

    ds = load_corrbench(subsample=40)
    pipeline = DetectionPipeline.from_method(
        "ir2vec", ga_config=GAConfig(population_size=20, generations=2))
    pipeline.fit(ds)
    path = str(tmp_path / "d.rpd")
    pipeline.save(path)
    loaded = DetectionPipeline.load(path)
    assert loaded.predict_source(CORRECT_SRC).label in ("Correct",
                                                        "Incorrect")


def test_gnn_detector_pickles(tmp_path):
    from repro.datasets import load_corrbench
    from repro.pipeline import DetectionPipeline

    ds = load_corrbench(subsample=30)
    pipeline = DetectionPipeline.from_method("gnn", epochs=1).fit(ds)
    path = str(tmp_path / "gnn.rpd")
    pipeline.save(path)
    loaded = DetectionPipeline.load(path)
    assert loaded.predict_source(CORRECT_SRC).label in ("Correct",
                                                        "Incorrect")


def test_localize_subcommand(tmp_path, deadlock_file, capsys):
    model_path = str(tmp_path / "loc.pkl")
    assert main(["train", "-d", "corrbench", "-m", "ir2vec",
                 "--profile", "smoke", "-o", model_path]) == 0
    capsys.readouterr()
    assert main(["localize", model_path, deadlock_file, "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "function-level suspects" in out
    assert "call-site suspects" in out
    assert "MPI_Recv" in out


def test_localize_rejects_gnn_model(tmp_path, deadlock_file, capsys):
    from repro.datasets import load_corrbench
    from repro.pipeline import DetectionPipeline

    pipeline = DetectionPipeline.from_method("gnn", epochs=1)
    pipeline.fit(load_corrbench(subsample=24))
    path = str(tmp_path / "g.rpd")
    pipeline.save(path)
    assert main(["localize", path, deadlock_file]) == 1
    assert "requires an ir2vec detector" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cache stats|clear
# ---------------------------------------------------------------------------

def test_cache_requires_a_directory(capsys):
    assert main(["cache", "stats"]) == 1
    assert "no cache directory" in capsys.readouterr().err
    assert main(["cache", "clear"]) == 1
    assert "no cache directory" in capsys.readouterr().err


def test_cache_stats_empty_directory(tmp_path, capsys):
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out and "(empty)" in out
    # A cache command runs no engine, so it reports none.
    assert "engine" not in out


def test_cache_dir_from_environment(monkeypatch, tmp_path, capsys):
    # The directory comes from --cache-dir only; the environment
    # variable the flag once defaulted from selects nothing.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["cache", "stats"]) == 1
    assert "no cache directory" in capsys.readouterr().err


def test_cache_stats_and_stagewise_clear(tmp_path, capsys):
    from repro.engine import ContentStore

    cache_dir = str(tmp_path / "cache")
    store = ContentStore(cache_dir)
    store.put("compile", store.key("compile", ["a"]), "module-a")
    store.put("compile", store.key("compile", ["b"]), "module-b")
    store.put("features", store.key("features", ["a"]), [1.0])

    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "compile" in out and "features" in out
    assert "2 entries" in out            # compile stage
    assert "total" in out and "3 entries" in out

    # Stage-scoped clear leaves the other stage alone ...
    assert main(["cache", "clear", "--cache-dir", cache_dir,
                 "--stage", "compile"]) == 0
    assert "removed 2" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    # The store table lost its compile row.
    assert "features" in out and "compile " not in out

    # ... and a full clear empties everything, idempotently.
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 0" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "(empty)" in capsys.readouterr().out


def test_cache_populated_by_train_then_cleared(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    model_path = str(tmp_path / "model.rpd")
    assert main(["train", "-d", "corrbench", "-m", "ir2vec",
                 "--profile", "smoke", "--cache-dir", cache_dir,
                 "-o", model_path]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "compile" in out and "features" in out and "total" in out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "(empty)" in capsys.readouterr().out


def test_train_with_cache_dir_after_in_process_featurize(tmp_path, capsys):
    """Features already computed in this process must not stop a train
    run from filling the store it was asked to use: ``--cache-dir``
    gives the run a new engine, and that engine's store does the work."""
    from repro.engine import ContentStore
    from repro.eval.config import ReproConfig
    from repro.eval.scenarios import featurize, stage_specs

    config = ReproConfig.smoke()
    feat_name, feat_cfg, _, _ = stage_specs("ir2vec", config)
    # the same rows train needs
    featurize(feat_name, feat_cfg, config.corrbench())
    cache_dir = str(tmp_path / "cache")
    assert main(["train", "-d", "corrbench", "-m", "ir2vec",
                 "--profile", "smoke", "--cache-dir", cache_dir,
                 "-o", str(tmp_path / "model.rpd")]) == 0
    capsys.readouterr()
    summary = ContentStore(cache_dir).summary()
    assert summary["compile"]["entries"] > 0
    assert summary["features"]["entries"] > 0


# ---------------------------------------------------------------------------
# artifact inspect
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_artifact(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli-artifacts") / "model.rpd")
    assert main(["train", "-d", "corrbench", "-m", "ir2vec",
                 "--profile", "smoke", "-o", path]) == 0
    return path


def test_artifact_inspect_human_readable(trained_artifact, capsys):
    assert main(["artifact", "inspect", trained_artifact]) == 0
    out = capsys.readouterr().out
    assert "repro.detection-pipeline" in out
    assert "method          ir2vec" in out
    assert "fitted          True" in out
    assert "frontend" in out and "featurizer" in out and "classifier" in out
    assert "sha256" in out               # per-blob digests, no unpickling


def test_artifact_inspect_json(trained_artifact, capsys):
    import json

    assert main(["artifact", "inspect", trained_artifact, "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["fitted"] is True
    assert info["stages"]["classifier"]["name"] == "decision-tree"
    state = info["stages"]["classifier"]["state"]
    assert state["bytes"] > 0 and len(state["sha256"]) == 64
    assert len(info["version"]) == 12


def test_artifact_inspect_shows_seed_table_digest(trained_artifact, capsys,
                                                  tmp_path):
    import json
    import shutil

    assert main(["artifact", "inspect", trained_artifact, "--json"]) == 0
    state = json.loads(capsys.readouterr().out)["stages"]["featurizer"][
        "state"]
    assert state["blob"] == "featurizer.bin" and len(state["sha256"]) == 64

    tampered = str(tmp_path / "tampered.rpd")
    shutil.copytree(trained_artifact, tampered)
    with open(os.path.join(tampered, "featurizer.bin"), "ab") as fh:
        fh.write(b"\0")
    assert main(["artifact", "inspect", tampered]) == 1
    assert "sha256" in capsys.readouterr().err


def test_artifact_inspect_never_unpickles(trained_artifact, capsys,
                                          monkeypatch):
    import pickle

    def forbidden(*args, **kwargs):
        raise AssertionError("inspect must not unpickle stage blobs")

    monkeypatch.setattr(pickle, "loads", forbidden)
    monkeypatch.setattr(pickle, "load", forbidden)
    monkeypatch.setattr(pickle, "Unpickler", forbidden)
    assert main(["artifact", "inspect", trained_artifact]) == 0
    assert "sha256" in capsys.readouterr().out


def test_artifact_inspect_rejects_garbage(tmp_path, capsys):
    missing = str(tmp_path / "missing.rpd")
    assert main(["artifact", "inspect", missing]) == 1
    assert "error" in capsys.readouterr().err

    import pickle

    legacy = str(tmp_path / "legacy.pkl")
    with open(legacy, "wb") as fh:
        pickle.dump({"old": "detector"}, fh)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        assert main(["artifact", "inspect", legacy]) == 1
    assert "legacy raw-pickle" in capsys.readouterr().err


def test_artifact_inspect_zip(tmp_path, capsys):
    model_path = str(tmp_path / "model.zip")
    assert main(["train", "-d", "corrbench", "-m", "ir2vec",
                 "--profile", "smoke", "-o", model_path]) == 0
    capsys.readouterr()
    assert main(["artifact", "inspect", model_path]) == 0
    out = capsys.readouterr().out
    assert "method          ir2vec" in out and "sha256" in out


def test_artifact_inspect_flags_corrupt_blob_reference(tmp_path, capsys,
                                                       trained_artifact):
    import shutil

    broken = str(tmp_path / "broken.rpd")
    shutil.copytree(trained_artifact, broken)
    os.unlink(os.path.join(broken, "classifier.bin"))
    assert main(["artifact", "inspect", broken]) == 1
    assert "missing blob" in capsys.readouterr().err


def test_serve_config_comes_from_flags_not_environment(monkeypatch):
    import repro.serve

    seen = []
    monkeypatch.setattr(repro.serve, "serve",
                        lambda model, config: seen.append(config))
    monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "3")
    assert main(["serve", "model.rpd", "--max-queue", "5"]) == 0
    (config,) = seen
    assert config.max_batch == 16
    assert config.max_queue == 5


def test_serve_has_no_batch_window_flag(capsys):
    # Dispatch is work-conserving: there is no window to configure.
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "model.rpd", "--max-wait-ms", "5"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --max-wait-ms" in capsys.readouterr().err


def test_fleet_config_comes_from_flags_not_environment(monkeypatch):
    import repro.fleet

    seen = []
    monkeypatch.setattr(repro.fleet, "serve_fleet",
                        lambda model, config: seen.append(config))
    monkeypatch.setenv("REPRO_FLEET_REPLICAS", "5")
    assert main(["fleet", "model.rpd", "--request-timeout", "9"]) == 0
    (config,) = seen
    assert config.replicas == 2
    assert config.request_timeout_s == 9.0
