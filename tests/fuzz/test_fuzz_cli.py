"""CLI verbs: ``repro fuzz run`` / ``repro fuzz replay``."""

import json
import os

from repro.cli import main
from repro.fuzz import CorpusStore, load_fuzz_report


def test_fuzz_run_acceptance_byte_identical_across_workers(tmp_path):
    """The acceptance bar: ``fuzz run --seed 7 --budget 200`` emits the
    same bytes with ``--workers 0`` and ``--workers 4``."""
    out0 = str(tmp_path / "w0.json")
    out4 = str(tmp_path / "w4.json")
    assert main(["fuzz", "run", "--seed", "7", "--budget", "200",
                 "--workers", "0", "-o", out0]) == 0
    assert main(["fuzz", "run", "--seed", "7", "--budget", "200",
                 "--workers", "4", "-o", out4]) == 0
    with open(out0, "rb") as fh0, open(out4, "rb") as fh4:
        assert fh0.read() == fh4.read()


def test_fuzz_run_populates_and_replays_corpus(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "FUZZ_report.json")
    assert main(["fuzz", "run", "--seed", "3", "--budget", "4",
                 "--corpus-dir", corpus, "-o", out]) == 0
    doc = load_fuzz_report(out)
    assert doc["counts"]["new_corpus_cases"] == 3        # known-bug seeds
    capsys.readouterr()
    # Second run replays all minimized cases before generating new ones.
    assert main(["fuzz", "run", "--seed", "3", "--budget", "4",
                 "--corpus-dir", corpus, "-o", out]) == 0
    doc2 = load_fuzz_report(out)
    assert doc2["counts"]["replayed"] == 3
    assert doc2["counts"]["replay_mismatches"] == 0
    summary = capsys.readouterr().out
    assert "replayed 3" in summary and "mismatches 0" in summary


def test_fuzz_replay_verb_and_tamper_detection(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "r.json")
    assert main(["fuzz", "run", "--seed", "3", "--budget", "0",
                 "--corpus-dir", corpus, "-o", out]) == 0
    assert main(["fuzz", "replay", "--corpus-dir", corpus]) == 0
    assert "0 mismatch" in capsys.readouterr().out

    fname = sorted(os.listdir(corpus))[0]
    path = os.path.join(corpus, fname)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["kind"] = "frontend_crash:RecursionError"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["fuzz", "replay", "--corpus-dir", corpus]) == 1
    assert "FAIL" in capsys.readouterr().out
    # The campaign gate blocks on the mismatch too.
    assert main(["fuzz", "run", "--seed", "3", "--budget", "0",
                 "--corpus-dir", corpus, "-o", out]) == 1


def test_fuzz_run_json_mode_prints_valid_report(tmp_path, capsys):
    out = str(tmp_path / "j.json")
    assert main(["fuzz", "run", "--seed", "4", "--budget", "2",
                 "--no-known-bugs", "--json", "-o", out]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "repro-fuzz-report"
    assert doc["counts"]["generated"] == 2


def test_fuzz_run_rejects_bad_model_and_bad_config(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["fuzz", "run", "--model", str(tmp_path / "nope.rpd"),
                 "-o", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["fuzz", "run", "--nprocs", "1", "-o", out]) == 2
    assert "nprocs" in capsys.readouterr().err


def test_fuzz_replay_rejects_missing_empty_or_misconfigured(tmp_path,
                                                           capsys):
    """The CI replay gate must never pass green without verifying
    anything: a typo'd path, an empty corpus, and an out-of-range
    --nprocs are all clean errors, and no stray directory appears."""
    missing = tmp_path / "no-such-corpus"
    assert main(["fuzz", "replay", "--corpus-dir", str(missing)]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert not missing.exists()

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["fuzz", "replay", "--corpus-dir", str(empty)]) == 2
    assert "no cases" in capsys.readouterr().err

    out = str(tmp_path / "r.json")
    corpus = str(tmp_path / "corpus")
    main(["fuzz", "run", "--seed", "3", "--budget", "0",
          "--corpus-dir", corpus, "-o", out])
    assert main(["fuzz", "replay", "--corpus-dir", corpus,
                 "-n", "9"]) == 2
    assert "nprocs" in capsys.readouterr().err


def test_fuzz_run_with_model_oracle(tmp_path):
    from repro.datasets import load_corrbench
    from repro.pipeline import DetectionPipeline

    model = str(tmp_path / "model.rpd")
    pipeline = DetectionPipeline.from_names("ir2vec", "decision-tree")
    pipeline.fit(load_corrbench(subsample=40))
    pipeline.save(model)
    out = str(tmp_path / "m.json")
    assert main(["fuzz", "run", "--seed", "5", "--budget", "4",
                 "--no-known-bugs", "--model", model, "-o", out]) == 0
    doc = load_fuzz_report(out)
    assert doc["model"]["checked"] == 4


def test_fuzz_corpus_survives_cli_roundtrip(tmp_path):
    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "c.json")
    main(["fuzz", "run", "--seed", "3", "--budget", "0",
          "--corpus-dir", corpus, "-o", out])
    cases = CorpusStore(corpus).cases()
    assert {c.name for c in cases} == {
        "known-bug-deep-expression.c", "known-bug-deep-blocks.c",
        "known-bug-negative-extent.c"}
    for case in cases:
        assert case.status == "rejected"
        assert case.origin.startswith("known-bug:")


def test_fuzz_run_obs_log_writes_campaign_events(tmp_path):
    from repro.obs import EVENTS

    log = tmp_path / "events.jsonl"
    assert main(["fuzz", "run", "--seed", "3", "--budget", "2",
                 "--no-known-bugs", "--obs-log", str(log),
                 "-o", str(tmp_path / "r.json")]) == 0
    events = [json.loads(line)["event"]
              for line in log.read_text().splitlines()]
    assert events[0] == "fuzz.campaign_start"
    assert events[-1] == "fuzz.campaign_end"
    assert not EVENTS.enabled                  # the run closed its sink


def test_campaign_ignores_obs_log_environment(tmp_path, monkeypatch):
    from repro.fuzz import FuzzConfig, run_campaign
    from repro.obs import EVENTS

    log = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_OBS_LOG", str(log))
    run_campaign(FuzzConfig(seed=3, budget=2, include_known_bugs=False))
    assert not log.exists()
    assert not EVENTS.enabled
