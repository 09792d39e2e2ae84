"""End-to-end differential campaign tests.

The acceptance points of the fuzz subsystem:

* a seeded known-bug template is found, minimized, and persisted,
* every minimized corpus case re-triggers its recorded signature on
  replay (and a tampered case fails the replay),
* serial and parallel campaigns produce byte-identical reports,
* disagreements flow through reduce → corpus exactly like crashes,
* the report round-trips through its schema validator.
"""

import json
import os

import pytest

from repro.engine import EngineConfig, ExecutionEngine
from repro.fuzz import (
    CorpusStore,
    FuzzConfig,
    GeneratedProgram,
    load_fuzz_report,
    run_campaign,
    save_fuzz_report,
)
from repro.fuzz.harness import campaign_failed, check_source
from repro.fuzz.report import validate_fuzz_report


def test_known_bug_template_is_found_minimized_and_persisted(tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    doc = run_campaign(FuzzConfig(seed=1, budget=0,
                                  corpus_dir=corpus_dir))
    assert doc["counts"]["seeded"] == 3
    assert doc["counts"]["rejected"] == 3
    assert doc["counts"]["new_corpus_cases"] == 3
    by_name = {f["name"]: f for f in doc["findings"]}
    deep = by_name["known-bug-deep-expression.c"]
    assert deep["status"] == "rejected"
    assert deep["kind"] == "compile_reject"
    # Minimization stripped the benign statements around the trigger.
    assert deep["minimized_source"] is not None
    assert len(deep["minimized_source"].splitlines()) \
        < len(deep["source"].splitlines())
    assert "((((" in deep["minimized_source"]
    # Persisted: the corpus now holds all three distilled crashers.
    store = CorpusStore(corpus_dir)
    assert len(store) == 3
    assert not campaign_failed(doc)


def test_minimized_cases_retrigger_recorded_verdict_on_replay(tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    config = FuzzConfig(seed=1, budget=0, corpus_dir=corpus_dir)
    run_campaign(config)
    # Direct re-check: every stored case reproduces its signature.
    for case in CorpusStore(corpus_dir).cases():
        record = check_source(case.name, case.source, case.expected,
                              config.nprocs, config.max_steps)
        assert {"status": record["status"], "kind": record["kind"],
                "oracle": record["oracle"]} == case.signature
    # Second campaign replays first and adds nothing new.
    doc = run_campaign(config)
    assert doc["counts"]["replayed"] == 3
    assert doc["counts"]["replay_mismatches"] == 0
    assert doc["counts"]["new_corpus_cases"] == 0
    assert doc["counts"]["minimized"] == 0      # dedup skipped reduction
    assert all(f["in_corpus"] for f in doc["findings"])


def test_tampered_corpus_case_fails_replay_and_campaign(tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    config = FuzzConfig(seed=1, budget=0, corpus_dir=corpus_dir)
    run_campaign(config)
    fname = sorted(os.listdir(corpus_dir))[0]
    path = os.path.join(corpus_dir, fname)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["kind"] = "frontend_crash:RecursionError"   # the old, fixed bug
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    report = run_campaign(config)
    assert report["counts"]["replay_mismatches"] == 1
    assert campaign_failed(report)
    bad = [e for e in report["replay"] if not e["ok"]]
    assert bad and bad[0]["observed"]["kind"] == "compile_reject"


def test_serial_and_parallel_campaigns_are_byte_identical():
    config = FuzzConfig(seed=21, budget=16)
    serial = run_campaign(config)
    with ExecutionEngine(EngineConfig(workers=2)) as engine:
        parallel = run_campaign(config, engine=engine)
    assert json.dumps(serial, sort_keys=True) \
        == json.dumps(parallel, sort_keys=True)
    assert serial["counts"]["generated"] == config.budget
    assert serial["counts"]["hard_failures"] == 0
    assert serial["counts"]["generator_rejects"] == 0


_DIVERGENT_BARRIER = """#include <mpi.h>
int main(int argc, char** argv) {
  int rank;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank > 0) {
    MPI_Barrier(MPI_COMM_WORLD);
  }
  MPI_Finalize();
  return 0;
}
"""


def test_disagreement_is_found_minimized_and_persisted(tmp_path):
    """A seed whose construction metadata claims 'correct' but which a
    trusted oracle flags exercises the disagreement → reduce → corpus
    path end to end."""
    corpus_dir = str(tmp_path / "corpus")
    seed_program = GeneratedProgram(
        name="divergent-barrier.c", source=_DIVERGENT_BARRIER,
        expected="correct", origin="seeded-disagreement")
    doc = run_campaign(
        FuzzConfig(seed=2, budget=0, corpus_dir=corpus_dir,
                   include_known_bugs=False),
        extra_seeds=[seed_program])
    assert doc["counts"]["disagreements"] == 1
    (finding,) = doc["findings"]
    assert finding["status"] == "disagreement"
    assert finding["kind"].startswith("false_alarm:")
    assert finding["oracle"] in ("simulator", "itac", "must")
    assert finding["minimized_source"] is not None
    assert "MPI_Barrier" in finding["minimized_source"]
    (case,) = CorpusStore(corpus_dir).cases()
    assert case.status == "disagreement"
    # Disagreements are recorded, never blocking.
    assert not campaign_failed(doc)
    # And the minimized case re-triggers on the next campaign's replay.
    doc2 = run_campaign(FuzzConfig(seed=2, budget=0,
                                   corpus_dir=corpus_dir,
                                   include_known_bugs=False))
    assert doc2["counts"]["replayed"] == 1
    assert doc2["counts"]["replay_mismatches"] == 0


_STATIC_ONLY_BUG = """#include <mpi.h>
int main(int argc, char** argv) {
  int small[2];
  MPI_Init(&argc, &argv);
  MPI_Bcast(small, 8, MPI_INT, 0, MPI_COMM_WORLD);
  MPI_Finalize();
  return 0;
}
"""


def test_static_oracle_is_trusted_and_gets_its_own_triage_class(tmp_path):
    """A bug only the dataflow analyzer sees (constant-count buffer
    overflow — uniform across ranks, invisible to schedule-level
    oracles) lands in the dedicated 'static_disagreement' triage class
    when the seed metadata claims the program is correct."""
    from repro.fuzz.oracles import ORACLE_NAMES, TRUSTED_ORACLES

    assert "static" in TRUSTED_ORACLES
    assert "static" in ORACLE_NAMES
    corpus_dir = str(tmp_path / "corpus")
    seed_program = GeneratedProgram(
        name="overflow-bcast.c", source=_STATIC_ONLY_BUG,
        expected="correct", origin="seeded-static-disagreement")
    doc = run_campaign(
        FuzzConfig(seed=3, budget=0, corpus_dir=corpus_dir,
                   include_known_bugs=False),
        extra_seeds=[seed_program])
    assert doc["counts"]["static_disagreements"] == 1
    assert doc["counts"]["disagreements"] == 0
    (finding,) = doc["findings"]
    assert finding["status"] == "static_disagreement"
    assert finding["oracle"] == "static"
    (case,) = CorpusStore(corpus_dir).cases()
    assert case.status == "static_disagreement"
    # Like plain disagreements: recorded, never blocking.
    assert not campaign_failed(doc)


def test_expected_incorrect_detection_is_aggregated_not_blocking():
    doc = run_campaign(FuzzConfig(seed=5, budget=24, bug_ratio=0.8,
                                  include_known_bugs=False))
    assert doc["counts"]["expected_incorrect"] > 0
    assert doc["counts"]["hard_failures"] == 0
    # Dynamic oracles catch a healthy share; the narrow static checker
    # misses most — both are data, not failures.
    must = doc["detection"]["must"]
    assert must["detected"] + must["missed"] \
        == doc["counts"]["expected_incorrect"]
    assert must["detected"] > 0


def test_model_oracle_is_consulted_batch_first(tmp_path):
    from repro.datasets import load_corrbench
    from repro.pipeline import DetectionPipeline

    pipeline = DetectionPipeline.from_names("ir2vec", "decision-tree")
    pipeline.fit(load_corrbench(subsample=40))
    doc = run_campaign(FuzzConfig(seed=6, budget=8,
                                  include_known_bugs=False),
                       pipeline=pipeline)
    assert doc["model"] is not None
    assert doc["model"]["checked"] == 8
    assert doc["model"]["agreements"] \
        + doc["model"]["disagreements"] == 8


def test_report_roundtrips_and_rejects_corruption(tmp_path):
    doc = run_campaign(FuzzConfig(seed=8, budget=2,
                                  include_known_bugs=False))
    path = str(tmp_path / "FUZZ_report.json")
    save_fuzz_report(doc, path)
    loaded = load_fuzz_report(path)
    assert loaded == doc

    from repro.schema import SchemaError

    bad = dict(doc)
    bad["counts"] = dict(doc["counts"])
    del bad["counts"]["hard_failures"]
    with pytest.raises(SchemaError):
        validate_fuzz_report(bad)
    bad2 = dict(doc)
    bad2["schema_version"] = 9
    with pytest.raises(SchemaError):
        validate_fuzz_report(bad2)


def test_campaign_gate_blocks_on_the_right_counts():
    doc = run_campaign(FuzzConfig(seed=9, budget=2,
                                  include_known_bugs=False))
    assert not campaign_failed(doc)
    for key in ("hard_failures", "replay_mismatches", "generator_rejects"):
        tweaked = dict(doc)
        tweaked["counts"] = dict(doc["counts"], **{key: 1})
        assert campaign_failed(tweaked)
