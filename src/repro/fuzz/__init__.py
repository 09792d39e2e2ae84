"""Deterministic pipeline fuzzing and differential-oracle testing.

The ROADMAP's "as many scenarios as you can imagine" demand is served
here by turning the stack into its own test generator: a seed-driven
grammar synthesizes MPI programs over the frontend's C subset, every
program runs through the full compile → graph → embed → simulate chain,
and three oracle families — the :mod:`repro.verify` tool analogues, the
runtime simulator, and (optionally) a trained classifier — are
cross-checked for agreement.  Disagreements and crashes are shrunk by a
delta-debugging reducer and persisted to a content-addressed corpus that
future runs replay first, so every discovered bug becomes a permanent
regression test.

>>> from repro.fuzz import FuzzConfig, run_campaign
>>> report = run_campaign(FuzzConfig(seed=7, budget=50))
>>> report["counts"]["hard_failures"]
0
"""

from repro.fuzz.corpus import CorpusCase, CorpusStore
from repro.fuzz.grammar import (
    FuzzGrammarConfig,
    GeneratedProgram,
    KNOWN_BUG_TEMPLATES,
    generate_program,
    generate_programs,
    known_bug_seeds,
)
from repro.fuzz.harness import FuzzConfig, replay_corpus, run_campaign
from repro.fuzz.oracles import OracleVerdict, TRUSTED_ORACLES
from repro.fuzz.reduce import ddmin_lines
from repro.fuzz.report import (
    load_fuzz_report,
    save_fuzz_report,
    validate_fuzz_report,
)
from repro.fuzz.triage import classify_failure, failure_stage, is_input_fault

__all__ = [
    "FuzzConfig", "run_campaign", "replay_corpus",
    "FuzzGrammarConfig", "GeneratedProgram", "generate_program",
    "generate_programs", "known_bug_seeds", "KNOWN_BUG_TEMPLATES",
    "OracleVerdict", "TRUSTED_ORACLES",
    "CorpusStore", "CorpusCase", "ddmin_lines",
    "save_fuzz_report", "load_fuzz_report", "validate_fuzz_report",
    "failure_stage", "classify_failure", "is_input_fault",
]
