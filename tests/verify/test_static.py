"""The in-tree dataflow static analyzer (repro.verify.static).

The trust contract under test: every reported finding is a definite
fact with a non-empty witness (zero false alarms on correct programs),
imprecision degrades recall but never precision, and the analyzer is
deterministic — the properties that let the fuzz harness run it as a
*trusted* oracle.
"""

import pytest

from repro.datasets.loader import Sample
from repro.datasets.mutation import OPERATORS, MutationEngine
from repro.frontend import compile_c
from repro.fuzz.grammar import FuzzGrammarConfig, generate_program
from repro.verify.static import (
    StaticAnalyzerTool,
    StaticFinding,
    StaticWitness,
    analyze_module,
    analyze_source,
    self_test,
)

_PROLOGUE = """#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank; int nprocs;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
"""
_EPILOGUE = """    MPI_Finalize();
    return 0;
}
"""


def _prog(body: str) -> str:
    return _PROLOGUE + body + _EPILOGUE


# ---------------------------------------------------------------------------
# Self-test and determinism
# ---------------------------------------------------------------------------

def test_builtin_self_test_passes():
    assert self_test() == []


def test_analysis_is_deterministic():
    source = _prog("""
    int buf[4];
    if (rank == 0) { MPI_Send(buf, 4, MPI_INT, 1, 99, MPI_COMM_WORLD); }
    if (rank == 1) {
        MPI_Status st;
        MPI_Recv(buf, 4, MPI_INT, 0, 11, MPI_COMM_WORLD, &st);
    }
""")
    first = analyze_source(source, "det.c")
    second = analyze_source(source, "det.c")
    assert first[0] == second[0]
    assert [f.as_dict() for f in first[1]] == [f.as_dict()
                                              for f in second[1]]


def test_compile_error_is_typed_not_raised():
    verdict, findings = analyze_source("int main( {", "broken.c")
    assert verdict == "compile_error"
    assert findings and findings[0].kind == "frontend_reject"
    assert not findings[0].witness.is_empty


# ---------------------------------------------------------------------------
# Checker coverage, one targeted case per error family
# ---------------------------------------------------------------------------

def _kinds(source: str, name: str = "case.c"):
    verdict, findings = analyze_source(source, name)
    return verdict, {f.kind for f in findings}, findings


def test_tag_mismatch_detected_with_witness():
    verdict, kinds, findings = _kinds(_prog("""
    int buf[4];
    if (rank == 0) { MPI_Send(buf, 4, MPI_INT, 1, 3, MPI_COMM_WORLD); }
    if (rank == 1) {
        MPI_Status st;
        MPI_Recv(buf, 4, MPI_INT, 0, 103, MPI_COMM_WORLD, &st);
    }
"""))
    assert verdict == "incorrect"
    assert "tag_mismatch" in kinds
    assert all(not f.witness.is_empty for f in findings)


def test_datatype_mismatch_between_buffer_and_handle():
    verdict, kinds, _ = _kinds(_prog("""
    int buf[8];
    MPI_Bcast(buf, 4, MPI_DOUBLE, 0, MPI_COMM_WORLD);
"""))
    assert verdict == "incorrect"
    assert "datatype_mismatch" in kinds


def test_buffer_overflow_constant_count():
    verdict, kinds, _ = _kinds(_prog("""
    int small[2];
    MPI_Bcast(small, 8, MPI_INT, 0, MPI_COMM_WORLD);
"""))
    assert verdict == "incorrect"
    assert "buffer_overflow" in kinds


def test_invalid_count_and_rank_domains():
    verdict, kinds, _ = _kinds(_prog("""
    int buf[4];
    if (rank == 0) { MPI_Send(buf, -1, MPI_INT, 9999, 5, MPI_COMM_WORLD); }
"""))
    assert verdict == "incorrect"
    assert "invalid_count" in kinds
    assert "invalid_rank" in kinds


def test_root_divergence_across_ranks():
    verdict, kinds, _ = _kinds(_prog("""
    int buf[4];
    MPI_Bcast(buf, 4, MPI_INT, rank, MPI_COMM_WORLD);
"""))
    assert verdict == "incorrect"
    assert "root_mismatch" in kinds


def test_collective_divergence_on_rank_branch():
    verdict, kinds, _ = _kinds(_prog("""
    if (rank == 0) { MPI_Barrier(MPI_COMM_WORLD); }
"""))
    assert verdict == "incorrect"
    assert "collective_divergence" in kinds


def test_missing_wait_for_nonblocking_send():
    verdict, kinds, _ = _kinds(_prog("""
    int buf[4];
    MPI_Request req;
    if (rank == 0) {
        MPI_Isend(buf, 4, MPI_INT, 1, 7, MPI_COMM_WORLD, &req);
    }
    if (rank == 1) {
        MPI_Status st;
        MPI_Recv(buf, 4, MPI_INT, 0, 7, MPI_COMM_WORLD, &st);
    }
"""))
    assert verdict == "incorrect"
    assert "missing_wait" in kinds


def test_clean_p2p_and_collective_program_is_silent():
    verdict, kinds, findings = _kinds(_prog("""
    int buf[4];
    if (rank == 0) { MPI_Send(buf, 4, MPI_INT, 1, 7, MPI_COMM_WORLD); }
    if (rank == 1) {
        MPI_Status st;
        MPI_Recv(buf, 4, MPI_INT, 0, 7, MPI_COMM_WORLD, &st);
    }
    MPI_Barrier(MPI_COMM_WORLD);
"""))
    assert verdict == "correct"
    assert findings == []


# ---------------------------------------------------------------------------
# Trust contract on the fuzz grammar: no false alarms, mutants caught
# ---------------------------------------------------------------------------

def test_zero_false_alarms_on_generated_correct_programs():
    config = FuzzGrammarConfig(seed=7)
    flagged = []
    checked = 0
    for index in range(60):
        program = generate_program(config, index)
        if program.expected != "correct":
            continue
        checked += 1
        verdict, findings = analyze_source(program.source, program.name)
        if verdict != "correct":
            flagged.append((program.name, verdict,
                            [f.kind for f in findings]))
    assert checked >= 20
    assert flagged == []        # the whole point of a *trusted* oracle


def test_detects_most_generated_mutants():
    config = FuzzGrammarConfig(seed=7)
    mutants = detected = 0
    for index in range(60):
        program = generate_program(config, index)
        if program.expected != "incorrect":
            continue
        mutants += 1
        verdict, _ = analyze_source(program.source, program.name)
        if verdict == "incorrect":
            detected += 1
    assert mutants >= 10
    # Uniform drop_call mutations can be rank-agnostically benign, so
    # 100% recall is not the contract — but most mutants must be caught.
    assert detected >= mutants * 0.8


@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_each_mutation_operator_detected_with_witness(operator):
    """Every mutation-operator family applied to a canonical correct
    program yields a finding with a non-empty witness (drop_call drops
    a rank-guarded call here, so it is detectable)."""
    base = Sample(name="base.c", source=_prog("""
    int buf[4];
    MPI_Status st;
    if (rank == 0) {
        MPI_Send(buf, 4, MPI_INT, 1, 7, MPI_COMM_WORLD);
    }
    if (rank == 1) {
        MPI_Recv(buf, 4, MPI_INT, 0, 7, MPI_COMM_WORLD, &st);
    }
    MPI_Bcast(buf, 4, MPI_INT, 0, MPI_COMM_WORLD);
    MPI_Barrier(MPI_COMM_WORLD);
"""), label="Correct", suite="MBI")
    engine = MutationEngine(seed=3, operators=(operator,))
    produced = engine.mutate_sample(base, per_sample=4)
    if not produced:
        pytest.skip(f"{operator} not applicable to the base program")
    caught = 0
    for mutant in produced:
        verdict, findings = analyze_source(mutant.sample.source,
                                           mutant.sample.name)
        if verdict == "incorrect":
            assert any(not f.witness.is_empty for f in findings)
            caught += 1
    assert caught >= 1, f"{operator}: no mutant detected"


# ---------------------------------------------------------------------------
# VerificationTool protocol
# ---------------------------------------------------------------------------

def test_tool_protocol_sample_and_module():
    tool = StaticAnalyzerTool()
    assert tool.name == "static"
    bug = Sample(name="bug.c", source=_prog(
        "    if (rank == 0) { MPI_Barrier(MPI_COMM_WORLD); }\n"),
        label="?", suite="CLI")
    verdict = tool.check_sample(bug)
    assert verdict.verdict == "incorrect"
    assert "collective_divergence" in verdict.detected_kinds
    ok = Sample(name="ok.c", source=_prog(
        "    MPI_Barrier(MPI_COMM_WORLD);\n"), label="?", suite="CLI")
    assert tool.check_sample(ok).verdict == "correct"
    module = compile_c(ok.source, ok.name, "O0")
    assert tool.check_module(module).verdict == "correct"


def test_analyze_module_entry_point_and_dedup():
    module = compile_c(_prog(
        "    if (rank == 0) { MPI_Barrier(MPI_COMM_WORLD); }\n"),
        "m.c", "O0")
    findings = analyze_module(module)
    assert findings
    assert all(isinstance(f, StaticFinding) for f in findings)
    keys = [f.dedup_key() for f in findings]
    assert len(keys) == len(set(keys))


def test_witness_dataclass_shapes():
    w = StaticWitness(blocks=("main:entry",), condition="x eq 0",
                      values=(("rank", "0"),), note="n")
    assert not w.is_empty
    d = w.as_dict()
    assert d["blocks"] == ["main:entry"]
    assert StaticWitness().is_empty
    f = StaticFinding(check="c", kind="k", function="main", witness=w)
    assert f.as_dict()["witness"]["condition"] == "x eq 0"
