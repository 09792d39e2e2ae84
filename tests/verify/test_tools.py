"""Baseline tool analogues: capability and failure-profile tests."""

import pytest

from repro.datasets import load_mbi
from repro.datasets.loader import Sample
from repro.verify import ITACTool, MPICheckerTool, MUSTTool, ParcoachTool

HEADER = "#include <mpi.h>\n#include <stdio.h>\n"


def sample(src, label="Correct", name="t.c"):
    return Sample(name=name, source=HEADER + src, label=label, suite="T")


CORRECT = sample("""
int main(int argc, char** argv) {
  int rank; int buf[4]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Barrier(MPI_COMM_WORLD);
  MPI_Finalize();
  return 0;
}""")

FULL_DEADLOCK = sample("""
int main(int argc, char** argv) {
  int rank; int buf[4]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Recv(buf, 4, MPI_INT, (rank + 1) % nprocs_of(), 0, MPI_COMM_WORLD, &st);
  MPI_Finalize();
  return 0;
}""".replace("nprocs_of()", "3"), label="Call Ordering")

PARTIAL_HANG = sample("""
int main(int argc, char** argv) {
  int rank; int buf[4]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 1) { MPI_Recv(buf, 4, MPI_INT, 0, 7, MPI_COMM_WORLD, &st); }
  MPI_Finalize();
  return 0;
}""", label="Call Ordering")

TYPE_MISMATCH = sample("""
int main(int argc, char** argv) {
  int rank; int buf[8]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) MPI_Send(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD);
  if (rank == 1) MPI_Recv(buf, 4, MPI_DOUBLE, 0, 0, MPI_COMM_WORLD, &st);
  MPI_Finalize();
  return 0;
}""", label="Parameter Matching")

COLLECTIVE_DIVERGENCE = sample("""
int main(int argc, char** argv) {
  int rank;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank > 0) { MPI_Barrier(MPI_COMM_WORLD); }
  MPI_Finalize();
  return 0;
}""", label="Call Ordering")

STATIC_TYPE_BUG = sample("""
int main(int argc, char** argv) {
  int rank; double buf[8]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) MPI_Send(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD);
  if (rank == 1) MPI_Recv(buf, 4, MPI_INT, 0, 0, MPI_COMM_WORLD, &st);
  MPI_Finalize();
  return 0;
}""", label="Parameter Matching")

MISSING_WAIT = sample("""
int main(int argc, char** argv) {
  int rank; int buf[8]; MPI_Request rq; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) MPI_Isend(buf, 8, MPI_INT, 1, 0, MPI_COMM_WORLD, &rq);
  if (rank == 1) MPI_Recv(buf, 8, MPI_INT, 0, 0, MPI_COMM_WORLD, &st);
  MPI_Finalize();
  return 0;
}""", label="Request Lifecycle")


def test_itac_detects_total_deadlock_times_out_on_partial():
    tool = ITACTool(nprocs=3, max_steps=100_000)
    assert tool.check_sample(FULL_DEADLOCK).verdict == "incorrect"
    assert tool.check_sample(PARTIAL_HANG).verdict == "timeout"


def test_itac_clean_on_correct():
    assert ITACTool(nprocs=3).check_sample(CORRECT).verdict == "correct"


def test_itac_detects_type_mismatch():
    v = ITACTool(nprocs=2).check_sample(TYPE_MISMATCH)
    assert v.verdict == "incorrect"
    assert "type_mismatch" in v.detected_kinds


def test_must_detects_all_deadlocks_structurally():
    tool = MUSTTool(nprocs=3, max_steps=100_000)
    assert tool.check_sample(FULL_DEADLOCK).verdict == "incorrect"
    assert tool.check_sample(PARTIAL_HANG).verdict == "incorrect"
    assert tool.check_sample(CORRECT).verdict == "correct"


def test_parcoach_flags_rank_dependent_collective():
    tool = ParcoachTool()
    assert tool.check_sample(COLLECTIVE_DIVERGENCE).verdict == "incorrect"


def test_parcoach_overapproximates_nonblocking():
    # Characteristic false-positive source: a *correct* nonblocking code.
    correct_nb = sample("""
int main(int argc, char** argv) {
  int rank; int buf[4]; MPI_Request rq; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) {
    MPI_Isend(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD, &rq);
    MPI_Wait(&rq, &st);
  }
  if (rank == 1) MPI_Recv(buf, 4, MPI_INT, 0, 0, MPI_COMM_WORLD, &st);
  MPI_Finalize();
  return 0;
}""")
    assert ParcoachTool(conservative=True).check_sample(correct_nb).verdict \
        == "incorrect"


def test_parcoach_accepts_straightline_collectives():
    assert ParcoachTool().check_sample(CORRECT).verdict == "correct"


def test_mpichecker_static_type_usage():
    v = MPICheckerTool().check_sample(STATIC_TYPE_BUG)
    assert v.verdict == "incorrect"
    assert "mismatches" in v.detail


def test_mpichecker_missing_wait():
    v = MPICheckerTool().check_sample(MISSING_WAIT)
    assert v.verdict == "incorrect"


def test_mpichecker_misses_deadlocks():
    # Narrow checker: pure call-ordering deadlocks are out of scope.
    assert MPICheckerTool().check_sample(FULL_DEADLOCK).verdict == "correct"


def test_tool_evaluation_counts():
    tool = MUSTTool(nprocs=2, max_steps=60_000)
    counts = tool.evaluate([CORRECT, TYPE_MISMATCH])
    assert counts.tn == 1 and counts.tp == 1


def test_parcoach_profile_on_mbi_slice():
    """Shape check: recall high-ish, specificity low (paper: 0.69 / 0.09)."""
    ds = load_mbi(subsample=200)
    counts = ParcoachTool().evaluate(ds.samples)
    from repro.ml.metrics import compute_metrics

    m = compute_metrics(counts)
    assert m.recall > 0.5
    assert m.specificity < 0.7


# ---------------------------------------------------------------------------
# Shared check_sample: compile at O0, then the tool's check_module
# ---------------------------------------------------------------------------

ALL_TOOLS = [
    lambda: ITACTool(nprocs=2),
    lambda: MUSTTool(nprocs=2),
    lambda: ParcoachTool(),
    lambda: MPICheckerTool(),
]

NOT_C = sample("""
int main(int argc, char** argv) {
  MPI_Init(&argc, &argv)
  return 0;
}""")


@pytest.mark.parametrize("make", ALL_TOOLS)
def test_non_compiling_sample_is_compile_error(make):
    tool = make()
    verdict = tool.check_sample(NOT_C)             # must not raise
    assert verdict.verdict == "compile_error"
    assert verdict.detail
    assert tool.evaluate([NOT_C]).ce == 1


def test_unconfigured_tools_never_report_unavailable(monkeypatch):
    # Tools are the in-tree analogues only: a leftover REPRO_<TOOL>_BIN
    # variable in the environment selects nothing.
    for name in ("ITAC", "MUST", "PARCOACH", "MPI_CHECKER"):
        monkeypatch.setenv(f"REPRO_{name}_BIN", "/nonexistent/tool-binary")
    for make in ALL_TOOLS:
        assert make().check_sample(CORRECT).verdict == "correct"
