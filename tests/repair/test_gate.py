"""The repair gate's determinism check: the harness's own O0/O2 compiles
are the first of each pair, so a clean gate call compiles four times,
and a compile whose printed IR changes between calls is still vetoed.
The gate also hands out its static oracle's findings, which must equal
what the analyzer finds on its own."""

import pytest

import repro.frontend
from repro.repair import generated_tasks, run_gate
from repro.verify.static import analyze_source

SOURCE = """
#include <mpi.h>
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


@pytest.fixture
def compiles(monkeypatch):
    """Record each ``compile_c`` call's opt level; ``flaky`` makes every
    second compile at a level print different IR."""
    real = repro.frontend.compile_c
    calls = []
    state = {"flaky": False}

    def counting(source, name="input.c", opt_level="O0", **kwargs):
        module = real(source, name, opt_level, **kwargs)
        calls.append(opt_level)
        if state["flaky"] and calls.count(opt_level) % 2 == 0:
            module.name += "-again"
        return module

    monkeypatch.setattr(repro.frontend, "compile_c", counting)
    return calls, state


def test_clean_gate_compiles_each_level_twice(compiles):
    calls, _state = compiles
    verdict = run_gate("ok.c", SOURCE)
    assert verdict.clean and verdict.deterministic
    assert sorted(calls) == ["O0", "O0", "O2", "O2"]


def test_alternating_compile_is_vetoed(compiles):
    _calls, state = compiles
    state["flaky"] = True
    verdict = run_gate("ok.c", SOURCE)
    assert verdict.status == "agree"             # every oracle is clean
    assert not verdict.deterministic
    assert not verdict.clean


def test_gate_findings_equal_the_analyzers_on_detected_mutants():
    detected = 0
    for task in generated_tasks(5, 40):
        verdict = run_gate(task.name, task.source)
        if verdict.clean:
            continue
        detected += 1
        assert verdict.findings is not None, verdict
        _verdict, findings = analyze_source(task.source, name=task.name)
        assert list(verdict.findings) == findings, task.name
    assert detected


def test_gate_stopped_before_the_oracles_has_no_findings():
    verdict = run_gate("broken.c", "int main( {")
    assert verdict.status == "rejected"
    assert verdict.findings is None
