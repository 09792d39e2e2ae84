"""The stage vocabulary and the layers that time themselves.

Every ``TRACER.stage`` site under ``src/repro`` names a stage from
``obs.trace.STAGES``, and every name there has a site.  The layers the
analyzer, simulator, oracle battery, repair loop and GNN training step
run through each record their own ``stage.<name>`` span.
"""

import collections
import os
import re

from repro.frontend import compile_c
from repro.graphs import build_program_graph
from repro.obs.trace import STAGES, TRACER, new_id

_SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "..", "src",
                         "repro")

_CORRECT = """#include <mpi.h>
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

#: Tag 5 → 105 on the send: the ``tag_mismatch`` mutation.
_MUTANT = _CORRECT.replace("MPI_INT, 1, 5,", "MPI_INT, 1, 105,")


def _stage_sites():
    """(path, stage name or None) for every ``TRACER.stage(`` call
    outside ``obs/trace.py``, which defines the primitive; ``None`` when
    the argument is not a string literal."""
    sites = []
    for dirpath, _dirs, files in os.walk(_SRC_ROOT):
        for fname in files:
            path = os.path.join(dirpath, fname)
            if not fname.endswith(".py") or path.endswith(
                    os.path.join("obs", "trace.py")):
                continue
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            for match in re.finditer(r"TRACER\.stage\(([^)]*)\)", text):
                literal = re.fullmatch(r'\s*"([^"]+)"\s*', match.group(1))
                sites.append((os.path.relpath(path, _SRC_ROOT),
                              literal.group(1) if literal else None))
    return sites


def _count_stages(spans):
    return collections.Counter(s["name"][len("stage."):] for s in spans
                               if s["kind"] == "stage")


def test_every_stage_site_uses_the_vocabulary_and_every_name_has_a_site():
    sites = _stage_sites()
    assert sites
    not_literal = [path for path, name in sites if name is None]
    assert not not_literal, f"non-literal stage names in {not_literal}"
    unknown = sorted({(path, name) for path, name in sites
                      if name not in STAGES})
    assert not unknown, f"stage names outside STAGES: {unknown}"
    unused = sorted(set(STAGES) - {name for _path, name in sites})
    assert not unused, f"STAGES names without a site: {unused}"
    assert len(set(STAGES)) == len(STAGES)


def test_gnn_fit_records_one_step_of_stages_per_batch():
    from repro.models.gnn_model import GNNModel

    graphs = [build_program_graph(compile_c(src, f"g{i}.c", "O0"))
              for i, src in enumerate([_CORRECT, _MUTANT] * 3)]
    labels = ["ok", "bug"] * 3
    epochs, batch_size = 3, 4
    batches = -(-len(graphs) // batch_size)
    model = GNNModel(epochs=epochs, batch_size=batch_size, emb_dim=8,
                     hidden=(8, 4), seed=0)
    with TRACER.collect(((new_id(), new_id()),)) as spans:
        model.fit(graphs, labels)
    counts = _count_stages(spans)
    for stage in ("forward", "backward", "optim"):
        assert counts[stage] == epochs * batches, counts
    with TRACER.collect(((new_id(), new_id()),)) as spans:
        model.predict(graphs)
    assert _count_stages(spans)["forward"] == batches


def test_repair_source_records_every_repair_layer():
    from repro.repair.runner import repair_source

    with TRACER.collect(((new_id(), new_id()),)) as spans:
        entry = repair_source("mutant.c", _MUTANT, hint="tag_mismatch",
                              max_attempts=4)
    assert entry["outcome"] == "repaired"
    counts = _count_stages(spans)
    for stage in ("gate", "propose", "simulate", "oracles",
                  "analyze_checks", "analyze_interpret", "analyze_match"):
        assert counts[stage] >= 1, (stage, counts)
    # One gate before the patch and one per attempt.
    assert counts["gate"] == 1 + entry["attempts"]


def test_repair_reuses_the_gates_static_findings():
    """The before-gate's ``static`` oracle already analyzed the case, so
    ``propose`` gets its findings: two gates cost two analyzer runs and
    six compiles (O0 + O2 before; O0 + O2 + the deterministic pair
    after), with no third analysis of the input."""
    from repro.repair.runner import repair_source

    with TRACER.collect(((new_id(), new_id()),)) as spans:
        entry = repair_source("mutant.c", _MUTANT, hint="tag_mismatch",
                              max_attempts=4)
    assert (entry["outcome"], entry["attempts"]) == ("repaired", 1)
    counts = _count_stages(spans)
    assert counts["gate"] == 2
    assert counts["analyze_checks"] == 2
    assert counts["compile"] == 6
