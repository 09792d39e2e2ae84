"""IR2vec fan-in summation order: every fan-in adds its sources one
after another in edge order, so ``encode_batch`` equals a sequential
per-instruction reference byte for byte (``ir2vec._SegmentedEdges``)."""

import numpy as np
import pytest

from repro.embeddings import ir2vec
from repro.embeddings.ir2vec import IR2VecEncoder
from repro.embeddings.transe import train_seed_embeddings
from repro.embeddings.triplets import (
    abstract_type,
    extract_triplets,
    instruction_entity,
    operand_entity,
)
from repro.frontend import compile_c
from repro.ir.instructions import Instruction

#: A 12-argument call (MPI_Sendrecv) plus a loop and a branch, so the
#: argument and use-def fan-ins run past the 8 rows where numpy's
#: reduceat starts pairwise blocks, and blocks join several
#: predecessors.
WIDE = """
#include <mpi.h>
int main(int argc, char** argv) {
  int rank; int size; int i; int sbuf[8]; int rbuf[8];
  MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  for (i = 0; i < 8; i++) { sbuf[i] = rank + i; }
  if (rank < 2) {
    MPI_Sendrecv(sbuf, 8, MPI_INT, 1 - rank, 7, rbuf, 8, MPI_INT,
                 1 - rank, 7, MPI_COMM_WORLD, &st);
  } else {
    MPI_Barrier(MPI_COMM_WORLD);
  }
  MPI_Finalize();
  return 0;
}
"""

SMALL = """
#include <mpi.h>
int main(int argc, char** argv) {
  int rank; int buf[4];
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) { MPI_Send(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD); }
  MPI_Finalize();
  return 0;
}
"""


def _sequential_sum(vectors):
    total = vectors[0].copy()
    for v in vectors[1:]:
        total = total + v
    return total


def _reference_rows(enc: IR2VecEncoder, module):
    """Per-instruction (symbolic, flow) rows, one fan-in at a time."""
    seeds = enc.seeds

    def entity(name):
        row = seeds.entities.get(name)
        return seeds.unknown if row is None else seeds.entity_vectors[row]

    insts = [inst for fn in module.defined_functions()
             for block in fn.blocks for inst in block.instructions]
    pos = {id(inst): i for i, inst in enumerate(insts)}
    base, ud, cf = [], [], []
    for fn in module.defined_functions():
        for block in fn.blocks:
            for p, inst in enumerate(block.instructions):
                vec = (ir2vec.W_OPCODE * entity(instruction_entity(inst))
                       + ir2vec.W_TYPE * entity(abstract_type(inst.type)))
                if inst.operands:
                    args = [entity(operand_entity(op))
                            for op in inst.operands]
                    vec = vec + ir2vec.W_ARG * _sequential_sum(args)
                base.append(vec)
                ud.append([pos[id(op)] for op in inst.operands
                           if isinstance(op, Instruction)
                           and id(op) in pos])
                if p > 0:
                    cf.append([pos[id(block.instructions[p - 1])]])
                else:
                    cf.append([pos[id(pb.instructions[-1])]
                               for pb in block.predecessors()
                               if pb.instructions])
    current = base
    for _ in range(ir2vec.FLOW_ITERATIONS):
        nxt = []
        for i, vec in enumerate(base):
            vec = vec.copy()
            for srcs, weight in ((ud[i], ir2vec.FLOW_BETA),
                                 (cf[i], ir2vec.FLOW_GAMMA)):
                if srcs:
                    vec = vec + (_sequential_sum([current[j] for j in srcs])
                                 * (weight / len(srcs)))
            nxt.append(vec)
        current = nxt
    fan_in = max(max(len(inst.operands) for inst in insts),
                 max(len(s) for s in ud))
    return np.array(base), np.array(current), fan_in


@pytest.fixture(scope="module", params=[8, 32])
def encoder(request):
    triples = extract_triplets(compile_c(WIDE, "wide", "O0"))
    return IR2VecEncoder(train_seed_embeddings(
        triples, dim=request.param, seed=3, epochs=5))


@pytest.mark.parametrize("opt", ["O0", "O2"])
def test_encode_batch_matches_sequential_reference(encoder, opt):
    modules = [compile_c(WIDE, "wide", opt), compile_c(SMALL, "small", opt)]
    blocks = [_reference_rows(encoder, m) for m in modules]
    assert blocks[0][2] >= 9            # a fan-in reduceat reassociates
    sizes = [len(b[0]) for b in blocks]
    bounds = np.cumsum([0] + sizes)
    symbolic = IR2VecEncoder._aggregate_rows(
        np.concatenate([b[0] for b in blocks]), bounds)
    flow = IR2VecEncoder._aggregate_rows(
        np.concatenate([b[1] for b in blocks]), bounds)
    expected = np.concatenate([symbolic, flow], axis=1)
    got = encoder.encode_batch(modules)
    assert got.shape == (2, 2 * encoder.dim)
    assert got.tobytes() == expected.tobytes()
    # The per-instruction rows agree too, before aggregation.
    index = encoder._module_index([modules[0]])
    assert index.base.tobytes() == blocks[0][0].tobytes()
    assert encoder._propagate_matrix(index).tobytes() == \
        blocks[0][1].tobytes()


def test_rank_plan_sums_in_edge_order():
    """Runs of 1-13 edges, rows added left to right in edge order."""
    rng = np.random.default_rng(0)
    counts = [1, 3, 9, 13, 2, 1, 10]
    dst = np.repeat(np.arange(len(counts)) * 2, counts)
    src = rng.integers(0, 40, size=dst.size)
    values = rng.standard_normal((40, 5)) * 10.0 ** rng.integers(
        -8, 8, size=(40, 1))
    plan = ir2vec._SegmentedEdges(dst, src, 0.3, mean=True)
    out = np.zeros((2 * len(counts), 5))
    plan.accumulate(values, out)
    expected = np.zeros_like(out)
    start = 0
    for seg, n in enumerate(counts):
        total = _sequential_sum([values[j] for j in src[start:start + n]])
        expected[2 * seg] = total * (0.3 / n)
        start += n
    assert out.tobytes() == expected.tobytes()
