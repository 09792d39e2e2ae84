"""IR2vec program encodings (symbolic + flow-aware).

Symbolic: every instruction folds its opcode, result type, and operand
kinds through the seed embeddings with the IR2vec weights
(W_opcode=1, W_type=0.5, W_arg=0.2); instruction vectors sum into
function vectors, function vectors into the 256-d module vector.

Flow-aware: the instruction vectors are additionally propagated along
use-def chains and control-flow successors for a fixed number of
iterations before aggregation, exposing data/control context exactly as
IR2vec's reaching-definition augmentation does.

``encode_module`` returns the paper's concatenated 512-d feature
(symbolic ‖ flow-aware).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.embeddings import seed_table
from repro.embeddings.transe import SeedEmbeddings
from repro.embeddings.triplets import (
    abstract_type,
    instruction_entity,
    operand_entity,
)
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.types import Type
from repro.obs.trace import TRACER

W_OPCODE = 1.0
W_TYPE = 0.5
W_ARG = 0.2
FLOW_BETA = 0.4          # weight of use-def propagation
FLOW_GAMMA = 0.2         # weight of control-flow propagation
FLOW_ITERATIONS = 3

# Batched encodes split work into blocks of at most this many instruction
# rows.  Propagation gathers rows in data-dependence order; once the
# working set outgrows L2 those gathers become cache misses and the
# "bigger batch" loses — 128 rows × 256 dims × 8 B keeps every temporary
# cache-resident and measured ~2.7x faster than one unbounded batch.
# Per-module rows are independent, so blocking never changes results.
_BATCH_BLOCK_ROWS = 128


class _SegmentedEdges:
    """Fan-in edges grouped by destination, summed by rank.

    Destinations arrive nondecreasing by construction (the index pass
    walks instructions in position order), so segment boundaries fall
    out of one comparison and no sort is needed.  The plan holds each
    segment's first source row and, for every later rank k, the
    segments that have a k-th edge and that edge's source row; a sum is
    one gather for rank 0 and one vectorized gather-add per later rank.

    Summation-order contract: each segment adds its source rows one
    after another in edge order, ``((v[s0] + v[s1]) + v[s2]) + ...``,
    bit-identical to a sequential loop over the edges (the order of
    :class:`repro.nn.tensor.SegmentContext`'s by-rank plan), whatever
    numpy's own reduction order (``np.add.reduceat``, which this
    replaced, adds pairwise past 8 rows).  Fan-ins here are short (one
    operand list, one block's predecessors: 1-13 edges), so the rank
    loop is a handful of steps; over check-batch's 1921 seed-1 modules
    ``_propagate_matrix`` measured ~3x faster than with ``reduceat``
    (1.0-1.3 s -> 0.34-0.36 s on a 2-core box).
    """

    __slots__ = ("first", "ranks", "rows", "scale")

    def __init__(self, dst: np.ndarray, src: np.ndarray, weight: float,
                 mean: bool):
        n = dst.size
        is_start = np.empty(n + 1, dtype=bool)    # one past the end too
        is_start[0] = is_start[n] = True
        np.not_equal(dst[1:], dst[:-1], out=is_start[1:n])
        bounds = np.flatnonzero(is_start)
        starts = bounds[:-1]
        counts = bounds[1:] - starts
        self.rows = dst[starts]                # unique destinations
        self.first = src[starts]               # rank-0 source per segment
        self.scale = ((weight / counts)[:, None] if mean
                      else float(weight))
        #: (segments, source rows) for ranks 1, 2, ... in rank order.
        self.ranks: List[Tuple[np.ndarray, np.ndarray]] = []
        if starts.size < n:
            segment = np.cumsum(is_start[:n]) - 1
            rank = np.arange(n) - starts[segment]
            # Stable, so each rank keeps its segments in ascending order;
            # rank 0 (the segment starts) sorts first and is skipped.
            order = np.argsort(rank, kind="stable")
            segs, rows = segment[order], src[order]
            ends = np.cumsum(np.bincount(rank)).tolist()
            self.ranks = [(segs[a:b], rows[a:b])
                          for a, b in zip(ends[:-1], ends[1:])]

    def accumulate(self, values: np.ndarray, out: np.ndarray) -> None:
        """``out[dst] += scale * segment_sum(values[src])``."""
        seg = values[self.first]
        for segs, rows in self.ranks:
            seg[segs] += values[rows]
        seg *= self.scale
        out[self.rows] += seg


class _ModuleIndex:
    """Flattened numpy view of one module's instructions.

    One Python pass over the module resolves every entity to a row of
    the extended seed table and every flow edge to an (dst, src)
    position pair; everything after that is batched numpy — the
    per-instruction dict loops this replaced dominated the cold
    embedding profile.
    """

    __slots__ = ("insts", "n", "base", "ud", "cf", "bounds")

    def __init__(self, insts: List[Instruction], base: np.ndarray,
                 ud_edges: Tuple[np.ndarray, np.ndarray],
                 cf_edges: Tuple[np.ndarray, np.ndarray],
                 bounds: np.ndarray):
        self.insts = insts
        self.n = len(insts)
        self.base = base                       # (n, dim) symbolic vectors
        self.bounds = bounds                   # per-module row offsets (k+1)
        ud_dst, ud_src = ud_edges              # use-def flow edges (means)
        cf_dst, cf_src = cf_edges              # control flow edges (means)
        self.ud = (_SegmentedEdges(ud_dst, ud_src, FLOW_BETA, mean=True)
                   if ud_dst.size else None)
        self.cf = (_SegmentedEdges(cf_dst, cf_src, FLOW_GAMMA, mean=True)
                   if cf_dst.size else None)


class IR2VecEncoder:
    """Encodes modules against a trained seed-embedding table."""

    def __init__(self, seeds: SeedEmbeddings):
        self.seeds = seeds
        self.dim = seeds.dim
        # Seed table with the unknown-entity fallback appended, so every
        # entity resolves to a row index and gathers need no branching.
        self._table = np.vstack([seeds.entity_vectors,
                                 seeds.unknown[None, :]])
        self._unknown_row = len(seeds.entities)
        self._entity_rows: Dict[str, int] = {}
        self._type_rows: Dict[Type, int] = {}
        self._digest: Optional[str] = None

    def __reduce__(self):
        # The table is the whole state; the lookup memos rebuild lazily.
        return (IR2VecEncoder, (self.seeds,))

    @property
    def digest(self) -> str:
        """Content digest of the seed table (cache and pool identity)."""
        if self._digest is None:
            self._digest = hashlib.sha256(
                seed_table.to_bytes(self.seeds)).hexdigest()
        return self._digest

    # -- public API ----------------------------------------------------------
    def symbolic(self, module: Module) -> np.ndarray:
        index = self._module_index([module])
        if index is None:
            return np.zeros(self.dim)
        return self._aggregate_rows(index.base, index.bounds)[0]

    def flow_aware(self, module: Module) -> np.ndarray:
        index = self._module_index([module])
        if index is None:
            return np.zeros(self.dim)
        return self._aggregate_rows(self._propagate_matrix(index),
                                    index.bounds)[0]

    def encode(self, module: Module) -> np.ndarray:
        """The paper's feature: concat(symbolic, flow-aware) → 2*dim."""
        return self.encode_batch([module])[0]

    def encode_batch(self, modules: List[Module]) -> np.ndarray:
        """``(len(modules), 2*dim)`` feature matrix in one numpy sweep.

        Modules share a concatenated instruction index (edges never
        cross module boundaries), which amortizes the fixed numpy call
        overhead that dominates small MPI kernels.  Row ``i`` is
        bit-identical to ``encode(modules[i])`` — per-module work only
        reads that module's rows — so batch composition (engine chunking,
        cache-hit mixes) cannot change results.
        """
        if not modules:
            return np.zeros((0, 2 * self.dim))
        with TRACER.stage("embed"):
            outputs: List[np.ndarray] = []
            block: List[Module] = []
            rows = 0
            for module in modules:
                n = sum(len(b.instructions)
                        for fn in module.defined_functions()
                        for b in fn.blocks)
                if block and rows + n > _BATCH_BLOCK_ROWS:
                    outputs.append(self._encode_block(block))
                    block, rows = [], 0
                block.append(module)
                rows += n
            outputs.append(self._encode_block(block))
            return (outputs[0] if len(outputs) == 1
                    else np.concatenate(outputs))

    def _encode_block(self, modules: List[Module]) -> np.ndarray:
        index = self._module_index(modules)
        if index is None:
            return np.zeros((len(modules), 2 * self.dim))
        symbolic = self._aggregate_rows(index.base, index.bounds)
        flow = self._aggregate_rows(self._propagate_matrix(index),
                                    index.bounds)
        return np.concatenate([symbolic, flow], axis=1)

    # -- vectorized internals ------------------------------------------------
    def _entity_row(self, name: str) -> int:
        row = self._entity_rows.get(name)
        if row is None:
            row = self.seeds.entities.get(name, self._unknown_row)
            self._entity_rows[name] = row
        return row

    def _module_index(self,
                      modules: List[Module]) -> Optional[_ModuleIndex]:
        lookup = self._entity_row
        type_rows = self._type_rows
        # One position map per module: a batch may hold the same Module
        # object twice (the compile memo returns it for a repeated
        # source), and edges never cross modules.
        positions: List[Dict[int, int]] = []
        insts: List[Instruction] = []
        bounds = [0]
        for module in modules:
            pos: Dict[int, int] = {}
            for fn in module.defined_functions():
                for block in fn.blocks:
                    for inst in block.instructions:
                        pos[id(inst)] = len(insts)
                        insts.append(inst)
            positions.append(pos)
            bounds.append(len(insts))
        n = len(insts)
        if n == 0:
            return None

        opcode_rows = np.empty(n, dtype=np.intp)
        type_idx = np.empty(n, dtype=np.intp)
        arg_dst: List[int] = []
        arg_rows: List[int] = []
        ud_dst: List[int] = []
        ud_src: List[int] = []
        cf_dst: List[int] = []
        cf_src: List[int] = []
        for module, pos in zip(modules, positions):
            for fn in module.defined_functions():
                # Per-function predecessor lists in one CFG pass (matching
                # BasicBlock.predecessors(): unique, in block order).
                preds: Dict[int, List] = {id(b): [] for b in fn.blocks}
                for b in fn.blocks:
                    for succ in b.successors():
                        lst = preds.get(id(succ))
                        if lst is not None and b not in lst:
                            lst.append(b)
                for block in fn.blocks:
                    block_insts = block.instructions
                    for p, inst in enumerate(block_insts):
                        i = pos[id(inst)]
                        opcode_rows[i] = lookup(instruction_entity(inst))
                        t = inst.type
                        trow = type_rows.get(t)
                        if trow is None:
                            trow = lookup(abstract_type(t))
                            type_rows[t] = trow
                        type_idx[i] = trow
                        for op in inst.operands:
                            arg_dst.append(i)
                            arg_rows.append(lookup(operand_entity(op)))
                            if isinstance(op, Instruction):
                                j = pos.get(id(op))
                                if j is not None:
                                    ud_dst.append(i)
                                    ud_src.append(j)
                        if p > 0:
                            cf_dst.append(i)
                            cf_src.append(pos[id(block_insts[p - 1])])
                        else:
                            for pb in preds[id(block)]:
                                if pb.instructions:
                                    cf_dst.append(i)
                                    cf_src.append(
                                        pos[id(pb.instructions[-1])])

        table = self._table
        base = W_OPCODE * table[opcode_rows] + W_TYPE * table[type_idx]
        if arg_dst:
            args = _SegmentedEdges(np.asarray(arg_dst, dtype=np.intp),
                                   np.asarray(arg_rows, dtype=np.intp),
                                   W_ARG, mean=False)
            args.accumulate(table, base)
        to_arr = lambda xs: np.asarray(xs, dtype=np.intp)  # noqa: E731
        return _ModuleIndex(insts, base, (to_arr(ud_dst), to_arr(ud_src)),
                            (to_arr(cf_dst), to_arr(cf_src)),
                            np.asarray(bounds, dtype=np.intp))

    @staticmethod
    def _aggregate_rows(matrix: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Per-module row sums (``bounds`` delimits each module's rows);
        empty modules sum to zero."""
        k = len(bounds) - 1
        out = np.zeros((k, matrix.shape[1]))
        nonempty = np.flatnonzero(np.diff(bounds) > 0)
        if nonempty.size:
            # Consecutive nonempty starts are exactly the nonempty
            # segment boundaries (empty segments occupy zero rows).
            out[nonempty] = np.add.reduceat(matrix, bounds[nonempty], axis=0)
        return out

    def _propagate_matrix(self, index: _ModuleIndex,
                          base: Optional[np.ndarray] = None) -> np.ndarray:
        """Fixed-point-free propagation: each iteration re-reads the base
        vectors and folds in the neighbors' *current* vectors (scaled
        segment means over the use-def and control-flow edge lists)."""
        if base is None:
            base = index.base
        current = base
        for _ in range(FLOW_ITERATIONS):
            nxt = base.copy()
            if index.ud is not None:
                index.ud.accumulate(current, nxt)
            if index.cf is not None:
                index.cf.accumulate(current, nxt)
            current = nxt
        return current

    # -- per-instruction views (error localization) --------------------------
    def _instruction_vectors(self, module: Module) -> Dict[int, np.ndarray]:
        """``id(inst) → symbolic vector`` view over the batched encoding
        (kept for :mod:`repro.core.localize`, which attributes module
        deltas to individual instructions)."""
        index = self._module_index([module])
        if index is None:
            return {}
        return {id(inst): index.base[i]
                for i, inst in enumerate(index.insts)}

    def _propagate(self, module: Module,
                   vectors: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        index = self._module_index([module])
        if index is None:
            return {}
        base = np.stack([vectors[id(inst)] for inst in index.insts])
        flow = self._propagate_matrix(index, base)
        return {id(inst): flow[i] for i, inst in enumerate(index.insts)}

    def _aggregate(self, module: Module,
                   vectors: Dict[int, np.ndarray]) -> np.ndarray:
        total = np.zeros(self.dim)
        for fn in module.defined_functions():
            for block in fn.blocks:
                for inst in block.instructions:
                    total += vectors[id(inst)]
        return total


#: Default-recipe encoders (canonical corpus, dim 256) by seed.
_DEFAULT_ENCODERS: Dict[int, IR2VecEncoder] = {}


def default_encoder(seed: int = 42, corpus: Optional[List[Module]] = None,
                    dim: int = seed_table.PINNED_DIM) -> IR2VecEncoder:
    """Encoder over the seed table trained on the canonical corpus.

    Seed 42 at dim 256 is the packaged, pinned table
    (:mod:`repro.embeddings.seed_table`): it loads in milliseconds and
    never trains.  Any other seed trains once per process and is cached;
    a caller's own ``corpus`` or ``dim`` trains on every call.  Only
    training is the ``seed_embed`` stage.
    """
    default = corpus is None and dim == seed_table.PINNED_DIM
    if default and seed in _DEFAULT_ENCODERS:
        return _DEFAULT_ENCODERS[seed]
    if default and seed == seed_table.PINNED_SEED:
        seeds, _recipe = seed_table.load_pinned()
    else:
        triples = (seed_table.canonical_triples() if corpus is None
                   else seed_table.corpus_triples(corpus))
        with TRACER.stage("seed_embed"):
            seeds = seed_table.train(triples, seed, dim)
    encoder = IR2VecEncoder(seeds)
    if default:
        _DEFAULT_ENCODERS[seed] = encoder
    return encoder


_DEFAULT_TABLE_IDS: Dict[int, str] = {}


def default_table_id(seed: int = 42) -> str:
    """Identity of ``default_encoder(seed)``'s table, without training it.

    The pinned table is named by its content digest, which equals
    :attr:`IR2VecEncoder.digest` of the same table loaded from an
    artifact.  A table that must be trained is named by its recipe
    (:func:`repro.embeddings.seed_table.recipe_digest`) and the numpy
    version, since the trained bits depend on both; computing that costs
    one canonical-corpus compile, not a TransE run.
    """
    if seed not in _DEFAULT_TABLE_IDS:
        if seed == seed_table.PINNED_SEED:
            table_id = default_encoder(seed).digest
        else:
            recipe = seed_table.recipe_digest(
                seed_table.canonical_triples(), seed)
            table_id = f"recipe:{recipe}:numpy-{np.__version__}"
        _DEFAULT_TABLE_IDS[seed] = table_id
    return _DEFAULT_TABLE_IDS[seed]


def encode_module(module: Module, seed: int = 42) -> np.ndarray:
    """One-call encoding with the default seed-embedding table."""
    return default_encoder(seed).encode(module)
