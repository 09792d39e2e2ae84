"""IR2vec embedding stack: triples, TransE, encodings, normalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.embeddings.ir2vec import IR2VecEncoder
from repro.embeddings.normalize import normalize_features
from repro.embeddings.transe import train_seed_embeddings
from repro.embeddings.triplets import abstract_type, extract_triplets
from repro.frontend import compile_c
from repro.ir.types import DOUBLE, I1, I32, I64, ArrayType, StructType, ptr

SRC = """
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


def _module(src=SRC, opt="O0"):
    return compile_c(src, "t", opt)


def test_abstract_types():
    assert abstract_type(I32) == "i32Ty"
    assert abstract_type(I1) == "i1Ty"
    assert abstract_type(DOUBLE) == "doubleTy"
    assert abstract_type(ptr(I64)) == "ptrTy"
    assert abstract_type(ArrayType(I32, 3)) == "arrayTy"
    assert abstract_type(StructType("S")) == "structTy"


def test_triplets_capture_mpi_call_identity():
    triples = extract_triplets(_module())
    heads = {h for h, _, _ in triples}
    assert "call:MPI_Send" in heads
    assert "call:MPI_Init" in heads
    relations = {r for _, r, _ in triples}
    assert relations == {"TypeOf", "NextInst", "Arg"}


def test_transe_determinism_and_shape():
    triples = extract_triplets(_module())
    a = train_seed_embeddings(triples, dim=32, seed=5, epochs=5)
    b = train_seed_embeddings(triples, dim=32, seed=5, epochs=5)
    c = train_seed_embeddings(triples, dim=32, seed=6, epochs=5)
    assert np.allclose(a.entity_vectors, b.entity_vectors)
    assert not np.allclose(a.entity_vectors, c.entity_vectors)
    assert a.entity("call:MPI_Send").shape == (32,)
    # Unknown entities fall back to the mean vector.
    assert np.allclose(a.entity("call:NotAFunction"), a.unknown)


def test_transe_embeds_structure():
    """Translation property: h + r should land nearer t than random t'."""
    triples = extract_triplets(_module()) * 3
    seeds = train_seed_embeddings(triples, dim=48, seed=0, epochs=50)
    better = 0
    total = 0
    rng = np.random.default_rng(0)
    names = list(seeds.entities)
    for h, r, t in triples[:60]:
        pred = seeds.entity(h) + seeds.relation(r)
        d_true = np.linalg.norm(pred - seeds.entity(t))
        d_rand = np.linalg.norm(pred - seeds.entity(names[rng.integers(len(names))]))
        total += 1
        better += int(d_true <= d_rand)
    assert better / total > 0.6


def test_encoder_dims_and_determinism():
    triples = extract_triplets(_module())
    seeds = train_seed_embeddings(triples, dim=64, seed=1, epochs=10)
    enc = IR2VecEncoder(seeds)
    m = _module()
    v1 = enc.encode(m)
    v2 = enc.encode(m)
    assert v1.shape == (128,)               # 2 * dim
    assert np.allclose(v1, v2)
    assert enc.symbolic(m).shape == (64,)
    assert enc.flow_aware(m).shape == (64,)


def test_repeated_module_object_in_one_batch():
    """The compile memo hands back one Module object for a repeated
    source; every copy in a batch must encode like the module alone."""
    triples = extract_triplets(_module())
    seeds = train_seed_embeddings(triples, dim=64, seed=1, epochs=10)
    enc = IR2VecEncoder(seeds)
    m = _module()
    other = _module(SRC.replace("MPI_Send(", "MPI_Ssend("))
    X = enc.encode_batch([m, other, m])
    alone = enc.encode_batch([m])[0]
    assert X[0].tobytes() == X[2].tobytes() == alone.tobytes()
    assert X[1].tobytes() == enc.encode_batch([other])[0].tobytes()


def test_flow_aware_differs_from_symbolic():
    triples = extract_triplets(_module())
    seeds = train_seed_embeddings(triples, dim=64, seed=1, epochs=10)
    enc = IR2VecEncoder(seeds)
    m = _module()
    assert not np.allclose(enc.symbolic(m), enc.flow_aware(m))


def test_encoding_distinguishes_programs():
    triples = extract_triplets(_module())
    seeds = train_seed_embeddings(triples, dim=64, seed=1, epochs=10)
    enc = IR2VecEncoder(seeds)
    other = SRC.replace("MPI_Send(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD);",
                        "MPI_Ssend(buf, 4, MPI_INT, 1, 0, MPI_COMM_WORLD);")
    assert not np.allclose(enc.encode(_module()), enc.encode(_module(other)))


def test_opt_level_changes_embedding():
    triples = extract_triplets(_module())
    seeds = train_seed_embeddings(triples, dim=64, seed=1, epochs=10)
    enc = IR2VecEncoder(seeds)
    assert not np.allclose(enc.encode(_module(SRC, "O0")),
                           enc.encode(_module(SRC, "Os")))


# -- normalization ---------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (7, 5),
              elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_vector_normalization_bounds(X):
    out = normalize_features(X, "vector")
    assert np.all(np.abs(out) <= 1.0 + 1e-9)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (6, 4),
              elements=st.floats(-1e5, 1e5, allow_nan=False)))
def test_index_normalization_uses_reference(X):
    ref = np.abs(X) + 1.0
    out = normalize_features(X, "index", reference=ref)
    denom = np.max(ref, axis=0)
    assert np.allclose(out, X / denom)


def test_none_normalization_identity():
    X = np.arange(12, dtype=float).reshape(3, 4)
    assert np.array_equal(normalize_features(X, "none"), X)


def test_unknown_normalization_rejected():
    with pytest.raises(ValueError):
        normalize_features(np.ones((2, 2)), "zscore")


def test_seed_table_build_is_one_seed_embed_stage():
    from repro.embeddings import ir2vec
    from repro.obs.trace import TRACER

    seed = 7919                                  # no other test builds it
    assert seed not in ir2vec._DEFAULT_ENCODERS
    corpus = [_module()]
    TRACER.enable()
    try:
        with TRACER.start_trace("seed", trace_id="tseed"):
            ir2vec.default_encoder(seed, corpus=corpus, dim=8)
        names = [s["name"] for s in TRACER.get_trace("tseed")["spans"]]
        assert names.count("stage.seed_embed") == 1
    finally:
        TRACER.disable()
        ir2vec._DEFAULT_ENCODERS.pop(seed, None)
