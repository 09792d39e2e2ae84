"""The pinned IR2vec seed-embedding table and its byte format.

IR2Vec ships its seed vocabulary as a pretrained artifact, and so does
this package: ``seed_table.npz`` beside this module is the TransE table
trained on the canonical corpus (every 9th MBI program, the first 160,
compiled at O0) with seed 42, dim 256, 25 epochs and batch 8192.
:func:`repro.embeddings.ir2vec.default_encoder` loads it for that seed
instead of training, and pipeline artifacts carry their own table in the
same format, so a saved model's features depend on the artifact alone —
not on the trainer's code or the host's numpy build, either of which can
move the trained bits.

Tables travel as ``.npz`` bytes of plain arrays (names as unicode
arrays, vectors as float64), always read with ``allow_pickle=False``.
The pinned file also records a *recipe digest* of the canonical
corpus's triples, the hyperparameters and the trainer's source.
Comparing it with the digest the code computes now tells a stale pin
from a current one without retraining (retraining cannot be compared
bit for bit across hosts).
Re-pin after changing any of those inputs::

    PYTHONPATH=src python -c \
        "from repro.embeddings.seed_table import pin; pin()"
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import zipfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings import transe
from repro.embeddings.transe import SeedEmbeddings, train_seed_embeddings
from repro.embeddings.triplets import Triple, extract_triplets
from repro.ir.module import Module

PINNED_SEED = 42
PINNED_DIM = 256
EPOCHS = 25
BATCH_SIZE = 8192
TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "seed_table.npz")

#: Fixed zip member timestamp, so equal tables serialize to equal bytes.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def canonical_corpus() -> List[Module]:
    """The programs the default tables are trained on."""
    from repro.datasets import load_mbi
    from repro.frontend import compile_c

    samples = list(load_mbi())[::9][:160]
    return [compile_c(s.source, s.name, "O0") for s in samples]


def corpus_triples(corpus: Sequence[Module]) -> List[Triple]:
    triples: List[Triple] = []
    for module in corpus:
        triples.extend(extract_triplets(module))
    return triples


@functools.lru_cache(maxsize=1)
def canonical_triples() -> Tuple[Triple, ...]:
    """The canonical corpus's triples, extracted once per process."""
    return tuple(corpus_triples(canonical_corpus()))


def train(triples: Sequence[Triple], seed: int,
          dim: int = PINNED_DIM) -> SeedEmbeddings:
    """TransE under the default tables' hyperparameters."""
    return train_seed_embeddings(triples, dim=dim, seed=seed, epochs=EPOCHS,
                                 batch_size=BATCH_SIZE)


def recipe_digest(triples: Sequence[Triple], seed: int = PINNED_SEED,
                  dim: int = PINNED_DIM) -> str:
    """Digest of everything a trained table is a function of, bar numpy."""
    h = hashlib.sha256()
    h.update(json.dumps({"seed": seed, "dim": dim, "epochs": EPOCHS,
                         "batch_size": BATCH_SIZE},
                        sort_keys=True).encode())
    with open(transe.__file__, "rb") as fh:
        h.update(fh.read().replace(b"\r\n", b"\n"))
    for triple in triples:
        h.update("\t".join(triple).encode() + b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Byte format
# ---------------------------------------------------------------------------

def _names(index: Dict[str, int]) -> np.ndarray:
    return np.array(sorted(index, key=index.__getitem__), dtype=str)


def to_bytes(seeds: SeedEmbeddings, recipe: Optional[str] = None) -> bytes:
    """``.npz`` bytes of ``seeds``; equal tables give equal bytes."""
    arrays = {
        "dim": np.array(seeds.dim),
        "entities": _names(seeds.entities),
        "relations": _names(seeds.relations),
        "entity_vectors": seeds.entity_vectors,
        "relation_vectors": seeds.relation_vectors,
        "unknown": seeds.unknown,
    }
    if recipe is not None:
        arrays["recipe"] = np.array(recipe)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for key, value in arrays.items():
            with zf.open(zipfile.ZipInfo(f"{key}.npy", _ZIP_EPOCH),
                         "w") as member:
                np.lib.format.write_array(member, np.asarray(value),
                                          allow_pickle=False)
    return buf.getvalue()


def from_bytes(blob: bytes) -> Tuple[SeedEmbeddings, Optional[str]]:
    """Inverse of :func:`to_bytes`: ``(table, recipe digest or None)``."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as data:
        entities = [str(n) for n in data["entities"]]
        relations = [str(n) for n in data["relations"]]
        seeds = SeedEmbeddings(
            dim=int(data["dim"]),
            entities={n: i for i, n in enumerate(entities)},
            relations={n: i for i, n in enumerate(relations)},
            entity_vectors=data["entity_vectors"],
            relation_vectors=data["relation_vectors"],
            unknown=data["unknown"])
        recipe = str(data["recipe"]) if "recipe" in data.files else None
    return seeds, recipe


def load_pinned(path: str = TABLE_PATH) -> Tuple[SeedEmbeddings, str]:
    """The packaged table and the recipe digest it was trained from."""
    with open(path, "rb") as fh:
        seeds, recipe = from_bytes(fh.read())
    return seeds, recipe or ""


def pin(path: str = TABLE_PATH) -> str:
    """Train the canonical table and write it to ``path``; returns the
    recipe digest it records."""
    triples = canonical_triples()
    recipe = recipe_digest(triples)
    blob = to_bytes(train(triples, PINNED_SEED), recipe)
    with open(path, "wb") as fh:
        fh.write(blob)
    return recipe
