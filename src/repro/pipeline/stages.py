"""Pipeline stage protocols and the built-in implementations.

The paper's detector decomposes into three stages, each behind a small
structural protocol so alternatives plug in without touching core code:

``Frontend``
    C source → IR module.  The built-in ``mini-c`` frontend just
    compiles; the execution engine's store caches its modules.
``Featurizer``
    IR modules → a feature batch.  ``ir2vec`` yields a dense
    ``(n, 512)`` matrix; ``programl`` yields a list of program graphs.
``Classifier``
    feature batch → label array.  ``decision-tree`` wraps the paper's
    GA + DT model, ``gnn`` the GATv2 network (vocabulary built at fit
    time from the training graphs).

All stages carry a frozen config dataclass (JSON-serializable via
``dataclasses.asdict``) and are registered by name in
:mod:`repro.pipeline.registry`.  Stateful stages expose
``get_state()``/``set_state()`` byte blobs for the artifact format.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import (
    Any,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.ir.module import Module
from repro.ml.genetic import GAConfig
from repro.obs.trace import TRACER

#: A feature batch is either a dense matrix or a list of graphs.
FeatureBatch = Union[np.ndarray, List[Any]]


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------

@runtime_checkable
class Frontend(Protocol):
    name: str

    def compile(self, source: str, name: str = "input.c") -> Module: ...


@runtime_checkable
class Featurizer(Protocol):
    """IR modules → feature batch.

    A featurizer whose ``transform`` is *per-sample decomposable* — row
    ``i`` depends only on ``modules[i]`` — should declare a class
    attribute ``per_sample = True`` (the built-ins do): the execution
    engine may then chunk batches, fan them out to workers, and cache
    rows individually.  Without the declaration the engine makes exactly
    one whole-batch ``transform`` call, which is always safe (e.g. for
    batch-level normalization) but forgoes feature caching and fan-out.
    """

    name: str

    @property
    def opt_level(self) -> str: ...

    def transform(self, modules: Sequence[Module]) -> FeatureBatch: ...


@runtime_checkable
class Classifier(Protocol):
    name: str

    def fit(self, features: FeatureBatch, y: Sequence[str]) -> "Classifier": ...

    def predict(self, features: FeatureBatch) -> np.ndarray: ...


def take(features: FeatureBatch, indices: Sequence[int]) -> FeatureBatch:
    """Row-select from a feature batch (works for matrices and graph lists)."""
    if isinstance(features, np.ndarray):
        return features[np.asarray(indices)]
    return [features[int(i)] for i in indices]


def source_digest(source: str) -> str:
    """Stable content hash of a source (routing and provenance key)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Frontend: mini-C → IR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CFrontendConfig:
    opt_level: str = "O0"
    verify: bool = False


class CFrontend:
    """The repo's mini-C compiler behind the ``Frontend`` protocol."""

    name = "mini-c"

    def __init__(self, config: Optional[CFrontendConfig] = None, **overrides):
        self.config = config or CFrontendConfig(**overrides)

    @property
    def opt_level(self) -> str:
        return self.config.opt_level

    def compile(self, source: str, name: str = "input.c") -> Module:
        from repro.frontend import compile_c

        return compile_c(source, name, self.config.opt_level,
                         verify=self.config.verify)


# ---------------------------------------------------------------------------
# Featurizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IR2VecFeaturizerConfig:
    opt_level: str = "Os"          # paper default for the embedding pipeline
    seed: int = 42


class IR2VecFeaturizer:
    """IR modules → stacked (n, 512) symbolic‖flow-aware embedding matrix.

    The seed table is the featurizer's state: an artifact installs its
    own (``set_state``), and without one ``transform`` uses the default
    table for the configured seed.  An installed table pickles with the
    featurizer, so pool workers never rebuild it.
    """

    name = "ir2vec"
    kind = "matrix"
    per_sample = True              # rows are independent → engine-cacheable

    def __init__(self, config: Optional[IR2VecFeaturizerConfig] = None,
                 **overrides):
        self.config = config or IR2VecFeaturizerConfig(**overrides)
        self._encoder = None       # installed table's encoder, if any
        self._table_id = None      # its identity, once resolved

    @property
    def opt_level(self) -> str:
        return self.config.opt_level

    @property
    def seed(self) -> int:
        return self.config.seed

    def encoder(self):
        """The installed table's encoder, else the seed's default one."""
        if self._encoder is not None:
            return self._encoder
        from repro.embeddings.ir2vec import default_encoder

        return default_encoder(self.config.seed)

    def state_digest(self) -> str:
        """Identity of the seed table: with the config, the stage's
        identity for the engine's cache keys and worker pools.

        An artifact's table is named by its content digest, the default
        one by :func:`~repro.embeddings.ir2vec.default_table_id`, so
        naming it never trains and ``warmup`` never changes the name.
        """
        if self._table_id is not None:
            return self._table_id
        from repro.embeddings.ir2vec import default_table_id

        return default_table_id(self.config.seed)

    def warmup(self) -> None:
        """Resolve and install the seed table now (training it, for a
        seed without a pinned table).

        The execution engine calls this before starting workers, so a
        forked worker inherits the table and a spawned one unpickles it
        with the featurizer instead of rebuilding it.
        """
        self._table_id = self.state_digest()
        self._encoder = self.encoder()

    def transform(self, modules: Sequence[Module]) -> np.ndarray:
        encoder = self.encoder()
        if not modules:
            return np.zeros((0, 2 * encoder.dim))
        return encoder.encode_batch(list(modules))

    # -- artifact state ------------------------------------------------------
    def get_state(self) -> bytes:
        from repro.embeddings import seed_table

        return seed_table.to_bytes(self.encoder().seeds)

    def set_state(self, blob: bytes) -> None:
        from repro.embeddings import seed_table
        from repro.embeddings.ir2vec import IR2VecEncoder

        seeds, _recipe = seed_table.from_bytes(blob)
        self._encoder = IR2VecEncoder(seeds)
        self._table_id = self._encoder.digest


@dataclass(frozen=True)
class ProGraMLFeaturizerConfig:
    opt_level: str = "O0"          # paper default for the GNN pipeline


class ProGraMLFeaturizer:
    """IR modules → list of ProGraML program graphs."""

    name = "programl"
    kind = "graphs"
    per_sample = True              # graphs are independent → engine-cacheable

    def __init__(self, config: Optional[ProGraMLFeaturizerConfig] = None,
                 **overrides):
        self.config = config or ProGraMLFeaturizerConfig(**overrides)

    @property
    def opt_level(self) -> str:
        return self.config.opt_level

    def transform(self, modules: Sequence[Module]) -> List[Any]:
        from repro.graphs.programl import build_program_graph

        return [build_program_graph(m) for m in modules]


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecisionTreeStageConfig:
    normalization: str = "vector"
    use_ga: bool = True
    ga: Optional[GAConfig] = None
    fixed_features: Optional[Tuple[int, ...]] = None


class DecisionTreeStage:
    """GA feature selection + decision tree over embedding matrices."""

    name = "decision-tree"
    expects = "matrix"

    def __init__(self, config: Optional[DecisionTreeStageConfig] = None,
                 **overrides):
        from repro.models.ir2vec_model import IR2vecModel

        self.config = config or DecisionTreeStageConfig(**overrides)
        self.model = IR2vecModel(
            normalization=self.config.normalization,
            use_ga=self.config.use_ga,
            ga_config=self.config.ga,
            fixed_features=self.config.fixed_features,
        )

    def fit(self, features: np.ndarray, y: Sequence[str]) -> "DecisionTreeStage":
        with TRACER.stage("classify"):
            self.model.fit(np.asarray(features), np.asarray(y))
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        with TRACER.stage("classify"):
            return self.model.predict(np.asarray(features))

    @property
    def selected(self) -> Optional[Tuple[int, ...]]:
        return self.model.selected

    # -- artifact state ------------------------------------------------------
    def get_state(self) -> bytes:
        return pickle.dumps(self.model)

    def set_state(self, blob: bytes) -> None:
        self.model = pickle.loads(blob)


@dataclass(frozen=True)
class GNNStageConfig:
    epochs: int = 10
    lr: float = 4e-4
    batch_size: int = 32
    emb_dim: int = 64
    hidden: Tuple[int, ...] = (128, 64, 32)
    seed: int = 0
    pooling: str = "max"
    attention: bool = True
    hetero: bool = True


class GNNStage:
    """GATv2 GNN over program-graph batches (vocab built at fit time)."""

    name = "gnn"
    expects = "graphs"

    def __init__(self, config: Optional[GNNStageConfig] = None, **overrides):
        from repro.models.gnn_model import GNNModel

        self.config = config or GNNStageConfig(**overrides)
        c = self.config
        self.model = GNNModel(epochs=c.epochs, lr=c.lr,
                              batch_size=c.batch_size, emb_dim=c.emb_dim,
                              hidden=c.hidden, seed=c.seed, pooling=c.pooling,
                              attention=c.attention, hetero=c.hetero)

    def fit(self, features: Sequence[Any], y: Sequence[str],
            vocab: Optional[Any] = None) -> "GNNStage":
        from repro.graphs.vocab import build_vocabulary

        graphs = list(features)
        with TRACER.stage("classify"):
            self.model.fit(graphs, np.asarray(y),
                           vocab or build_vocabulary(graphs))
        return self

    def predict(self, features: Sequence[Any]) -> np.ndarray:
        with TRACER.stage("classify"):
            return self.model.predict(list(features))

    def predict_proba(self, features: Sequence[Any]) -> np.ndarray:
        return self.model.predict_proba(list(features))

    # -- artifact state ------------------------------------------------------
    def get_state(self) -> bytes:
        return pickle.dumps(self.model)

    def set_state(self, blob: bytes) -> None:
        self.model = pickle.loads(blob)


# ---------------------------------------------------------------------------
# Built-in registration
# ---------------------------------------------------------------------------

from repro.pipeline.registry import (  # noqa: E402  (registration footer)
    register_classifier,
    register_featurizer,
    register_frontend,
)

register_frontend(CFrontend.name, CFrontend, CFrontendConfig)
register_featurizer(IR2VecFeaturizer.name, IR2VecFeaturizer,
                    IR2VecFeaturizerConfig)
register_featurizer(ProGraMLFeaturizer.name, ProGraMLFeaturizer,
                    ProGraMLFeaturizerConfig)
register_classifier(DecisionTreeStage.name, DecisionTreeStage,
                    DecisionTreeStageConfig)
register_classifier(GNNStage.name, GNNStage, GNNStageConfig)
