"""Batch-first detection pipeline composed of registry-built stages.

A :class:`DetectionPipeline` chains a frontend, a featurizer, and a
classifier.  It is batch-first: ``predict_batch`` compiles and
featurizes every source on the execution engine (whose store answers
anything seen before), and issues a *single* vectorized classifier call.

Build one from stage objects, by stage names, or from the paper's two
method presets:

>>> pipe = DetectionPipeline.from_names("ir2vec", "decision-tree")
>>> pipe.fit(load_mbi(subsample=200))
>>> [r.label for r in pipe.predict_batch(sources)]

``save``/``load`` use the versioned artifact format of
:mod:`repro.pipeline.artifact` (JSON manifest + per-stage blobs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.labels import CORRECT
from repro.datasets.loader import Dataset, Sample
from repro.engine import CacheStats, ExecutionEngine, default_engine
from repro.pipeline.registry import (
    CLASSIFIERS,
    FEATURIZERS,
    FRONTENDS,
)
from repro.pipeline.stages import (
    CFrontend,
    CFrontendConfig,
    Classifier,
    DecisionTreeStage,
    DecisionTreeStageConfig,
    Featurizer,
    Frontend,
    GNNStageConfig,
    IR2VecFeaturizer,
    IR2VecFeaturizerConfig,
    ProGraMLFeaturizerConfig,
)

#: Anything predict_batch accepts as one item: raw source, a Sample, or a
#: (name, source) pair.
SourceLike = Union[str, Sample, Tuple[str, str]]

#: The paper's two methods as (featurizer name, classifier name) presets.
METHOD_STAGES = {
    "ir2vec": ("ir2vec", "decision-tree"),
    "gnn": ("programl", "gnn"),
}


def compile_cache_stats() -> CacheStats:
    """Memory-tier lookups of the default engine's store, summed over
    stages (the tier that answers a repeated source in-process)."""
    return default_engine().store.memory_stats()


@dataclass
class DetectionResult:
    label: str
    is_correct: bool
    method: str
    detail: str = ""


def method_stage_specs(method: str, *, opt_level: Optional[str] = None,
                       embedding_seed: int = 42, normalization: str = "vector",
                       use_ga: bool = True, ga_config: Optional[Any] = None,
                       epochs: int = 10, lr: float = 4e-4, batch_size: int = 32,
                       seed: int = 0) -> Tuple[str, Any, str, Any]:
    """Map a paper method name to (featurizer name, config, classifier
    name, config) with the paper's defaults filled in.  Variants (GNN
    pooling, attention, edge types; fixed GA features) are a
    :func:`dataclasses.replace` on the returned configs."""
    if method == "ir2vec":
        feat_cfg = IR2VecFeaturizerConfig(opt_level=opt_level or "Os",
                                          seed=embedding_seed)
        clf_cfg = DecisionTreeStageConfig(normalization=normalization,
                                          use_ga=use_ga, ga=ga_config)
        return "ir2vec", feat_cfg, "decision-tree", clf_cfg
    if method == "gnn":
        feat_cfg = ProGraMLFeaturizerConfig(opt_level=opt_level or "O0")
        clf_cfg = GNNStageConfig(epochs=epochs, lr=lr, batch_size=batch_size,
                                 seed=seed)
        return "programl", feat_cfg, "gnn", clf_cfg
    raise ValueError(f"method must be one of {sorted(METHOD_STAGES)}, "
                     f"got {method!r}")


class DetectionPipeline:
    """Frontend → featurizer → classifier, batch-first."""

    def __init__(self, frontend: Optional[Frontend] = None,
                 featurizer: Optional[Featurizer] = None,
                 classifier: Optional[Classifier] = None, *,
                 label_mode: str = "binary", method: Optional[str] = None,
                 engine: Optional[ExecutionEngine] = None):
        self.featurizer = featurizer if featurizer is not None \
            else IR2VecFeaturizer()
        self.classifier = classifier if classifier is not None \
            else DecisionTreeStage()
        # Default frontend matches the featurizer's IR level so fit-time
        # and predict-time compilation agree.
        self.frontend = frontend if frontend is not None else CFrontend(
            CFrontendConfig(opt_level=self.featurizer.opt_level))
        # Catch matrix-vs-graph mismatches at assembly time, not deep
        # inside the model: stages may advertise kind/expects metadata.
        kind = getattr(self.featurizer, "kind", None)
        expects = getattr(self.classifier, "expects", None)
        if kind is not None and expects is not None and kind != expects:
            raise ValueError(
                f"featurizer {self.featurizer.name!r} produces {kind!r} "
                f"features but classifier {self.classifier.name!r} expects "
                f"{expects!r}")
        self.label_mode = label_mode
        self.method = method or (f"{self.featurizer.name}"
                                 f"+{self.classifier.name}")
        # None → resolve the process-wide default engine at call time, so
        # set_default_engine() affects already-built pipelines too.
        self._engine = engine
        self.fitted = False

    @property
    def engine(self) -> ExecutionEngine:
        """The execution engine compile/featurize work runs on."""
        return self._engine if self._engine is not None else default_engine()

    @engine.setter
    def engine(self, engine: Optional[ExecutionEngine]) -> None:
        self._engine = engine

    # ------------------------------------------------------------- builders
    @classmethod
    def from_names(cls, featurizer: str = "ir2vec",
                   classifier: str = "decision-tree", *,
                   frontend: str = "mini-c",
                   featurizer_config: Any = None,
                   classifier_config: Any = None,
                   frontend_config: Any = None,
                   label_mode: str = "binary",
                   method: Optional[str] = None,
                   engine: Optional[ExecutionEngine] = None,
                   ) -> "DetectionPipeline":
        """Assemble a pipeline entirely from registry names."""
        feat = FEATURIZERS.create(featurizer, featurizer_config)
        clf = CLASSIFIERS.create(classifier, classifier_config)
        if frontend_config is None:
            fe = FRONTENDS.create(
                frontend, CFrontendConfig(opt_level=feat.opt_level)
                if frontend == CFrontend.name else None)
        else:
            fe = FRONTENDS.create(frontend, frontend_config)
        return cls(fe, feat, clf, label_mode=label_mode, method=method,
                   engine=engine)

    @classmethod
    def from_method(cls, method: str, *, opt_level: Optional[str] = None,
                    embedding_seed: int = 42, normalization: str = "vector",
                    use_ga: bool = True, ga_config: Optional[Any] = None,
                    epochs: int = 10, lr: float = 4e-4, batch_size: int = 32,
                    seed: int = 0,
                    engine: Optional[ExecutionEngine] = None,
                    ) -> "DetectionPipeline":
        """The paper's presets: ``ir2vec`` (+DT) or ``gnn`` (ProGraML)."""
        feat_name, feat_cfg, clf_name, clf_cfg = method_stage_specs(
            method, opt_level=opt_level, embedding_seed=embedding_seed,
            normalization=normalization, use_ga=use_ga, ga_config=ga_config,
            epochs=epochs, lr=lr, batch_size=batch_size, seed=seed)
        return cls.from_names(feat_name, clf_name,
                              featurizer_config=feat_cfg,
                              classifier_config=clf_cfg, method=method,
                              engine=engine)

    # ------------------------------------------------------------------ fit
    def fit(self, dataset: Dataset, labels: str = "binary",
            ) -> "DetectionPipeline":
        """Fit on a labeled dataset; ``labels`` is 'binary' or 'type'."""
        if labels not in ("binary", "type"):
            raise ValueError("labels must be 'binary' or 'type'")
        self.label_mode = labels
        y = np.array([s.binary if labels == "binary" else s.label
                      for s in dataset.samples])
        self.classifier.fit(self._featurize_dataset(dataset), y)
        self.fitted = True
        return self

    def _featurize_dataset(self, dataset: Dataset):
        """Dataset features on this pipeline's engine, through the same
        frontend serving uses."""
        return self.engine.featurize_samples(self.frontend, self.featurizer,
                                             dataset.samples)

    # -------------------------------------------------------------- predict
    @staticmethod
    def _as_named_source(item: SourceLike, index: int) -> Tuple[str, str]:
        if isinstance(item, Sample):
            return item.name, item.source
        if isinstance(item, tuple):
            name, source = item
            return name, source
        return f"input{index}.c", item

    def predict_batch(self, sources: Sequence[SourceLike],
                      ) -> List[DetectionResult]:
        """Classify many sources with shared compile/feature work.

        Sources stream through the execution engine — chunked over the
        worker pool when ``workers>0``, skipping compilation/featurization
        for anything already in its store — and are classified in one
        vectorized model call.  Accepts any iterable.
        """
        if not self.fitted:
            raise RuntimeError("call fit() before predict_batch()")
        named = [self._as_named_source(s, i) for i, s in enumerate(sources)]
        features = self.engine.featurize_sources(self.frontend,
                                                 self.featurizer, named)
        labels = self.classifier.predict(features)
        # opt_level is a built-in convenience, not part of the Frontend
        # protocol — don't require it of custom frontends.
        opt = getattr(self.frontend, "opt_level", "?")
        detail = f"opt={opt}, labels={self.label_mode}"
        return [DetectionResult(label=str(label),
                                is_correct=str(label) == CORRECT,
                                method=self.method, detail=detail)
                for label in labels]

    def predict_source(self, source: str,
                       name: str = "input.c") -> DetectionResult:
        """Classify a single C source (thin wrapper over the batch path)."""
        return self.predict_batch([(name, source)])[0]

    def predict_dataset(self, dataset: Dataset) -> np.ndarray:
        """Label array for a whole dataset."""
        if not self.fitted:
            raise RuntimeError("call fit() before predict_dataset()")
        return self.classifier.predict(self._featurize_dataset(dataset))

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the engine's worker pool deterministically.

        Long-lived callers (the serving loop, test suites) need teardown
        that does not wait for interpreter exit.  Idempotent, and the
        pipeline stays usable — the next parallel run restarts the pool.
        This applies to whatever engine the pipeline resolves, including
        the process-wide default: other pipelines sharing it lose only a
        warm pool (restarted lazily), never correctness.
        """
        self.engine.close()

    def __enter__(self) -> "DetectionPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- persist
    def save(self, path: str) -> None:
        """Write the versioned artifact (JSON manifest + stage blobs)."""
        from repro.pipeline.artifact import save_pipeline

        save_pipeline(self, path)

    @classmethod
    def load(cls, path: str) -> "DetectionPipeline":
        from repro.pipeline.artifact import load_pipeline

        return load_pipeline(path)
