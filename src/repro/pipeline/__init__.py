"""Composable detection pipeline: pluggable stages, batch-first inference.

The public surface of the redesign:

* stage protocols and built-ins (:mod:`repro.pipeline.stages`),
* name-based registries (:mod:`repro.pipeline.registry`),
* the batch-first :class:`DetectionPipeline`
  (:mod:`repro.pipeline.pipeline`),
* the versioned on-disk artifact format
  (:mod:`repro.pipeline.artifact`).

Registering a custom stage requires no core-code edits:

>>> from repro.pipeline import register_featurizer, DetectionPipeline
>>> register_featurizer("my-feat", MyFeaturizer, MyFeaturizerConfig)
>>> pipe = DetectionPipeline.from_names("my-feat", "decision-tree")
"""

from repro.pipeline.registry import (
    CLASSIFIERS,
    FEATURIZERS,
    FRONTENDS,
    StageRegistry,
    classifier_names,
    featurizer_names,
    frontend_names,
    make_classifier,
    make_featurizer,
    make_frontend,
    register_classifier,
    register_featurizer,
    register_frontend,
)
from repro.pipeline.stages import (
    CFrontend,
    CFrontendConfig,
    Classifier,
    DecisionTreeStage,
    DecisionTreeStageConfig,
    Featurizer,
    Frontend,
    GNNStage,
    GNNStageConfig,
    IR2VecFeaturizer,
    IR2VecFeaturizerConfig,
    ProGraMLFeaturizer,
    ProGraMLFeaturizerConfig,
    source_digest,
    take,
)
from repro.pipeline.pipeline import (
    METHOD_STAGES,
    DetectionPipeline,
    DetectionResult,
    compile_cache_stats,
    method_stage_specs,
)
from repro.pipeline.artifact import (
    ArtifactError,
    SCHEMA_VERSION,
    inspect_artifact,
    load_pipeline,
    save_pipeline,
)

__all__ = [
    # pipeline
    "DetectionPipeline", "DetectionResult", "METHOD_STAGES",
    "method_stage_specs",
    # registries
    "StageRegistry", "FRONTENDS", "FEATURIZERS", "CLASSIFIERS",
    "register_frontend", "register_featurizer", "register_classifier",
    "make_frontend", "make_featurizer", "make_classifier",
    "frontend_names", "featurizer_names", "classifier_names",
    # stage protocols + built-ins
    "Frontend", "Featurizer", "Classifier",
    "CFrontend", "CFrontendConfig",
    "IR2VecFeaturizer", "IR2VecFeaturizerConfig",
    "ProGraMLFeaturizer", "ProGraMLFeaturizerConfig",
    "DecisionTreeStage", "DecisionTreeStageConfig",
    "GNNStage", "GNNStageConfig",
    "take", "source_digest", "compile_cache_stats",
    # artifacts
    "ArtifactError", "SCHEMA_VERSION", "save_pipeline", "load_pipeline",
    "inspect_artifact",
]
