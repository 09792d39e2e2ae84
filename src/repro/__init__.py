"""repro — reproduction of "MPI Errors Detection using GNN Embedding and
Vector Embedding over LLVM IR" (arXiv:2403.02518).

The detection pipeline is composable: a ``Frontend`` compiles C to IR,
a ``Featurizer`` turns IR into features (built-ins
``ir2vec`` and ``programl``), and a ``Classifier`` labels them
(``decision-tree``, ``gnn``).  Stages are built by name from registries,
chained by the batch-first :class:`~repro.pipeline.DetectionPipeline`,
and persisted as versioned artifacts (JSON manifest + per-stage blobs):

>>> from repro.pipeline import DetectionPipeline
>>> pipe = DetectionPipeline.from_names("ir2vec", "decision-tree")
>>> pipe.fit(load_mbi(), labels="binary")
>>> [r.label for r in pipe.predict_batch(sources)]
>>> pipe.save("model.rpd"); DetectionPipeline.load("model.rpd")

Custom stages plug in without core-code edits via
:func:`~repro.pipeline.register_featurizer` /
:func:`~repro.pipeline.register_classifier`; see ``docs/pipeline.md``.

Subpackages
-----------
``ir`` / ``frontend`` / ``passes``
    mini LLVM IR, mini-C compiler, -O0/-O2/-Os pipelines.
``mpi``
    MPI API model + rank-interleaving runtime simulator.
``datasets``
    MBI and MPI-CorrBench style benchmark generators, Hypre case study.
``embeddings`` / ``graphs``
    IR2vec (TransE seeds, symbolic + flow-aware) and ProGraML graphs.
``nn`` / ``ml``
    numpy autograd + GATv2 GNN; decision tree, GA, metrics, CV.
``engine``
    parallel corpus execution engine: worker-pool fan-out plus the
    content-addressed compile/feature store (memory, disk, fleet CAS).
``pipeline``
    stage protocols, registries, DetectionPipeline, artifact format.
``models`` / ``core``
    the paper's two stage stacks and error localization.
``verify``
    baseline tools: ITAC, MUST, PARCOACH, MPI-Checker analogues.
``eval``
    per-table/figure experiment drivers (registry-driven scenarios).
"""

from repro.core import (
    SuspectCallSite,
    SuspectFunction,
    localize_call_sites,
    localize_error,
)
from repro.datasets import MutationEngine
from repro.pipeline import (
    DetectionPipeline,
    DetectionResult,
    register_classifier,
    register_featurizer,
)

__version__ = "1.2.0"
__all__ = [
    "DetectionResult", "DetectionPipeline",
    "register_featurizer", "register_classifier",
    "localize_error", "localize_call_sites",
    "SuspectFunction", "SuspectCallSite",
    "MutationEngine",
    "__version__",
]
