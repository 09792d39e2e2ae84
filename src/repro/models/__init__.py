"""End-to-end model pipelines: IR2vec+DT and the ProGraML GNN."""

from repro.models.features import featurize_dataset
from repro.models.ir2vec_model import IR2vecModel
from repro.models.gnn_model import GNNModel

__all__ = ["IR2vecModel", "GNNModel", "featurize_dataset"]
