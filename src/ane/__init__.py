"""Adversarial network embeddings.

Learn low-dimensional node representations by jointly optimizing a
structure-preserving objective (skip-gram over random walks, or a denoising
autoencoder over proximity rows) and an adversarial regularizer that pushes
the embedding distribution toward a chosen prior. Includes a
node-classification evaluation harness and a CLI (``ane``).
"""

__version__ = "0.1.0"

from .embedder import (
    EmbeddingMatrix,
    TrainConfig,
    Trainer,
    TrainingDiverged,
    TrainingLog,
    export_embeddings,
    load_embeddings,
    train,
)
from .evaluation import LabelSet, SplitSpec, evaluate, fit_linear_ovr, load_labels
from .graph import (
    EdgeListError,
    Graph,
    GraphError,
    InputError,
    load_edge_list,
    parse_edge_lines,
    preprocess,
    row_normalize,
)
from .proximity import ppmi_features, shifted_ppmi
from .walker import AliasTable, negative_sampler, positive_pairs, random_walks

__all__ = [
    "__version__",
    "AliasTable",
    "EdgeListError",
    "EmbeddingMatrix",
    "Graph",
    "GraphError",
    "InputError",
    "LabelSet",
    "SplitSpec",
    "TrainConfig",
    "Trainer",
    "TrainingDiverged",
    "TrainingLog",
    "evaluate",
    "export_embeddings",
    "fit_linear_ovr",
    "load_edge_list",
    "load_embeddings",
    "load_labels",
    "negative_sampler",
    "parse_edge_lines",
    "positive_pairs",
    "ppmi_features",
    "preprocess",
    "random_walks",
    "row_normalize",
    "shifted_ppmi",
    "train",
]
