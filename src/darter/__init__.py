"""darter: joint entity and relation extraction at desk scale.

Recurrent encoders built from decoupling-and-aggregation cells feed
span-pair and table-filling decoders; everything runs on a small
hand-rolled reverse-mode autodiff kernel over numpy arrays.
"""

from .autodiff import (
    ContractError,
    ParamStore,
    Record,
    ShapeError,
    Tensor,
    constant,
)
from .corpus import (
    CorpusError,
    Entity,
    LabelSchema,
    MatchMode,
    Relation,
    Sentence,
    Vocabulary,
    load_corpus,
    save_corpus,
)
from .decoders import PredictionSet, threshold_predictions
from .evaluation import PRF1, evaluate_corpus
from .model import ConfigError, JointModel, ModelConfig
from .synthetic import synthetic_corpus, synthetic_paths, synthetic_schema
from .training import (
    GridSearchResult,
    LossWeights,
    TrainConfig,
    TrainingDiverged,
    grid_search,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "CorpusError",
    "Entity",
    "GridSearchResult",
    "JointModel",
    "LabelSchema",
    "LossWeights",
    "MatchMode",
    "ModelConfig",
    "PRF1",
    "ParamStore",
    "PredictionSet",
    "Record",
    "Relation",
    "Sentence",
    "ShapeError",
    "Tensor",
    "TrainConfig",
    "TrainingDiverged",
    "Vocabulary",
    "constant",
    "evaluate_corpus",
    "grid_search",
    "load_checkpoint",
    "load_corpus",
    "save_checkpoint",
    "save_corpus",
    "synthetic_corpus",
    "synthetic_paths",
    "synthetic_schema",
    "threshold_predictions",
    "train",
    "__version__",
]
