"""Self-supervised node embeddings from smoothed graph views.

Train a momentum siamese pair on two Laplacian-smoothed views of an
attributed graph, then read embeddings off the online encoder for
downstream node classification.  Everything else stays importable from its
submodule (``sngcl.training``, ``sngcl.losses``, ...).
"""

from .checkpoint import load_checkpoint, save_checkpoint, write_history
from .data import SbmConfig, generate_sbm, load_canonical, save_canonical
from .errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    DatasetError,
    InputError,
    IntegrityError,
    ParseError,
    SngclError,
    TrainingDivergedError,
)
from .evaluation import SplitSpec, evaluate_embeddings
from .graph import RANDOM_WALK, SYMMETRIC, build_graph, smooth_features
from .losses import LossConfig
from .training import TrainConfig, encode, train

__version__ = "0.1.0"

__all__ = [
    # the library surface
    "LossConfig",
    "RANDOM_WALK",
    "SYMMETRIC",
    "SbmConfig",
    "SplitSpec",
    "TrainConfig",
    "build_graph",
    "encode",
    "evaluate_embeddings",
    "generate_sbm",
    "load_canonical",
    "load_checkpoint",
    "save_canonical",
    "save_checkpoint",
    "smooth_features",
    "train",
    "write_history",
    # errors
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointVersionError",
    "DatasetError",
    "InputError",
    "IntegrityError",
    "ParseError",
    "SngclError",
    "TrainingDivergedError",
]
