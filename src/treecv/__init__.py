"""Tree-structured cross-validation for incremental learners.

The package computes k-fold (including leave-one-out) cross-validation
estimates by organizing all k fold models along one binary recursion over
chunk ranges, so total training work grows with log2(k) instead of k.
It ships four single-pass learners, a standard-CV baseline and replay
oracle, a sparse text data layer with synthetic generators, and a
benchmark CLI (`treecv run|bench|stability|report`).
"""

from .core import (
    CrossValidationError,
    CvReport,
    Dataset,
    DegenerateRangeError,
    IncrementalLearner,
    InvalidChunkError,
    InvalidFoldCountError,
    InvalidOrderError,
    LabelRequiredError,
    Loss,
    LOSSES,
    ParseError,
    Partition,
    QUANTIZATION,
    SQUARED,
    UntrainedModelError,
    UpdateFailedError,
    WorkCounters,
    ZERO_ONE,
    evaluate_chunk,
    get_loss,
    partition,
)
from .dataio import (
    TransformSpec,
    fit_transform,
    parse_sparse_text,
    serialize_sparse_text,
    shuffle_dataset,
    synth_blobs,
    synth_classification,
    synth_regression,
)
from .forkjoin import WorkerError
from .learners import LsqSgd, MeanPredictor, OnlineKMeans, Pegasos
from .rng import SplitMix64Stream, derive_seed
from .standard import brute_force_oracle, standard_cv
from .tree import NodeTrace, TreeCvConfig, loocv, tree_cv, tree_feed_orders

__version__ = "0.1.0"

__all__ = [
    "CrossValidationError",
    "CvReport",
    "Dataset",
    "DegenerateRangeError",
    "IncrementalLearner",
    "InvalidChunkError",
    "InvalidFoldCountError",
    "InvalidOrderError",
    "LabelRequiredError",
    "Loss",
    "LOSSES",
    "LsqSgd",
    "MeanPredictor",
    "NodeTrace",
    "OnlineKMeans",
    "ParseError",
    "Partition",
    "Pegasos",
    "QUANTIZATION",
    "SQUARED",
    "SplitMix64Stream",
    "TransformSpec",
    "TreeCvConfig",
    "UntrainedModelError",
    "UpdateFailedError",
    "WorkCounters",
    "WorkerError",
    "ZERO_ONE",
    "brute_force_oracle",
    "derive_seed",
    "evaluate_chunk",
    "fit_transform",
    "get_loss",
    "loocv",
    "parse_sparse_text",
    "partition",
    "serialize_sparse_text",
    "shuffle_dataset",
    "standard_cv",
    "synth_blobs",
    "synth_classification",
    "synth_regression",
    "tree_cv",
    "tree_feed_orders",
]
