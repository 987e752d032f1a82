"""eforest: a tree-ensemble autoencoder.

Forests of axis-aligned decision trees encode an instance as the vector of
leaf ordinals it reaches, one per tree. Decoding intersects the decision-path
rules of those leaves into the maximal compatible rule and returns a
representative point of that region.
"""

from .codec import TreeMask, decode_batch, decode_region, encode_batch
from .data import (
    AttributeKind,
    Bounds,
    Categorical,
    Dataset,
    Numeric,
    Schema,
    load_csv,
    load_idx,
    save_csv,
)
from .errors import (
    ConfigError,
    ContradictionError,
    CorruptModelError,
    EForestError,
    EmptyDataError,
    EmptyMCRError,
    FormatError,
    InvalidModelError,
    LeafIndexError,
    MetricDomainError,
    MissingLabelsError,
    ModelMismatchError,
    ParseError,
    SchemaMismatchError,
    ShapeError,
    UnknownCategoryError,
    VersionError,
)
from .forest import Forest, Tree
from .metrics import ReconReport, damage_curve, reconstruction_report
from .persistence import EncodingMatrix, load_encodings, load_model, save_encodings, save_model
from .rules import CategorySet, Interval, Rule, calculate_mcr, contains, representative
from .training import TrainConfig, train_forest

__version__ = "0.1.0"

__all__ = [
    "AttributeKind",
    "Bounds",
    "Categorical",
    "CategorySet",
    "ConfigError",
    "ContradictionError",
    "CorruptModelError",
    "Dataset",
    "EForestError",
    "EmptyDataError",
    "EmptyMCRError",
    "EncodingMatrix",
    "Forest",
    "FormatError",
    "Interval",
    "InvalidModelError",
    "LeafIndexError",
    "MetricDomainError",
    "MissingLabelsError",
    "ModelMismatchError",
    "Numeric",
    "ParseError",
    "ReconReport",
    "Rule",
    "Schema",
    "SchemaMismatchError",
    "ShapeError",
    "TrainConfig",
    "Tree",
    "TreeMask",
    "UnknownCategoryError",
    "VersionError",
    "calculate_mcr",
    "contains",
    "damage_curve",
    "decode_batch",
    "decode_region",
    "encode_batch",
    "load_csv",
    "load_encodings",
    "load_idx",
    "load_model",
    "reconstruction_report",
    "representative",
    "save_csv",
    "save_encodings",
    "save_model",
    "train_forest",
]
