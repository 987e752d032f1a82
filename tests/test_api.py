"""The public API: the exact set of names the package exports."""

import eforest

PUBLIC_NAMES = [
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


def test_all_is_pinned_and_resolves():
    # widening the public API must be a visible edit to this list
    assert sorted(eforest.__all__) == PUBLIC_NAMES
    assert len(set(eforest.__all__)) == len(eforest.__all__)
    assert [name for name in PUBLIC_NAMES if not hasattr(eforest, name)] == []
