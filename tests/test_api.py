"""The public API: the exact set of names the package exports, and which
checkout of the package the test suite imports."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_pythonpath_checkout_wins(tmp_path):
    """A checkout named on $PYTHONPATH is the one the suite imports; this
    checkout's ``src`` only serves when $PYTHONPATH names none."""
    fake = tmp_path / "eforest"
    fake.mkdir()
    (fake / "__init__.py").write_text(
        "import pathlib\npathlib.Path(__file__).with_name('imported').touch()\n")
    root = Path(__file__).resolve().parents[1]
    collect = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--collect-only",
               str(Path(__file__))]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(collect, cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert not (fake / "imported").exists()
    subprocess.run(collect, cwd=root, env={**env, "PYTHONPATH": str(tmp_path)},
                   capture_output=True, timeout=300)
    assert (fake / "imported").exists()
