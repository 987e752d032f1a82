"""The public API: the exact set of names the package exports, which
checkout of the package the test suite imports, and the package source's
hygiene: no unused import, no private name nothing refers to."""

import ast
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
    "Dataset",
    "EForestError",
    "EmptyMCRError",
    "EncodingMatrix",
    "Forest",
    "FormatError",
    "Interval",
    "InvalidModelError",
    "ModelMismatchError",
    "Numeric",
    "ParseError",
    "ReconReport",
    "Rule",
    "Schema",
    "TrainConfig",
    "TreeMask",
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
    assert len(PUBLIC_NAMES) == 37


def test_error_hierarchy_is_one_class_per_remedy():
    """Seven exported error classes: ParseError is a FormatError, every other
    class sits directly under EForestError."""
    exported = {name: getattr(eforest, name) for name in eforest.__all__}
    errors = {name: cls for name, cls in exported.items()
              if isinstance(cls, type) and issubclass(cls, Exception)}
    parents = {name: cls.__bases__ for name, cls in errors.items()}
    assert parents == {
        "EForestError": (Exception,),
        "FormatError": (eforest.EForestError,),
        "ParseError": (eforest.FormatError,),
        "InvalidModelError": (eforest.EForestError,),
        "ModelMismatchError": (eforest.EForestError,),
        "ConfigError": (eforest.EForestError,),
        "EmptyMCRError": (eforest.EForestError,),
    }
    defined = {name for name, obj in vars(eforest.errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert defined == set(errors)


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


def test_source_has_no_unused_import_or_unreferenced_private_name():
    """Each ``src/eforest`` module uses every name it imports, and some
    ``src/eforest`` file refers to every private top-level function, class
    and constant. ``__init__.py`` imports to re-export, and ``from __future__``
    binds no name."""
    package = Path(eforest.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    referenced = set()
    problems = []
    for name, tree in trees.items():
        nodes = list(ast.walk(tree))
        loaded = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        referenced |= loaded | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
            if name == "__init__.py" or not isinstance(node, ast.Import | ast.ImportFrom):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loaded:
                    problems.append(f"{name}:{node.lineno}: unused import {bound}")
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef | ast.ClassDef):
                defined = [node.name]
            elif isinstance(node, ast.Assign | ast.AnnAssign):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            problems += [f"{name}:{node.lineno}: nothing refers to {private}" for private in defined
                         if private.startswith("_") and not private.startswith("__")
                         and private not in referenced]
    assert problems == []
