"""The benchmark's workloads: one synthetic corpus each, split into train and
test rows, written to input files, plus the CLI flags that read them back.

Each workload stresses a different layer (see README.md for why):

- ``pixels-unsup``: unsupervised trees on glyph images read from idx files.
  Big, deep trees, so model persistence and the numeric decode kernel dominate.
- ``text-sup``: supervised trees on sparse tf-idf rows read from CSV. Split
  finding on continuous attributes dominates; the model is small.
- ``table-mixed``: supervised trees on a mixed categorical/numeric table read
  from CSV. Decoding takes the per-row rule-algebra path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import synthdata
from eforest import data


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str
    fmt: str
    mode: str
    metric: str | None  # None: the schema has categorical attributes, so no reconstruct/damage
    n_train: int = 0
    n_test: int = 0
    trees: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pixels-unsup", "mnist_like", "idx", "unsup", "mse"),
        Workload("text-sup", "tfidf_like", "csv", "sup", "cosine"),
        Workload("table-mixed", "random_mixed", "csv", "sup", None),
    )
}

# (n_train, n_test, trees) per size. "baseline" is the scale of the ROADMAP
# baseline table, one CLI loop of 15-30 s. "bench" is the timed default: a
# loop of about 4 s, so that one run repeats it several times and reports
# medians (see README.md). "smoke" is for the benchmark's own test.
SIZES = {
    "pixels-unsup": {"baseline": (2000, 1000, 100), "bench": (640, 320, 50), "smoke": (60, 30, 4)},
    "text-sup": {"baseline": (2000, 1000, 50), "bench": (800, 400, 25), "smoke": (60, 30, 4)},
    "table-mixed": {"baseline": (3000, 1000, 50), "bench": (1200, 400, 25), "smoke": (60, 30, 4)},
}

DAMAGE_KEEP = "0.25,0.5,0.75,1.0"
TABLE_SCHEMA_SEED = 10
TABLE_POOL = 12000


def sized(name: str, size: str) -> Workload:
    n_train, n_test, trees = SIZES[name][size]
    return replace(WORKLOADS[name], n_train=n_train, n_test=n_test, trees=trees)


def make_corpus(w: Workload, seed: int) -> data.Dataset:
    n = w.n_train + w.n_test
    if w.corpus == "mnist_like":
        return synthdata.mnist_like(n, seed=seed)
    if w.corpus == "tfidf_like":
        return synthdata.tfidf_like(n, 500, seed=seed)
    # random_mixed draws the column kinds from its seed, and they set the cost
    # of training and decoding; so the table is a seeded sample of rows from
    # one pool whose kinds stay fixed (6 categorical, 2 integer, 5 continuous,
    # 3 constant columns).
    pool = synthdata.random_mixed(TABLE_SCHEMA_SEED, n=TABLE_POOL, d=16)
    return pool.take(np.random.default_rng(seed).choice(TABLE_POOL, n, replace=False))


@dataclass(frozen=True)
class Inputs:
    """Input files of one workload and the in-memory rows they hold."""

    train_path: Path
    test_path: Path
    X_train: np.ndarray
    X_test: np.ndarray
    kinds: tuple


def write_inputs(w: Workload, corpus: data.Dataset, workdir: Path) -> Inputs:
    train = corpus.take(np.arange(w.n_train))
    test = corpus.take(np.arange(w.n_train, w.n_train + w.n_test))
    paths = []
    for part, ds in (("train", train), ("test", test)):
        if w.fmt == "idx":
            path = workdir / f"{part}-images.idx"
            synthdata.write_idx_images(path, ds.X.reshape(ds.n, synthdata.SIDE, synthdata.SIDE))
        else:
            path = workdir / f"{part}.csv"
            data.save_csv(ds, path, header=False, label_name="label")
        paths.append(path)
    return Inputs(paths[0], paths[1], train.X, test.X, corpus.schema.kinds)


def kind_spec(kinds) -> str | None:
    """``--csv-kinds`` value for a schema, or None when every column is numeric."""
    if all(isinstance(k, data.Numeric) for k in kinds):
        return None
    return ",".join(
        "num" if isinstance(k, data.Numeric) else "cat:" + "|".join(k.values) for k in kinds
    )


def data_flags(w: Workload, inputs: Inputs, path: Path) -> list[str]:
    if w.fmt == "idx":
        return ["--data", str(path), "--format", "idx"]
    flags = ["--data", str(path), "--format", "csv", "--label-column", str(len(inputs.kinds))]
    spec = kind_spec(inputs.kinds)
    if spec is not None:
        flags += ["--csv-kinds", spec]
    return flags


def load_input(w: Workload, inputs: Inputs, path: Path) -> data.Dataset:
    """Read an input file the way the CLI does, through the data layer."""
    if w.fmt == "idx":
        return data.load_idx(path)
    return data.load_csv(path, inputs.kinds, label_column=len(inputs.kinds))
