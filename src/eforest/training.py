"""Forest training: supervised (information gain) and completely random trees.

Both modes grow axis-aligned binary trees. Supervised trees draw a bootstrap
sample, inspect ceil(sqrt(d)) attributes per node, and take the candidate
split with the highest information gain. Unsupervised trees use all rows,
pick one attribute uniformly among those not constant in the node, and split
at a uniform random point inside the node's value range. All randomness comes
from one splitmix64 stream per tree, so a seed fixes the forest exactly.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Schema, compute_bounds
from .errors import ConfigError, EmptyDataError, MissingLabelsError, UnknownCategoryError
from .forest import Forest, Tree
from .rng import SplitMix64, tree_stream

MODES = ("supervised", "unsupervised")


@dataclass
class TrainConfig:
    """Training parameters; bootstrap defaults to true only for supervised mode."""

    mode: str
    n_trees: int
    seed: int = 0
    min_node_size: int = 2
    max_depth_cap: int | None = None
    bootstrap: bool | None = None
    threads: int = 1

    def __post_init__(self):
        for name in ("n_trees", "seed", "min_node_size", "max_depth_cap", "threads"):
            value = getattr(self, name)
            if name == "max_depth_cap" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.bootstrap is not None and not isinstance(self.bootstrap, bool):
            raise ConfigError(f"bootstrap must be a boolean, got {self.bootstrap!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_node_size < 1:
            raise ConfigError(f"min_node_size must be >= 1, got {self.min_node_size}")
        if self.max_depth_cap is not None and self.max_depth_cap < 0:
            raise ConfigError("max_depth_cap must be >= 0")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

    @property
    def resolved_bootstrap(self) -> bool:
        if self.bootstrap is None:
            return self.mode == "supervised"
        return self.bootstrap

    def to_meta(self) -> dict:
        """Training summary persisted with the model; excludes execution details."""
        return {
            "mode": self.mode,
            "n_trees": self.n_trees,
            "seed": self.seed,
            "min_node_size": self.min_node_size,
            "max_depth_cap": self.max_depth_cap,
            "bootstrap": self.resolved_bootstrap,
        }


def _xlogx_table(n: int) -> np.ndarray:
    """table[m] = m * log2(m), table[0] = 0; lets gain sweeps stay in integer counts."""
    table = np.zeros(n + 1)
    if n >= 1:
        m = np.arange(1, n + 1, dtype=np.float64)
        table[1:] = m * np.log2(m)
    return table


# -- unsupervised splits ------------------------------------------------------

_REJECT_ROUNDS = 16
_THRESHOLD_ROUNDS = 8


def _unsup_split(XT, rows, stream: SplitMix64, is_cat):
    """Pick ((attr, param), true-branch mask) for one node, or None if no
    attribute varies.

    The attribute is uniform over attributes not constant within the node:
    rejection sampling over all attributes, falling back to an exact scan of
    the node after repeated misses, keeps the choice uniform either way.
    """
    d = XT.shape[0]
    j = -1
    col = None
    for _ in range(_REJECT_ROUNDS):
        cand = stream.below(d)
        c = XT[cand][rows]
        if c.min() < c.max():
            j, col = cand, c
            break
    if j < 0:
        sub = XT[:, rows]
        varying = np.nonzero(sub.min(axis=1) < sub.max(axis=1))[0]
        if len(varying) == 0:
            return None
        j = int(varying[stream.below(len(varying))])
        col = sub[j]
    if is_cat[j]:
        present = np.unique(col)
        v = float(present[stream.below(len(present))])
        return (j, v), col == v
    lo = float(col.min())
    hi = float(col.max())
    thr = None
    for _ in range(_THRESHOLD_ROUNDS):
        t = lo + stream.f01() * (hi - lo)
        if lo < t < hi:
            thr = t
            break
    if thr is None:
        thr = math.nextafter(lo, hi)
    return (j, thr), col >= thr


def build_unsupervised_node(
    X: np.ndarray, rows: np.ndarray, rng: SplitMix64, schema: Schema, min_node_size: int = 2
) -> tuple[int, float] | None:
    """Completely random (attr, param) node test for a row subset, or None to
    declare a leaf."""
    split = _splitter(np.asarray(X, dtype=np.float64).T, None, schema, min_node_size)
    picked = split(np.asarray(rows, dtype=np.int64), rng)
    return picked[0] if picked else None


# -- supervised splits --------------------------------------------------------


def _numeric_threshold(values, pos: int) -> float:
    """Midpoint between adjacent distinct values, nudged up if rounding hits the left."""
    lo = float(values[pos])
    hi = float(values[pos + 1])
    mid = 0.5 * (lo + hi)
    return mid if mid > lo else hi


def _sup_split(XT, rows, y, stream: SplitMix64, is_cat, n_classes, xlogx, n_sample):
    """Best-gain ((attr, param), true-branch mask) over a random attribute
    sample, or None if no gain is positive.

    One argsort of the sampled attributes' values cuts each attribute into
    runs of equal values, and one bincount counts the classes of every run.
    A numeric candidate ends any run but its attribute's last; the rows below
    it form its attribute's runs so far. A categorical candidate is any run of
    an attribute with at least two; its rows take the true branch. Gains are
    computed at candidates only, in (attribute, value) order, so the first
    maximum breaks ties to the lowest attribute index, then the lowest
    threshold or category value.
    """
    nn = len(rows)
    attrs = np.sort(stream.sample_without_replacement(XT.shape[0], n_sample))
    order = np.argsort(XT[attrs[:, None], rows], axis=1)
    sv = XT[attrs[:, None], rows[order]].ravel()
    # an attribute's first row starts a run, and a sentinel start closes the last
    start = np.empty(len(sv) + 1, dtype=bool)
    np.not_equal(sv[1:], sv[:-1], out=start[1:-1])
    start[::nn] = True
    bounds = np.flatnonzero(start)
    first, end = bounds[:-1], bounds[1:]
    run_attr = first // nn
    cat = is_cat[attrs][run_attr]
    cand = np.flatnonzero(np.where(cat, end - first < nn, end % nn > 0))
    if not len(cand):
        return None
    run = np.cumsum(start[:-1]) - 1
    counts = np.bincount(run * n_classes + y[order].ravel(), minlength=len(first) * n_classes)
    counts = counts.reshape(-1, n_classes)
    total = np.bincount(y, minlength=n_classes)
    # every attribute's runs hold all rows, so its running sum starts at attr * total
    below = np.cumsum(counts, axis=0) - run_attr[:, None] * total
    left = np.where(cat[:, None], counts, below)[cand]
    nl = left.sum(axis=1)
    parent_term = xlogx[nn] - xlogx[total].sum()
    left_term = xlogx[nl] - xlogx[left].sum(axis=1)
    right_term = xlogx[nn - nl] - xlogx[total - left].sum(axis=1)
    gains = parent_term - left_term - right_term
    i = int(np.argmax(gains))
    if not gains[i] > 0.0:
        return None
    r = int(cand[i])
    a = int(attrs[run_attr[r]])
    col = XT[a][rows]
    values = sv[first]
    if cat[r]:
        v = float(values[r])
        return (a, v), col == v
    thr = _numeric_threshold(values, r)
    return (a, thr), col >= thr


def attribute_sample_size(d: int) -> int:
    """ceil(sqrt(d)) attributes inspected per supervised node."""
    return min(d, math.ceil(math.sqrt(d)))


def build_supervised_node(
    X: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    rng: SplitMix64,
    schema: Schema,
    min_node_size: int = 2,
) -> tuple[int, float] | None:
    """Best-gain (attr, param) node test for a row subset, or None to declare
    a leaf.

    A leaf is declared when the node is label-pure, has at most
    ``min_node_size`` rows, or no sampled candidate achieves positive gain.
    """
    rows = np.asarray(rows, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    split = _splitter(np.asarray(X, dtype=np.float64).T, labels, schema, min_node_size,
                      max_rows=len(rows))
    picked = split(rows, rng)
    return picked[0] if picked else None


def _splitter(XT, labels, schema: Schema, min_node_size: int, max_rows: int | None = None):
    """The split function ``split(rows, stream)`` for one forest's data.

    ``XT`` holds one attribute per row. ``split`` returns ((attr, param),
    true-branch mask) for a node, or None to declare a leaf. The test
    is drawn at random when ``labels`` is None, else it is the best-gain split
    over nodes of at most ``max_rows`` rows (default: every row of the data).
    A node is a leaf when it holds at most ``min_node_size`` rows, when its
    labels are all equal, or when no split is found.
    """
    is_cat = schema.category_sizes > 0
    if labels is None:
        def split(rows, stream):
            if len(rows) <= min_node_size:
                return None
            return _unsup_split(XT, rows, stream, is_cat)
        return split

    # dense class ids: class-count tables grow with the class count, not the largest label
    classes, labels = np.unique(labels, return_inverse=True)
    n_classes = len(classes)
    xlogx = _xlogx_table(XT.shape[1] if max_rows is None else max_rows)
    n_sample = attribute_sample_size(XT.shape[0])

    def split(rows, stream):
        if len(rows) <= min_node_size:
            return None
        y = labels[rows]
        if (y == y[0]).all():
            return None
        return _sup_split(XT, rows, y, stream, is_cat, n_classes, xlogx, n_sample)
    return split


# -- tree growth --------------------------------------------------------------


def _grow_tree(split, rows0, stream, max_depth_cap: int | None) -> Tree:
    """Grow one tree, storing nodes in depth-first pre-order, false branch first."""
    attr: list[int] = []
    param: list[float] = []
    stack = [(rows0, 0)]
    while stack:
        rows, depth = stack.pop()
        at_cap = max_depth_cap is not None and depth >= max_depth_cap
        picked = None if at_cap else split(rows, stream)
        if picked is None:
            attr.append(-1)
            param.append(0.0)
            continue
        (a, p), mask = picked
        attr.append(a)
        param.append(p)
        stack.append((rows[mask], depth + 1))
        stack.append((rows[~mask], depth + 1))
    return Tree(attr, param)


def _train_one(t: int, split, n: int, cfg: TrainConfig) -> Tree:
    stream = tree_stream(cfg.seed, t)
    if cfg.resolved_bootstrap:
        rows0 = stream.below_block(n, n)
    else:
        rows0 = np.arange(n, dtype=np.int64)
    return _grow_tree(split, rows0, stream, cfg.max_depth_cap)


_FORK_PAYLOAD: list = []  # the (split, n, cfg) arguments of _train_one, inherited by fork


def _train_worker(t: int) -> tuple[np.ndarray, np.ndarray]:
    tree = _train_one(t, *_FORK_PAYLOAD)
    return tree.attr, tree.param


def train_forest(dataset: Dataset, config: TrainConfig) -> Forest:
    """Train a forest on a dataset; identical seeds give identical forests.

    Tree ``t`` consumes only its own random stream, so results do not depend
    on the thread count and trees always come back ordered by index.
    """
    if dataset.n == 0:
        raise EmptyDataError("cannot train on an empty dataset")
    labels = dataset.labels
    if config.mode == "supervised":
        if labels is None:
            raise MissingLabelsError("supervised training requires labels")
        if labels.min() < 0:
            raise UnknownCategoryError(
                f"supervised training needs class labels >= 0, got {labels.min()}"
            )
    else:
        labels = None
    split = _splitter(np.ascontiguousarray(dataset.X.T), labels, dataset.schema,
                      config.min_node_size)
    args = (split, dataset.n, config)

    if config.threads > 1 and hasattr(os, "fork"):
        import multiprocessing

        _FORK_PAYLOAD[:] = args
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=config.threads, mp_context=ctx) as pool:
                raw = list(pool.map(_train_worker, range(config.n_trees)))
            trees = [Tree(*arrays) for arrays in raw]
        finally:
            _FORK_PAYLOAD.clear()
    else:
        trees = [_train_one(t, *args) for t in range(config.n_trees)]
    return Forest(
        trees,
        dataset.schema,
        compute_bounds(dataset.schema, dataset.X),
        kind=config.mode,
        seed=config.seed,
        config=config.to_meta(),
    )
