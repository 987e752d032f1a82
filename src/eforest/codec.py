"""Forest autoencoding: instances to leaf-ordinal vectors and back.

Encoding is the forward pass of every tree. Decoding intersects the decision
path rules of the leaves named by an encoding into the maximal compatible
rule and returns a representative point of that region. Decoding under a
tree mask uses only the kept trees, which models operating a damaged model.

Both batch directions walk a group of trees at once through
``forest.TreeGroup.descend``: every (row, tree) pair moves down one level per
step, so a group costs its deepest tree's depth in steps, and a group holds at
most ``_STEP_PAIRS`` pairs. Encoding steers each pair by the row's attribute
values. Batch decoding steers it by the stored position of the leaf its
ordinal names, as a fold that tightens a per-row region state once per kept
tree. A node's test is ``x[attr] == param`` when the schema marks its
attribute categorical, else ``x[attr] >= param``. The per-row
``decode_region`` builds the same region with the rule algebra of
``rules.py``; with ``rules.representative`` it is the reference the batch
engine is tested against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Schema, integer_array
from .errors import (
    ConfigError,
    EmptyMCRError,
    LeafIndexError,
    ModelMismatchError,
    SchemaMismatchError,
    ShapeError,
)
from .forest import Forest, TreeGroup, get_path, path_to_rule
from .persistence import forest_hex_id
from .rng import permutation
from .rules import Rule, calculate_mcr, pick_interval_batch

# The most (row, tree) pairs one walk holds: encode and decode walk
# max(1, _STEP_PAIRS // n) trees of an n-row batch at once, which bounds the
# walk's memory whatever the forest's size.
_STEP_PAIRS = 1 << 18


@dataclass(frozen=True)
class TreeMask:
    """Sorted, duplicate-free set of tree indexes to keep while decoding."""

    keep: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in self.keep):
            raise ConfigError(f"tree indexes must be integers, got {self.keep!r}")
        keep = tuple(int(i) for i in self.keep)
        if not keep:
            raise ConfigError("a tree mask must keep at least one tree")
        if any(i < 0 for i in keep):
            raise ConfigError("tree indexes must be >= 0")
        if len(set(keep)) != len(keep):
            raise ConfigError("tree mask holds duplicate indexes")
        object.__setattr__(self, "keep", tuple(sorted(keep)))

    def __len__(self) -> int:
        return len(self.keep)

    @classmethod
    def from_fraction(cls, n_trees: int, keep_fraction: float, seed: int) -> "TreeMask":
        """Keep a seeded random ceil(fraction * n_trees) subset of trees.

        The product is rounded to 9 decimals first, so float noise such as
        0.07 * 100 = 7.000000000000001 adds no tree; a product below one keeps
        none and is refused. The same seed yields one permutation for every
        fraction, so masks for increasing fractions are nested.
        """
        if not 0.0 < keep_fraction <= 1.0:
            raise ConfigError(f"keep fraction must be in (0, 1], got {keep_fraction}")
        share = round(keep_fraction * n_trees, 9)
        if share < 1.0:
            raise ConfigError(
                f"keep fraction {keep_fraction} of {n_trees} trees keeps none"
            )
        k = math.ceil(share)
        return cls(tuple(permutation(seed, n_trees)[:k]))


@dataclass(frozen=True)
class EncodingMatrix:
    """Leaf ordinals of n instances under T trees, tied to a model by its hash."""

    leaf_ids: np.ndarray
    forest_id: str

    def __post_init__(self):
        if np.ndim(self.leaf_ids) != 2:
            raise ShapeError(f"leaf_ids must be a 2-d array, got {np.ndim(self.leaf_ids)}-d")
        leaf_ids = integer_array(self.leaf_ids, np.int32, LeafIndexError, "leaf ordinals")
        object.__setattr__(self, "leaf_ids", leaf_ids)

    @property
    def n(self) -> int:
        return self.leaf_ids.shape[0]

    @property
    def T(self) -> int:
        return self.leaf_ids.shape[1]


def _check_schema(model: Schema, data: Schema, reuse: bool) -> None:
    if reuse:
        if model.d != data.d:
            raise SchemaMismatchError(
                f"model expects d={model.d}, data has d={data.d}"
            )
        ms, ds = model.category_sizes, data.category_sizes
        differ = np.flatnonzero(ms != ds)
        if len(differ):
            j = int(differ[0])
            if ms[j] and ds[j]:
                raise SchemaMismatchError(
                    f"attribute {j}: model has {ms[j]} categories, data {ds[j]}"
                )
            raise SchemaMismatchError(
                f"attribute {j}: model kind {model.kinds[j]!r} vs data kind {data.kinds[j]!r}"
            )
    elif model != data:
        raise SchemaMismatchError("dataset schema differs from the model schema")


def _resolve_mask(mask: TreeMask | None, n_trees: int) -> tuple[int, ...]:
    if mask is None:
        return tuple(range(n_trees))
    if mask.keep[-1] >= n_trees:
        raise ConfigError(
            f"tree mask index {mask.keep[-1]} out of range for {n_trees} trees"
        )
    return mask.keep


def _groups(trees, n: int):
    """``trees`` in runs that one walk holds at once: at most ``_STEP_PAIRS``
    (row, tree) pairs, and always at least one tree."""
    size = max(1, _STEP_PAIRS // max(n, 1))
    for i in range(0, len(trees), size):
        yield trees[i:i + size]


def encode_batch(forest: Forest, dataset: Dataset, reuse: bool = False) -> EncodingMatrix:
    """Encode every instance; column t holds tree t's leaf ordinals.

    With ``reuse`` the dataset only needs positionally compatible attribute
    kinds, not the schema the model was trained on.
    """
    _check_schema(forest.schema, dataset.schema, reuse)
    n = dataset.n
    leaf_ids = np.empty((n, forest.T), dtype=np.int32)
    for ts in _groups(range(forest.T), n):
        group = TreeGroup([forest.trees[t] for t in ts])
        leaf_ids[:, ts] = group.encode(dataset.X, forest.schema)
    return EncodingMatrix(leaf_ids, forest_hex_id(forest))


def _check_ordinals(forest: Forest, leaf_ids: np.ndarray) -> None:
    """Refuse encodings unless every row holds one in-range leaf ordinal per tree."""
    if leaf_ids.shape[1:] != (forest.T,):
        raise LeafIndexError(
            f"encoding rows have shape {leaf_ids.shape[1:]}, forest has {forest.T} trees"
        )
    counts = np.array([tree.leaf_count for tree in forest.trees])
    low, high = leaf_ids.min(axis=0, initial=0), leaf_ids.max(axis=0, initial=0)
    bad = (low < 0) | (high >= counts)
    if bad.any():
        t = int(bad.argmax())
        raise LeafIndexError(
            f"tree {t}: leaf ordinal {low[t] if low[t] < 0 else high[t]} out of range "
            f"(tree has {counts[t]} leaves)"
        )


def decode_region(forest: Forest, encoding, mask: TreeMask | None = None) -> Rule:
    """Maximal compatible rule of an encoding: the intersection of every kept
    tree's decision-path rule, clamped to the training bounds."""
    enc = integer_array(encoding, np.int32, LeafIndexError, "leaf ordinals")
    _check_ordinals(forest, enc[None])
    keep = _resolve_mask(mask, forest.T)
    rules = [
        path_to_rule(get_path(forest.trees[t], int(enc[t])), forest.schema)
        for t in keep
    ]
    return calculate_mcr(rules, forest.bounds, forest.schema)


def _absorb(state, trees, leaf_ids: np.ndarray, is_cat: np.ndarray) -> None:
    """Tighten the per-row region state by every test on the paths to the
    leaves that ``leaf_ids`` (one column per tree of ``trees``) names.

    Numeric attributes carry per-row lower and upper ends, categorical ones
    (``is_cat``) an (n, size) allowed-value mask. The trees walk all rows down
    to the leaves their ordinals name together, one level per step. In
    pre-order the true subtree of node ``i`` starts at ``true_child[i]``, so a
    pair bound for leaf node ``target`` takes the true branch exactly when
    ``target >= true_child[i]``. Numeric tests raise ``lo`` and lower ``hi``
    at flat (row, attribute) cells with ``maximum.at``/``minimum.at``, which
    are exact whichever tree reaches a cell first; categorical tests are
    gathered and applied once the walk ends.
    """
    lo, hi, allowed = state
    n, d = lo.shape
    group = TreeGroup(trees)
    k = group.n_trees
    target = group.leaf_nodes(leaf_ids).ravel()
    lo, hi = lo.ravel(), hi.ravel()  # views: the state arrays are contiguous
    cat_tests = []

    def go_true(pairs, nodes):
        taken = target[pairs] >= group.true_child[nodes]
        a = group.attr[nodes]
        cells = pairs // k * d + a
        p = group.param[nodes]
        cat = is_cat[a]
        up = taken & ~cat
        np.maximum.at(lo, cells[up], p[up])
        down = ~(taken | cat)
        np.minimum.at(hi, cells[down], p[down])
        if cat.any():
            cat_tests.append((cells[cat], p[cat].astype(np.intp), taken[cat]))
        return taken

    group.descend(n, go_true)
    if cat_tests:
        cells, values, taken = map(np.concatenate, zip(*cat_tests))
        rows, attrs = np.divmod(cells, d)
        for j in np.unique(attrs):
            allow = allowed[int(j)]
            on = attrs == j
            # x[j] != v removes v
            off = on & ~taken
            allow[rows[off], values[off]] = False
            # x[j] == v keeps v alone, if still allowed: two different values
            # in one row leave nothing
            on &= taken
            r, inv = np.unique(rows[on], return_inverse=True)
            v = values[on]
            least = np.full(len(r), np.iinfo(np.intp).max)
            np.minimum.at(least, inv, v)
            most = np.full(len(r), -1)
            np.maximum.at(most, inv, v)
            hit = (least == most) & allow[r, least]
            allow[r] = False
            allow[r[hit], least[hit]] = True


def _finish(forest: Forest, state, strategy: str) -> np.ndarray:
    """Representative of every row's region; reads the state, never writes it."""
    lo, hi, allowed = state
    hi_open = hi != np.inf
    lo = np.where(lo == -np.inf, forest.bounds.lo, lo)
    hi = np.where(hi_open, hi, forest.bounds.hi)
    empty = (lo > hi) | ((lo == hi) & hi_open)
    for j, allow in allowed.items():
        empty[:, j] = ~allow.any(axis=1)
    if empty.any():
        i, j = np.argwhere(empty)[0]
        raise EmptyMCRError(
            f"row {i}, attribute {forest.schema.names[j]}: rule intersection is empty"
        )
    X = pick_interval_batch(lo, hi, hi_open, strategy)
    for j, allow in allowed.items():
        X[:, j] = allow.argmax(axis=1)
    return X


def decode_masks(forest: Forest, matrix: EncodingMatrix, masks, strategy: str = "min"):
    """Yield the reconstruction of every encoded instance under each mask in turn.

    Each kept tree tightens the rows' regions (``lo`` by max, ``hi`` by min,
    category masks by AND), which is exact in any tree order. A mask holding
    every tree absorbed so far absorbs only its new trees, so nested masks
    given smallest first walk each tree once; any other mask starts over. A
    ``None`` mask keeps every tree.
    """
    if matrix.forest_id != forest_hex_id(forest):
        raise ModelMismatchError(
            f"encodings were produced by model {matrix.forest_id}, "
            f"decoding with {forest_hex_id(forest)}"
        )
    leaf_ids = matrix.leaf_ids
    _check_ordinals(forest, leaf_ids)
    n, schema = matrix.n, forest.schema
    is_cat = schema.category_sizes > 0
    state, absorbed = None, set()
    for mask in masks:
        keep = _resolve_mask(mask, forest.T)
        if state is None or not absorbed.issubset(keep):
            state = (np.full((n, schema.d), -np.inf), np.full((n, schema.d), np.inf),
                     {int(j): np.ones((n, schema.category_sizes[j]), dtype=bool)
                      for j in np.flatnonzero(is_cat)})
            absorbed = set()
        new = [t for t in keep if t not in absorbed]
        for ts in _groups(new, n):
            _absorb(state, [forest.trees[t] for t in ts], leaf_ids[:, ts], is_cat)
        absorbed = set(keep)
        yield Dataset(schema, _finish(forest, state, strategy))


def decode_batch(
    forest: Forest,
    matrix: EncodingMatrix,
    strategy: str = "min",
    mask: TreeMask | None = None,
) -> Dataset:
    """Reconstruct every encoded instance as a dataset over the model schema."""
    return next(decode_masks(forest, matrix, [mask], strategy))
