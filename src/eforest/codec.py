"""Forest autoencoding: instances to leaf-ordinal vectors and back.

Encoding is the forward pass of every tree. Decoding intersects the decision
path rules of the leaves named by an encoding into the maximal compatible
rule and returns a representative point of that region. Decoding under a
tree mask uses only the kept trees, which models operating a damaged model.

Both batch directions walk all rows down a tree level by level through
``Tree.descend``: encoding steers each row by its attribute values, batch
decoding by the stored position of the leaf its ordinal names, as a fold that
tightens a per-row region state once per kept tree. A node's test is
``x[attr] == param`` when the schema marks its attribute categorical, else
``x[attr] >= param``. The per-row
``decode_region``/``decode`` build the same region with the rule algebra of
``rules.py`` and are the reference the batch engine is tested against.
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
from .forest import Forest, get_path, path_to_rule
from .persistence import forest_hex_id
from .rng import permutation
from .rules import Rule, calculate_mcr, pick_interval_batch, representative


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


def encode_batch(forest: Forest, dataset: Dataset, reuse: bool = False) -> EncodingMatrix:
    """Encode every instance; column t holds tree t's leaf ordinals.

    With ``reuse`` the dataset only needs positionally compatible attribute
    kinds, not the schema the model was trained on.
    """
    _check_schema(forest.schema, dataset.schema, reuse)
    cols = [tree.encode_batch(dataset.X, forest.schema) for tree in forest.trees]
    leaf_ids = np.column_stack(cols).astype(np.int32, copy=False)
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


def decode(
    forest: Forest,
    encoding,
    strategy: str = "min",
    mask: TreeMask | None = None,
) -> np.ndarray:
    """Reconstruct one instance from its encoding via the rule algebra."""
    return representative(decode_region(forest, encoding, mask), strategy)


def _absorb(state, tree, leaves: np.ndarray, is_cat: np.ndarray) -> None:
    """Tighten the per-row region state by every test on the paths to ``leaves``.

    Numeric attributes carry per-row lower and upper ends, categorical ones
    (``is_cat``) an (n, size) allowed-value mask. The tree walks all rows down
    to the leaves their ordinals name, level by level, and applies every test
    on the way. In pre-order the true subtree of node ``i`` starts at
    ``true_child[i]``, so a row bound for leaf node ``target`` takes the true
    branch exactly when ``target >= true_child[i]``. Within one level each
    row sits at one node, so every (row, attribute) cell is written once.
    """
    lo, hi, allowed = state
    target = np.flatnonzero(tree.attr < 0)[leaves]

    def go_true(rows, nodes):
        taken = target[rows] >= tree.true_child[nodes]
        a = tree.attr[nodes]
        p = tree.param[nodes]
        cat = is_cat[a]
        num = ~cat
        up = num & taken
        r, c = rows[up], a[up]
        lo[r, c] = np.maximum(lo[r, c], p[up])
        down = num & ~taken
        r, c = rows[down], a[down]
        hi[r, c] = np.minimum(hi[r, c], p[down])
        if cat.any():
            r, a, v, tk = rows[cat], a[cat], p[cat].astype(np.intp), taken[cat]
            for j in np.unique(a):
                allow = allowed[int(j)]
                on = a == j
                # x[j] != v removes v; x[j] == v keeps v alone, if still allowed
                off = on & ~tk
                allow[r[off], v[off]] = False
                on &= tk
                rt, vt = r[on], v[on]
                hit = allow[rt, vt]
                allow[rt] = False
                allow[rt, vt] = hit
        return taken

    tree.descend(len(leaves), go_true)


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
        for t in keep:
            if t not in absorbed:
                _absorb(state, forest.trees[t], leaf_ids[:, t], is_cat)
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
