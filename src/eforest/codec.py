"""Forest autoencoding: instances to leaf-ordinal vectors and back.

Encoding is the forward pass of every tree. Decoding intersects the decision
path rules of the leaves named by an encoding into the maximal compatible
rule and returns a representative point of that region. Decoding under a
tree mask uses only the kept trees, which models operating a damaged model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Schema
from .errors import (
    ConfigError,
    EmptyMCRError,
    LeafIndexError,
    ModelMismatchError,
    SchemaMismatchError,
)
from .forest import Forest, Tree, get_path, path_to_rule
from .persistence import forest_hex_id
from .rng import permutation
from .rules import NEG_INF, POS_INF, Rule, calculate_mcr, pick_interval_batch, representative


@dataclass(frozen=True)
class TreeMask:
    """Sorted, duplicate-free set of tree indexes to keep while decoding."""

    keep: tuple[int, ...]

    def __post_init__(self):
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

        The same seed yields one permutation for every fraction, so masks for
        increasing fractions are nested.
        """
        if not 0.0 < keep_fraction <= 1.0:
            raise ConfigError(f"keep fraction must be in (0, 1], got {keep_fraction}")
        if keep_fraction * n_trees < 1.0:
            raise ConfigError(
                f"keep fraction {keep_fraction} of {n_trees} trees keeps none"
            )
        k = math.ceil(keep_fraction * n_trees)
        return cls(tuple(permutation(seed, n_trees)[:k]))


@dataclass(frozen=True)
class EncodingMatrix:
    """Leaf ordinals of n instances under T trees, tied to a model by its hash."""

    leaf_ids: np.ndarray
    forest_id: str

    def __post_init__(self):
        arr = np.asarray(self.leaf_ids, dtype=np.int32)
        if arr.ndim != 2:
            raise ValueError("leaf_ids must be a 2-d array")
        object.__setattr__(self, "leaf_ids", arr)

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
        for j, (mk, dk) in enumerate(zip(model.kinds, data.kinds)):
            if type(mk) is not type(dk):
                raise SchemaMismatchError(
                    f"attribute {j}: model kind {mk!r} vs data kind {dk!r}"
                )
            if hasattr(mk, "size") and mk.size != dk.size:
                raise SchemaMismatchError(
                    f"attribute {j}: model has {mk.size} categories, data {dk.size}"
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
    cols = [tree.encode_batch(dataset.X) for tree in forest.trees]
    leaf_ids = np.column_stack(cols).astype(np.int32, copy=False)
    return EncodingMatrix(leaf_ids, forest_hex_id(forest))


def _validate_encoding(forest: Forest, enc: np.ndarray) -> None:
    if enc.shape != (forest.T,):
        raise LeafIndexError(
            f"encoding has {enc.shape} entries, forest has {forest.T} trees"
        )
    for t, tree in enumerate(forest.trees):
        if not 0 <= enc[t] < tree.leaf_count:
            raise LeafIndexError(
                f"tree {t}: leaf ordinal {enc[t]} out of range "
                f"(tree has {tree.leaf_count} leaves)"
            )


def decode_region(forest: Forest, encoding, mask: TreeMask | None = None) -> Rule:
    """Maximal compatible rule of an encoding: the intersection of every kept
    tree's decision-path rule, clamped to the training bounds."""
    enc = np.asarray(encoding, dtype=np.int64)
    _validate_encoding(forest, enc)
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


def _leaf_constraints(tree: Tree, leaf: int, cat_attrs: frozenset[int]):
    """Raw path rule of one leaf as (attrs, lo, hi, cats).

    ``attrs``/``lo``/``hi`` give, per numeric attribute the path tests, the
    closed lower and open upper end of its span (infinite where the path sets
    none). ``cats`` lists every test on an attribute in ``cat_attrs``, the
    schema's categorical ones, as (attr, category, taken). Nothing is clamped
    to the training bounds.
    """
    spans: dict[int, list[float]] = {}
    cats: list[tuple[int, int, bool]] = []
    true_child, attr, param = tree.true_child, tree.attr, tree.param
    # walk down from the root; the false subtree of node i holds (true_child[i] - i) // 2 leaves
    node, below = 0, tree.leaf_count
    while below > 1:
        a = int(attr[node])
        t = float(param[node])
        tr = int(true_child[node])
        in_false = (tr - node) // 2
        taken = leaf >= in_false
        if taken:
            leaf -= in_false
            below -= in_false
            node = tr
        else:
            below = in_false
            node += 1
        if a in cat_attrs:
            cats.append((a, int(t), taken))
        else:
            span = spans.get(a)
            if span is None:
                span = [NEG_INF, POS_INF]
                spans[a] = span
            if taken:
                if t > span[0]:
                    span[0] = t
            elif t < span[1]:
                span[1] = t
    attrs = np.fromiter(spans.keys(), dtype=np.int64, count=len(spans))
    lo = np.fromiter((s[0] for s in spans.values()), dtype=np.float64, count=len(spans))
    hi = np.fromiter((s[1] for s in spans.values()), dtype=np.float64, count=len(spans))
    return attrs, lo, hi, cats


def _decode_rows(forest: Forest, leaf_ids: np.ndarray, strategy: str, keep) -> np.ndarray:
    """Vectorized decode of every row; exactly equivalent to per-row decode().

    Numeric attributes carry per-row lower and upper ends, categorical ones
    an (n, size) allowed-value mask. Rows are grouped by leaf per tree so
    each distinct path rule is extracted once and applied to its whole group.
    """
    n = leaf_ids.shape[0]
    schema = forest.schema
    lo = np.full((n, schema.d), -np.inf)
    hi = np.full((n, schema.d), np.inf)
    allowed = {
        j: np.ones((n, schema.category_count(j)), dtype=bool)
        for j in range(schema.d)
        if schema.is_categorical(j)
    }
    cat_attrs = frozenset(allowed)
    for t in keep:
        order = np.argsort(leaf_ids[:, t], kind="stable")
        leaves, starts = np.unique(leaf_ids[order, t], return_index=True)
        for leaf, rows in zip(leaves, np.split(order, starts[1:])):
            attrs, glo, ghi, cats = _leaf_constraints(forest.trees[t], int(leaf), cat_attrs)
            idx = (rows[:, None], attrs[None, :])
            lo[idx] = np.maximum(lo[idx], glo)
            hi[idx] = np.minimum(hi[idx], ghi)
            for a, v, taken in cats:
                allow = allowed[a]
                allow[rows] &= (np.arange(allow.shape[1]) == v) == taken
    hi_open = hi != np.inf
    lo = np.where(lo == -np.inf, forest.bounds.lo, lo)
    hi = np.where(hi_open, hi, forest.bounds.hi)
    empty = (lo > hi) | ((lo == hi) & hi_open)
    for j, allow in allowed.items():
        empty[:, j] = ~allow.any(axis=1)
    if empty.any():
        i, j = np.argwhere(empty)[0]
        raise EmptyMCRError(f"row {i}, attribute {schema.names[j]}: rule intersection is empty")
    X = pick_interval_batch(lo, hi, hi_open, strategy)
    for j, allow in allowed.items():
        X[:, j] = allow.argmax(axis=1)
    return X


def decode_batch(
    forest: Forest,
    matrix: EncodingMatrix,
    strategy: str = "min",
    mask: TreeMask | None = None,
) -> Dataset:
    """Reconstruct every encoded instance as a dataset over the model schema."""
    if matrix.forest_id != forest_hex_id(forest):
        raise ModelMismatchError(
            f"encodings were produced by model {matrix.forest_id}, "
            f"decoding with {forest_hex_id(forest)}"
        )
    if matrix.T != forest.T:
        raise LeafIndexError(
            f"encoding matrix has {matrix.T} columns, forest has {forest.T} trees"
        )
    leaf_ids = matrix.leaf_ids
    for t, tree in enumerate(forest.trees):
        col = leaf_ids[:, t]
        if len(col) and (col.min() < 0 or col.max() >= tree.leaf_count):
            raise LeafIndexError(f"tree {t}: leaf ordinal out of range")
    X = _decode_rows(forest, leaf_ids, strategy, _resolve_mask(mask, forest.T))
    return Dataset(forest.schema, X)
