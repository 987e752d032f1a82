"""Forest autoencoding: instances to leaf-ordinal vectors and back.

Encoding is the forward pass of every tree. Decoding intersects the decision
path rules of the leaves named by an encoding into the maximal compatible
rule and returns a representative point of that region. Decoding under a
tree mask uses only the kept trees, which models operating a damaged model.

Both batch directions walk a group of trees at once through
``forest.TreeGroup.descend``: every (row, tree) pair moves down one level per
step, so a group costs its deepest tree's depth in steps, and a group holds
about ``_STEP_PAIRS`` pairs. Encoding steers each pair by the row's values
through ``forest.node_test``, the test training routes its rows by. Batch
decoding steers it by the stored position of the leaf its ordinal names, as
a fold that tightens a per-row region state once per kept tree: lower and
upper ends of every attribute, and the categories that refused tests ban.
The per-row ``decode_region`` builds the same region with the rule algebra
of ``rules.py``; with ``rules.representative`` it is the reference the batch
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
)
from .forest import Forest, TreeGroup, budget_runs, get_path, path_to_rule
from .persistence import EncodingMatrix, forest_hex_id
from .rng import permutation
from .rules import Rule, calculate_mcr, normalize_strategy, pick_interval_batch

# About the most (row, tree) pairs one walk holds: encode and decode walk the
# trees of an n-row batch in runs of about _STEP_PAIRS // n (at least one),
# which bounds the walk's memory whatever the forest's size.
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
    """``trees`` in runs that one walk holds at once: about ``_STEP_PAIRS``
    (row, tree) pairs, and always at least one tree."""
    return [trees[run] for run in budget_runs(np.full(len(trees), max(n, 1)), _STEP_PAIRS)]


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


def _absorb(state, trees, leaf_ids: np.ndarray, sizes: np.ndarray) -> None:
    """Tighten the per-row region state by every test on the paths to the
    leaves that ``leaf_ids`` (one column per tree of ``trees``) names.

    Every attribute kind shares one state: per-row ends ``lo``/``hi`` of every
    attribute and a ``banned`` mask whose columns hold each categorical
    attribute's values in turn (``sizes`` are the category counts). The trees
    walk all rows down to the leaves their ordinals name together, one level
    per step. In pre-order the true subtree of node ``i`` starts at
    ``true_child[i]``, so a pair bound for leaf node ``target`` takes the true
    branch exactly when ``target >= true_child[i]``. A taken test raises ``lo``
    (``x >= t`` to ``t``, ``x == v`` to ``v``); ``hi`` falls to the open end
    ``t`` of a refused ``x >= t`` and to the closed end ``v`` of a taken
    ``x == v``, so two different values leave ``lo > hi``; a refused ``x == v``
    bans ``v``. Ends are written at flat (row, attribute) cells with
    ``maximum.at``/``minimum.at``, exact whichever tree reaches a cell first.
    """
    lo, hi, banned = state
    n, d = lo.shape
    width, is_cat, start = banned.shape[1], sizes > 0, np.cumsum(sizes) - sizes
    group = TreeGroup(trees)
    k = group.n_trees
    target = group.leaf_nodes(leaf_ids).ravel()
    lo, hi, banned = lo.ravel(), hi.ravel(), banned.ravel()  # views of the state

    def go_true(pairs, nodes):
        taken = target[pairs] >= group.true_child[nodes]
        a = group.attr[nodes]
        rows = pairs // k
        cells = rows * d + a
        p = group.param[nodes]
        cat = is_cat[a]
        np.maximum.at(lo, cells[taken], p[taken])
        down = taken == cat
        np.minimum.at(hi, cells[down], p[down])
        ban = cat & ~taken
        banned[rows[ban] * width + start[a[ban]] + p[ban].astype(np.intp)] = True
        return taken

    group.descend(n, go_true)


def _finish(forest: Forest, state, strategy: str) -> np.ndarray:
    """Representative of every row's region; reads the state, never writes it.
    A categorical attribute takes the lowest value in ``[lo, hi]`` not banned."""
    lo, hi, banned = state
    sizes = forest.schema.category_sizes
    cat = np.flatnonzero(sizes)
    start = np.cumsum(sizes) - sizes
    # column c of ``banned`` is value ``value[c]`` of attribute ``owner[c]``
    owner = np.repeat(np.arange(len(sizes)), sizes)
    value = np.arange(banned.shape[1]) - start[owner]
    free = ~banned & (lo[:, owner] <= value) & (value <= hi[:, owner])
    # each attribute's lowest free value, or its size when none is free
    first = np.minimum.reduceat(np.where(free, value, sizes[owner]), start[cat], axis=1)

    X = np.where(lo == -np.inf, forest.bounds.lo, lo)  # the clamped lower ends: the output
    # ``hi`` is an open end unless it is +inf, where the bound is the closed
    # end; so the empty test needs no clamped copy of ``hi``
    empty = np.greater(X, forest.bounds.hi)
    empty &= hi == np.inf
    empty |= X >= hi
    empty[:, cat] = first == sizes[cat]  # their hi is a closed end, not open
    if empty.any():
        i, j = np.argwhere(empty)[0]
        raise EmptyMCRError(
            f"row {i}, attribute {forest.schema.names[j]}: rule intersection is empty"
        )
    strategy = normalize_strategy(strategy)
    if strategy != "min":  # "min" picks the lower ends themselves
        num = slice(None) if not len(cat) else np.flatnonzero(sizes == 0)  # views when all numeric
        X[:, num] = pick_interval_batch(X[:, num], hi[:, num], forest.bounds.hi[num], strategy)
    X[:, cat] = first
    return X


def decode_masks(forest: Forest, matrix: EncodingMatrix, masks, strategy: str = "min"):
    """Yield the reconstruction of every encoded instance under each mask in turn.

    Each kept tree tightens the rows' regions (``lo`` by max, ``hi`` by min,
    banned categories by OR), which is exact in any tree order. A mask holding
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
    sizes = schema.category_sizes
    state, absorbed = None, set()
    for mask in masks:
        keep = _resolve_mask(mask, forest.T)
        if state is None or not absorbed.issubset(keep):
            state = (np.full((n, schema.d), -np.inf), np.full((n, schema.d), np.inf),
                     np.zeros((n, sizes.sum()), dtype=bool))
            absorbed = set()
        new = [t for t in keep if t not in absorbed]
        for ts in _groups(new, n):
            _absorb(state, [forest.trees[t] for t in ts], leaf_ids[:, ts], sizes)
        absorbed = set(keep)
        yield Dataset._adopt(schema, _finish(forest, state, strategy))


def decode_batch(
    forest: Forest,
    matrix: EncodingMatrix,
    strategy: str = "min",
    mask: TreeMask | None = None,
) -> Dataset:
    """Reconstruct every encoded instance as a dataset over the model schema."""
    return next(decode_masks(forest, matrix, [mask], strategy))
