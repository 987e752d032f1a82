"""Forest autoencoding: instances to leaf-ordinal vectors and back.

Encoding is the forward pass of every tree. Decoding intersects the decision
path rules of the leaves named by an encoding into the maximal compatible
rule and returns a representative point of that region. Decoding under a
tree mask uses only the kept trees, which models operating a damaged model.

Both batch directions walk a run of trees, named by their roots, at once
through ``forest.descend``: every (row, tree) pair moves down one level per
step, so a run costs its deepest tree's depth in steps, and a run holds about
``_STEP_PAIRS`` pairs. Encoding steers each pair by the row's values
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
from .errors import ConfigError, EmptyMCRError, ModelMismatchError
from .forest import Forest, budget_runs, descend, encode, get_path, path_to_rule, ranges
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
        keep = tuple(self.keep)  # read once: ``keep`` may be a one-shot iterable
        if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in keep):
            raise ConfigError(f"tree indexes must be integers, got {self.keep!r}")
        keep = tuple(int(i) for i in keep)
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
        none and is refused. The same integer seed yields one permutation for
        every fraction, so masks for increasing fractions are nested.
        """
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ConfigError(f"mask seed must be an integer, got {seed!r}")
        check_keep_fractions([keep_fraction])
        share = round(keep_fraction * n_trees, 9)
        if share < 1.0:
            raise ConfigError(
                f"keep fraction {keep_fraction} of {n_trees} trees keeps none"
            )
        k = math.ceil(share)
        return cls(tuple(permutation(int(seed), n_trees)[:k]))


def check_keep_fractions(fractions) -> None:
    """Refuse an empty list of keep fractions, or one outside (0, 1]; these
    need no model, so the command line checks them before it reads one."""
    if not fractions:
        raise ConfigError("damage_curve needs at least one keep fraction")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ConfigError(f"keep fraction must be in (0, 1], got {f}")


def _check_schema(model: Schema, data: Schema, reuse: bool) -> None:
    if reuse:
        if model.d != data.d:
            raise ModelMismatchError(
                f"model expects d={model.d}, data has d={data.d}"
            )
        ms, ds = model.category_sizes, data.category_sizes
        differ = np.flatnonzero(ms != ds)
        if len(differ):
            j = int(differ[0])
            if ms[j] and ds[j]:
                raise ModelMismatchError(
                    f"attribute {j}: model has {ms[j]} categories, data {ds[j]}"
                )
            raise ModelMismatchError(
                f"attribute {j}: model kind {model.kinds[j]!r} vs data kind {data.kinds[j]!r}"
            )
    elif model != data:
        raise ModelMismatchError("dataset schema differs from the model schema")


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
        leaf_ids[:, ts] = encode(forest, forest.roots[ts], dataset.X)
    return EncodingMatrix(leaf_ids, forest_hex_id(forest))


def _check_ordinals(forest: Forest, leaf_ids: np.ndarray) -> None:
    """Refuse encodings unless every row holds one in-range leaf ordinal per tree."""
    if leaf_ids.shape[1:] != (forest.T,):
        raise ModelMismatchError(
            f"encoding rows have shape {leaf_ids.shape[1:]}, forest has {forest.T} trees"
        )
    low, high = leaf_ids.min(axis=0, initial=0), leaf_ids.max(axis=0, initial=0)
    bad = (low < 0) | (high >= forest.leaf_counts)
    if bad.any():
        t = int(bad.argmax())
        raise ModelMismatchError(
            f"tree {t}: leaf ordinal {low[t] if low[t] < 0 else high[t]} out of range "
            f"(tree has {forest.leaf_counts[t]} leaves)"
        )


def decode_region(forest: Forest, encoding, mask: TreeMask | None = None) -> Rule:
    """Maximal compatible rule of an encoding: the intersection of every kept
    tree's decision-path rule, clamped to the training bounds."""
    enc = integer_array(encoding, np.int32, ModelMismatchError, "leaf ordinals")
    _check_ordinals(forest, enc[None])
    keep = _resolve_mask(mask, forest.T)
    rules = [
        path_to_rule(get_path(forest.trees[t], int(enc[t])), forest.schema)
        for t in keep
    ]
    return calculate_mcr(rules, forest.bounds, forest.schema)


def _absorb(state, forest: Forest, ts, leaf_ids: np.ndarray, sizes: np.ndarray) -> None:
    """Tighten the per-row region state by every test on the paths to the
    leaves that ``leaf_ids`` (one column per tree of ``ts``) names.

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
    attr, param, true_child, k = forest.attr, forest.param, forest.true_child, len(ts)
    roots, counts = forest.roots[ts], forest.leaf_counts[ts]
    nodes = ranges(roots, 2 * counts - 1)  # of the trees ts, tree by tree
    # pick their leaves' positions by ordinal plus the leaves of earlier trees
    target = np.compress(attr[nodes] < 0, nodes)[leaf_ids + (np.cumsum(counts) - counts)].ravel()
    lo, hi, banned = lo.ravel(), hi.ravel(), banned.ravel()  # views of the state

    def go_true(pairs, nodes):
        taken = target[pairs] >= true_child[nodes]
        a = attr[nodes]
        rows = pairs // k
        cells = rows * d + a
        p = param[nodes]
        cat = is_cat[a]
        np.maximum.at(lo, cells[taken], p[taken])
        down = taken == cat
        np.minimum.at(hi, cells[down], p[down])
        ban = cat & ~taken
        banned[rows[ban] * width + start[a[ban]] + p[ban].astype(np.intp)] = True
        return taken

    descend(forest, roots, n, go_true)


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
            _absorb(state, forest, ts, leaf_ids[:, ts], sizes)
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
