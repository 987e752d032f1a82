"""Tree and forest structures, instance encoding, and decision-path extraction.

Trees are stored as flat parallel arrays in depth-first pre-order with the
false branch visited first. Node 0 is the root. Leaves are numbered 0..L-1 in
that order, and an instance's encoding under a forest is the vector of those
leaf ordinals, one per tree.
"""

from __future__ import annotations

import numpy as np

from .data import Bounds, Categorical, Schema
from .errors import InvalidModelError, LeafIndexError
from .rules import CAT, LEAF, NUM, Rule, predicate_to_constraint, simplify

# storage type of each Tree slot, in slot order
_SLOT_TYPES = (np.int8, np.int32, np.float64, np.int32)


class Tree:
    """One decision tree as four flat node arrays in depth-first pre-order.

    Node 0 is the root and nodes are stored in pre-order with the false branch
    visited first, so the false child of internal node ``i`` is ``i + 1`` and
    only ``true_child`` is stored (-1 on leaves). Leaf ordinals count leaves in
    storage order. Ordinals, paths and depths are derived, never stored, and
    the arrays are read-only so a forest's cached content hash cannot go stale.
    """

    __slots__ = ("kind", "attr", "param", "true_child")

    def __init__(
        self,
        kind: np.ndarray,
        attr: np.ndarray,
        param: np.ndarray,
        true_child: np.ndarray,
    ):
        columns = (kind, attr, param, true_child)
        for name, values, dtype in zip(self.__slots__, columns, _SLOT_TYPES):
            arr = np.asarray(values, dtype=dtype)
            arr.flags.writeable = False
            setattr(self, name, arr)

    @property
    def n_nodes(self) -> int:
        return len(self.kind)

    @property
    def leaf_count(self) -> int:
        return (len(self.kind) + 1) // 2

    def descend(self, n: int, go_true) -> np.ndarray:
        """Leaf node reached by each of ``n`` rows, walking all rows level by level.

        ``go_true(rows, nodes)`` receives the indexes of the rows still pending
        and the internal node each one sits at (one node per row), and returns
        which of them take the true branch.
        """
        is_leaf = self.kind == LEAF
        cur = np.zeros(n, dtype=np.int32)
        pending = np.nonzero(~is_leaf[cur])[0]
        while len(pending):
            nodes = cur[pending]
            cur[pending] = np.where(go_true(pending, nodes), self.true_child[nodes], nodes + 1)
            pending = pending[~is_leaf[cur[pending]]]
        return cur

    def encode_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf ordinals for every row of ``X``."""

        def go_true(rows, nodes):
            v = X[rows, self.attr[nodes]]
            p = self.param[nodes]
            return np.where(self.kind[nodes] == CAT, v == p, v >= p)

        leaf_nodes = self.descend(len(X), go_true)
        # a leaf's ordinal is the number of leaves stored before it
        return (np.cumsum(self.kind == LEAF, dtype=np.int32) - 1)[leaf_nodes]

    def path_steps(self, leaf: int) -> list[tuple[int, bool]]:
        """(internal node index, branch taken) pairs from root to the leaf.

        Walks down from the root: the false subtree of node ``i`` holds
        ``(true_child[i] - i) // 2`` leaves.
        """
        below = self.leaf_count
        if not 0 <= leaf < below:
            raise LeafIndexError(
                f"leaf ordinal {leaf} out of range for a tree with {below} leaves"
            )
        leaf = int(leaf)
        true_child = self.true_child
        steps = []
        node = 0
        while below > 1:
            tr = int(true_child[node])
            in_false = (tr - node) // 2
            if leaf < in_false:
                steps.append((node, False))
                below = in_false
                node += 1
            else:
                steps.append((node, True))
                leaf -= in_false
                below -= in_false
                node = tr
        return steps

    def leaf_depths(self) -> np.ndarray:
        """Depth of every leaf in ordinal order, derived level by level."""
        depth = np.zeros(self.n_nodes, dtype=np.int32)
        internal = self.kind != LEAF
        level = np.nonzero(internal[:1])[0]
        d = 0
        while len(level):
            d += 1
            children = np.concatenate([level + 1, self.true_child[level]])
            depth[children] = d
            level = children[internal[children]]
        return depth[~internal]

    def node_records(self) -> dict[str, list]:
        """The four node arrays as JSON lists, keyed by slot name."""
        return {name: getattr(self, name).tolist() for name in self.__slots__}

    @classmethod
    def from_records(cls, nodes: dict, schema: Schema) -> "Tree":
        """Build and fully validate a tree from ``node_records`` output.

        Each column must be a list of exactly the type ``node_records`` writes
        (ints, never bools, for ``kind``, ``attr`` and ``true_child``; floats
        for ``param``) whose values fit the column's array type; the arrays
        then go through ``check_tree_arrays``.
        """
        if type(nodes) is not dict or nodes.keys() != set(cls.__slots__):
            raise InvalidModelError(f"tree nodes must be an object with keys {cls.__slots__}")
        arrays = []
        for name, dtype in zip(cls.__slots__, _SLOT_TYPES):
            values = nodes[name]
            want = float if dtype is np.float64 else int
            if type(values) is not list or set(map(type, values)) - {want}:
                raise InvalidModelError(f"tree {name} must be a list of {want.__name__}s")
            try:
                wide = np.array(values, dtype=np.int64 if want is int else np.float64)
                arr = wide.astype(dtype, copy=False)
                if want is int and not np.array_equal(arr, wide):
                    raise OverflowError
            except OverflowError:
                raise InvalidModelError(
                    f"tree {name} holds a value beyond {np.dtype(dtype)}"
                ) from None
            arrays.append(arr)
        check_tree_arrays(*arrays, schema)
        return cls(*arrays)


def _refuse(nodes: np.ndarray, bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise InvalidModelError(f"node {int(nodes[bad.argmax()])}: {what}")


def check_tree_arrays(kind, attr, param, true_child, schema: Schema) -> None:
    """Refuse node arrays that are not one valid tree over ``schema``.

    Leaves carry ``attr = -1``, ``param = 0.0`` and ``true_child = -1``. An
    internal node tests an attribute in range with the schema's kind of test:
    a finite threshold on a numeric attribute, or an integral category index
    of a categorical one. The nodes must be one binary tree in depth-first
    pre-order with the false branch first (see ``_check_preorder``).
    """
    n = len(kind)
    if n == 0 or not len(attr) == len(param) == len(true_child) == n:
        raise InvalidModelError("tree node arrays must be non-empty and of equal length")
    every = np.arange(n)
    _refuse(every, ~np.isin(kind, (LEAF, NUM, CAT)), "unknown node kind")
    leaf = kind == LEAF
    _refuse(
        every,
        leaf & ((attr != -1) | (param != 0.0) | (true_child != -1)),
        "a leaf must hold attr -1, param 0.0 and true_child -1",
    )
    inner = np.flatnonzero(~leaf)
    a = attr[inner]
    _refuse(inner, (a < 0) | (a >= schema.d), "attribute out of range")
    sizes = np.array([k.size if isinstance(k, Categorical) else 0 for k in schema.kinds])
    cat = kind[inner] == CAT
    _refuse(inner, cat != (sizes[a] > 0), "test kind differs from the attribute's kind")
    p = param[inner]
    _refuse(inner, cat & ((p != np.floor(p)) | (p < 0) | (p >= sizes[a])), "category out of range")
    _refuse(inner, ~cat & ~np.isfinite(p), "threshold is not finite")
    _check_preorder(leaf, true_child)


def _check_preorder(leaf, true_child) -> None:
    """Refuse a layout that is not one binary tree in depth-first pre-order
    with the false branch first, in a fixed number of array passes.

    Storing a node leaves ``open`` subtrees still to store: one at the start,
    one more after an internal node and one fewer after a leaf. The count must
    stay positive until the last node and reach zero there. The false
    subtree of internal node ``i`` then holds only nodes stored with more
    subtrees open than ``i``, so its true child is the next node stored with
    as many open as ``i``.
    """
    n = len(leaf)
    step = np.where(leaf, -1, 1)
    after = 1 + np.cumsum(step)
    before = after - step
    every = np.arange(n)
    _refuse(every[:-1], after[:-1] <= 0, "nodes after this leaf are unreachable")
    if after[-1] != 0:
        raise InvalidModelError(f"node {n - 1}: {after[-1]} subtrees are missing after it")
    order = np.argsort(before * n + every)  # by count, then by position
    same = before[order[1:]] == before[order[:-1]]
    next_same = np.full(n, -1)
    next_same[order[:-1][same]] = order[1:][same]
    inner = np.flatnonzero(~leaf)
    _refuse(inner, true_child[inner] != next_same[inner], "true child is not in pre-order")


class Forest:
    """An ordered tuple of trees trained on one schema, plus training metadata."""

    __slots__ = ("trees", "schema", "bounds", "kind", "seed", "config", "_hex_id")

    def __init__(
        self,
        trees,
        schema: Schema,
        bounds: Bounds,
        kind: str,
        seed: int,
        config: dict | None = None,
    ):
        if kind not in ("supervised", "unsupervised"):
            raise ValueError(f"unknown forest kind {kind!r}")
        trees = tuple(trees)
        if not trees:
            raise ValueError("a forest needs at least one tree")
        if bounds.d != schema.d:
            raise ValueError("bounds length does not match schema")
        self.trees = trees
        self.schema = schema
        self.bounds = bounds
        self.kind = kind
        self.seed = seed
        self.config = dict(config) if config else {}
        self._hex_id: str | None = None

    @property
    def T(self) -> int:
        return len(self.trees)

    @property
    def d(self) -> int:
        return self.schema.d


def get_path(tree: Tree, leaf: int) -> list[tuple[tuple[int, int, float], bool]]:
    """Root-to-leaf list of ((kind, attr, param) node test, branch taken)."""
    kind, attr, param = tree.kind, tree.attr, tree.param
    return [
        ((int(kind[i]), int(attr[i]), float(param[i])), branch)
        for i, branch in tree.path_steps(leaf)
    ]


def path_to_rule(path, schema: Schema) -> Rule:
    """Simplified conjunction of the constraints along one decision path."""
    return simplify(predicate_to_constraint(test, branch, schema) for test, branch in path)


def depth_stats(forest: Forest) -> tuple[int, float]:
    """(max leaf depth over all trees, mean per-tree average leaf depth)."""
    depths = [t.leaf_depths() for t in forest.trees]
    return max(int(d.max()) for d in depths), float(np.mean([d.mean() for d in depths]))
