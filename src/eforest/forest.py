"""Tree and forest structures, instance encoding, and decision-path extraction.

A tree is two flat node arrays in depth-first pre-order with the false branch
visited first: ``attr`` (-1 marks a leaf) and ``param``. Node 0 is the root.
The schema says what a node tests: ``x[attr] == param`` on a categorical
attribute, ``x[attr] >= param`` on a numeric one. The leaf flags alone fix
where every true child sits, so it is derived, never stored. Leaves are
numbered 0..L-1 in storage order, and an instance's encoding under a forest is
the vector of those leaf ordinals, one per tree.
"""

from __future__ import annotations

import numpy as np

from .data import Bounds, Schema
from .errors import InvalidModelError, LeafIndexError
from .rules import Rule, predicate_to_constraint, simplify


class Tree:
    """One decision tree as two flat node arrays in depth-first pre-order.

    ``attr`` (int32, -1 on leaves) and ``param`` (float64, 0.0 on leaves) are
    the tree. Since the false branch is stored first, the false child of
    internal node ``i`` is ``i + 1``; ``true_child`` (-1 on leaves) is derived
    from the leaf flags once, at construction, which also refuses a layout
    that is not one tree. Leaf ordinals count leaves in storage order.
    Ordinals, paths and depths are derived, never stored, and the arrays are
    read-only so a forest's cached content hash cannot go stale.
    """

    __slots__ = ("attr", "param", "true_child")

    def __init__(self, attr, param):
        attr = np.asarray(attr, dtype=np.int32)
        param = np.asarray(param, dtype=np.float64)
        if len(attr) == 0 or len(param) != len(attr):
            raise InvalidModelError("tree node arrays must be non-empty and of equal length")
        for name, arr in zip(self.__slots__, (attr, param, _true_children(attr < 0))):
            arr.flags.writeable = False
            setattr(self, name, arr)

    @property
    def n_nodes(self) -> int:
        return len(self.attr)

    @property
    def leaf_count(self) -> int:
        return (len(self.attr) + 1) // 2

    def descend(self, n: int, go_true) -> np.ndarray:
        """Leaf node reached by each of ``n`` rows, walking all rows level by level.

        ``go_true(rows, nodes)`` receives the indexes of the rows still pending
        and the internal node each one sits at (one node per row), and returns
        which of them take the true branch.
        """
        is_leaf = self.attr < 0
        cur = np.zeros(n, dtype=np.int32)
        pending = np.nonzero(~is_leaf[cur])[0]
        while len(pending):
            nodes = cur[pending]
            cur[pending] = np.where(go_true(pending, nodes), self.true_child[nodes], nodes + 1)
            pending = pending[~is_leaf[cur[pending]]]
        return cur

    def encode_batch(self, X: np.ndarray, schema: Schema) -> np.ndarray:
        """Leaf ordinals for every row of ``X``, whose attributes are ``schema``'s."""
        is_cat = schema.category_sizes > 0

        def go_true(rows, nodes):
            a = self.attr[nodes]
            v = X[rows, a]
            p = self.param[nodes]
            return np.where(is_cat[a], v == p, v >= p)

        leaf_nodes = self.descend(len(X), go_true)
        # a leaf's ordinal is the number of leaves stored before it
        return (np.cumsum(self.attr < 0, dtype=np.int32) - 1)[leaf_nodes]

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
        internal = self.attr >= 0
        level = np.nonzero(internal[:1])[0]
        d = 0
        while len(level):
            d += 1
            children = np.concatenate([level + 1, self.true_child[level]])
            depth[children] = d
            level = children[internal[children]]
        return depth[~internal]

    def node_records(self) -> dict[str, list]:
        """The two stored node arrays as JSON lists."""
        return {"attr": self.attr.tolist(), "param": self.param.tolist()}

    @classmethod
    def from_records(cls, nodes: dict, schema: Schema) -> "Tree":
        """Build and fully validate a tree from ``node_records`` output.

        ``attr`` must be a list of ints (never bools) in ``[-1, d)`` and
        ``param`` a list of floats. Leaves hold ``param = 0.0``; an internal
        node holds an integral category index in range when its attribute is
        categorical, else a finite threshold. Construction refuses a layout
        that is not one tree.
        """
        if type(nodes) is not dict or nodes.keys() != {"attr", "param"}:
            raise InvalidModelError("tree nodes must be an object with keys ('attr', 'param')")
        for name, want in (("attr", int), ("param", float)):
            values = nodes[name]
            if type(values) is not list or set(map(type, values)) - {want}:
                raise InvalidModelError(f"tree {name} must be a list of {want.__name__}s")
        attr = nodes["attr"]
        # checked on the Python ints, so the int32 conversion cannot wrap
        if attr and not (-1 <= min(attr) and max(attr) < schema.d):
            i = next(i for i, a in enumerate(attr) if not -1 <= a < schema.d)
            raise InvalidModelError(f"node {i}: attribute out of range")
        tree = cls(attr, nodes["param"])
        leaf = tree.attr < 0
        _refuse(np.arange(tree.n_nodes), leaf & (tree.param != 0.0), "a leaf must hold param 0.0")
        inner = np.flatnonzero(~leaf)
        sizes, p = schema.category_sizes[tree.attr[inner]], tree.param[inner]
        cat = sizes > 0
        bad_category = cat & ((p != np.floor(p)) | (p < 0) | (p >= sizes))
        _refuse(inner, bad_category, "category out of range")
        _refuse(inner, ~cat & ~np.isfinite(p), "threshold is not finite")
        return tree


def _refuse(nodes: np.ndarray, bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise InvalidModelError(f"node {int(nodes[bad.argmax()])}: {what}")


def _true_children(leaf: np.ndarray) -> np.ndarray:
    """True child of every node (-1 on leaves), derived from the leaf flags in
    a fixed number of array passes; refuses flags that are not one binary
    tree in depth-first pre-order with the false branch first.

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
    _refuse(np.arange(n - 1), after[:-1] <= 0, "nodes after this leaf are unreachable")
    if after[-1] != 0:
        raise InvalidModelError(f"node {n - 1}: {after[-1]} subtrees are missing after it")
    order = np.argsort(before, kind="stable")  # by count, then by position
    same = before[order[1:]] == before[order[:-1]]
    true_child = np.full(n, -1, dtype=np.int32)
    true_child[order[:-1][same]] = order[1:][same]
    true_child[leaf] = -1
    return true_child


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


def get_path(tree: Tree, leaf: int) -> list[tuple[tuple[int, float], bool]]:
    """Root-to-leaf list of ((attr, param) node test, branch taken)."""
    attr, param = tree.attr, tree.param
    return [((int(attr[i]), float(param[i])), branch) for i, branch in tree.path_steps(leaf)]


def path_to_rule(path, schema: Schema) -> Rule:
    """Simplified conjunction of the constraints along one decision path."""
    return simplify(predicate_to_constraint(test, branch, schema) for test, branch in path)


def depth_stats(forest: Forest) -> tuple[int, float]:
    """(max leaf depth over all trees, mean per-tree average leaf depth)."""
    depths = [t.leaf_depths() for t in forest.trees]
    return max(int(d.max()) for d in depths), float(np.mean([d.mean() for d in depths]))
