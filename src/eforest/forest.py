"""Tree and forest structures, batch tree walks, and decision-path extraction.

A tree is two flat node arrays in depth-first pre-order with the false branch
visited first: ``attr`` (-1 marks a leaf) and ``param``. Node 0 is the root.
The schema says what a node tests: ``x[attr] == param`` on a categorical
attribute, ``x[attr] >= param`` on a numeric one. The leaf flags alone fix
where every true child sits, so it is derived, never stored. Leaves are
numbered 0..L-1 in storage order, and an instance's encoding under a forest is
the vector of those leaf ordinals, one per tree.

Encode and decode share one walk: a ``TreeGroup`` lays a group of trees end to
end as one set of node arrays and moves every (row, tree) pair down one level
per step, so a group of trees costs as many steps as its deepest tree.
Training routes rows and encoding routes pairs with one ``node_test``, and
lockstep groups, kernel calls and walks are all cut by one ``budget_runs``.
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


def node_test(values: np.ndarray, attr: np.ndarray, param: np.ndarray,
              is_cat: np.ndarray) -> np.ndarray:
    """Which values take the true branch of their node's test: ``value ==
    param`` where the attribute ``attr`` is categorical (``is_cat``), else
    ``value >= param``; the three arrays line up. An all-numeric schema skips
    the per-value kind lookup."""
    if not is_cat.any():
        return values >= param
    return np.where(is_cat[attr], values == param, values >= param)


def budget_runs(costs: np.ndarray, budget: int) -> list[slice]:
    """Consecutive runs of items, none empty, each costing about ``budget``:
    an item starts a new run when the cost of the items before it crosses a
    multiple of ``budget``, so a run exceeds it by at most its last item's
    cost, and one run holds every item when their total fits."""
    if not len(costs):
        return []
    ends = np.cumsum(costs)
    if ends[-1] <= budget:
        return [slice(0, len(costs))]
    run = (ends - costs) // budget
    cuts = [0, *(np.flatnonzero(run[1:] != run[:-1]) + 1), len(costs)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


class TreeGroup:
    """Trees laid end to end as one set of node arrays, walked together.

    Tree ``t``'s nodes start at ``roots[t]``, ``true_child`` holds these group
    positions (-1 on leaves), and tree ``t``'s leaves follow the
    ``leaf_base[t]`` leaves of the trees before it.
    """

    __slots__ = ("attr", "param", "true_child", "roots", "leaf_base")

    def __init__(self, trees):
        sizes = np.array([t.n_nodes for t in trees])
        self.roots = np.concatenate([[0], np.cumsum(sizes[:-1])])
        self.attr = np.concatenate([t.attr for t in trees])
        self.param = np.concatenate([t.param for t in trees])
        true_child = np.concatenate([t.true_child for t in trees]).astype(np.intp)
        true_child += np.repeat(self.roots, sizes)
        self.true_child = np.where(self.attr < 0, -1, true_child)
        self.leaf_base = np.concatenate([[0], np.cumsum((sizes + 1) // 2)[:-1]])

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def leaf_nodes(self, ordinals: np.ndarray) -> np.ndarray:
        """Group position of every leaf ordinal in an (n, n_trees) array."""
        return np.flatnonzero(self.attr < 0)[ordinals + self.leaf_base]

    def leaf_ordinals(self, nodes: np.ndarray) -> np.ndarray:
        """Ordinal within its tree of every leaf node in an (n, n_trees) array."""
        # a leaf's group-wide index is the number of leaves stored before it
        return (np.cumsum(self.attr < 0) - 1)[nodes] - self.leaf_base

    def encode(self, X: np.ndarray, schema: Schema) -> np.ndarray:
        """(n, n_trees) leaf ordinals of the rows of ``X``, whose attributes
        are ``schema``'s."""
        n, d = X.shape
        values = X.ravel()
        is_cat = schema.category_sizes > 0
        k = self.n_trees

        def go_true(pairs, nodes):
            a = self.attr[nodes]
            return node_test(values[pairs // k * d + a], a, self.param[nodes], is_cat)

        return self.leaf_ordinals(self.descend(n, go_true))

    def descend(self, n: int, go_true) -> np.ndarray:
        """Leaf node reached by every (row, tree) pair of ``n`` rows, as an
        (n, n_trees) array, moving every pair down one level per step.

        Pair ``p`` is row ``p // n_trees`` in tree ``p % n_trees``.
        ``go_true(pairs, nodes)`` receives the pairs still pending and the
        internal node each one sits at, and returns which take the true branch.
        """
        cur = np.tile(self.roots, n)
        pending = np.flatnonzero(self.attr[cur] >= 0)
        while len(pending):
            nodes = cur[pending]
            nxt = np.where(go_true(pending, nodes), self.true_child[nodes], nodes + 1)
            cur[pending] = nxt
            pending = pending[self.attr[nxt] >= 0]
        return cur.reshape(n, self.n_trees)


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
