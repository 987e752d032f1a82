"""Tree and forest structures, instance encoding, and decision-path extraction.

Trees are stored as flat parallel arrays in depth-first pre-order with the
false branch visited first. Node 0 is the root. Leaves are numbered 0..L-1 in
that order, and an instance's encoding under a forest is the vector of those
leaf ordinals, one per tree.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Bounds, Categorical, Numeric, Schema
from .errors import InvalidModelError, LeafIndexError
from .rules import CAT, LEAF, NUM, Rule, predicate_to_constraint, simplify


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
        for arr in (kind, attr, param, true_child):
            arr.flags.writeable = False
        self.kind = kind
        self.attr = attr
        self.param = param
        self.true_child = true_child

    @property
    def n_nodes(self) -> int:
        return len(self.kind)

    @property
    def leaf_count(self) -> int:
        return (len(self.kind) + 1) // 2

    @property
    def max_depth(self) -> int:
        return int(self.leaf_depths().max())

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

    def node_records(self) -> list[dict]:
        """Nodes in storage order using the persisted record forms."""
        records = []
        leaf = 0
        for i in range(self.n_nodes):
            k = self.kind[i]
            if k == LEAF:
                records.append({"t": "leaf", "id": leaf})
                leaf += 1
            elif k == NUM:
                records.append(
                    {
                        "t": "num",
                        "attr": int(self.attr[i]),
                        "thr": float(self.param[i]),
                        "f": i + 1,
                        "tr": int(self.true_child[i]),
                    }
                )
            else:
                records.append(
                    {
                        "t": "cat",
                        "attr": int(self.attr[i]),
                        "val": int(self.param[i]),
                        "f": i + 1,
                        "tr": int(self.true_child[i]),
                    }
                )
        return records

    @classmethod
    def from_records(cls, records: list[dict], schema: Schema) -> "Tree":
        """Build and fully validate a tree from persisted node records.

        Checks that each record holds exactly the fields ``node_records``
        writes, with the types it writes (ints for ids, attributes, categories
        and child indexes, floats for thresholds), attribute ranges, kind agreement with the schema, and that the nodes
        are stored in depth-first pre-order (false branch first): every node
        is reachable from the root exactly once, each false child is the next
        node, and leaf ids count the leaves in storage order.
        """
        if type(records) is not list or not records:
            raise InvalidModelError("tree nodes must be a non-empty list")
        n = len(records)
        kind = np.zeros(n, dtype=np.int8)
        attr = np.full(n, -1, dtype=np.int32)
        param = np.zeros(n, dtype=np.float64)
        true_child = np.full(n, -1, dtype=np.int32)
        kinds = schema.kinds
        d = schema.d
        pending = [0]  # subtree roots still to be stored, the next one on top
        next_leaf = 0
        for i, rec in enumerate(records):
            if not pending:
                raise InvalidModelError(f"{n - i} nodes unreachable from the root")
            _check_position(pending.pop(), i, n)
            if not isinstance(rec, dict) or "t" not in rec:
                raise InvalidModelError(f"node {i}: not a node record")
            t = rec["t"]
            try:
                # the fields read below plus "t": no key is ever dropped on save
                if len(rec) != (2 if t == "leaf" else 5):
                    raise InvalidModelError(f"node {i}: unexpected fields in {rec!r}")
                if t == "leaf":
                    leaf_id = rec["id"]
                    if type(leaf_id) is not int:
                        raise InvalidModelError(f"node {i}: leaf id {leaf_id!r} is not an integer")
                    if leaf_id != next_leaf:
                        raise InvalidModelError(
                            f"leaf at node {i} has id {leaf_id}, expected {next_leaf} in pre-order"
                        )
                    next_leaf += 1
                    continue
                if t != "num" and t != "cat":
                    raise InvalidModelError(f"node {i}: unknown node type {t!r}")
                a, f, tr = rec["attr"], rec["f"], rec["tr"]
                if type(a) is not int or type(f) is not int or type(tr) is not int:
                    raise InvalidModelError(
                        f"node {i}: attr, f and tr must be integers, got {a!r}, {f!r}, {tr!r}"
                    )
                if not 0 <= a < d:
                    raise InvalidModelError(f"node {i}: attribute {a} out of range")
                akind = kinds[a]
                if t == "num":
                    if not isinstance(akind, Numeric):
                        raise InvalidModelError(
                            f"node {i}: numeric test on categorical attribute {a}"
                        )
                    thr = rec["thr"]
                    if type(thr) is not float or not math.isfinite(thr):
                        raise InvalidModelError(
                            f"node {i}: threshold {thr!r} is not a finite float"
                        )
                    kind[i] = NUM
                    param[i] = thr
                else:
                    if not isinstance(akind, Categorical):
                        raise InvalidModelError(
                            f"node {i}: categorical test on numeric attribute {a}"
                        )
                    v = rec["val"]
                    if type(v) is not int or not 0 <= v < akind.size:
                        raise InvalidModelError(f"node {i}: category {v!r} out of range")
                    kind[i] = CAT
                    param[i] = v
                attr[i] = a
                if f != i + 1:
                    raise InvalidModelError(
                        f"node {i}: false child {f}, expected {i + 1} in pre-order"
                    )
                true_child[i] = tr
                pending += (tr, i + 1)
            except (KeyError, TypeError, OverflowError) as exc:
                raise InvalidModelError(f"node {i}: malformed record: {exc}") from None
        if pending:
            _check_position(pending[-1], n, n)
        return cls(kind, attr, param, true_child)


def _check_position(node: int, i: int, n: int) -> None:
    """Refuse a child index that is not the ``i``-th node of a pre-order layout."""
    if not 0 <= node < n:
        raise InvalidModelError(f"child index {node} out of range")
    if node < i:
        raise InvalidModelError(f"node {node} reached twice")
    if node > i:
        raise InvalidModelError(f"node {i} is not stored in pre-order (next is node {node})")


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
