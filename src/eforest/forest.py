"""Tree and forest structures, instance encoding, and decision-path extraction.

Trees are stored as flat parallel arrays. Node 0 is the root. Leaves are
numbered 0..L-1 in depth-first pre-order with the false branch visited first,
and an instance's encoding under a forest is the vector of those leaf
ordinals, one per tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Bounds, Categorical, Numeric, Schema
from .errors import InvalidModelError, LeafIndexError
from .rules import Rule, predicate_to_constraint, simplify

LEAF = 0
NUM = 1
CAT = 2


@dataclass(frozen=True)
class NodeTest:
    """One internal node's test: ``x[attr] >= threshold`` or ``x[attr] == category``."""

    attr: int
    threshold: float | None = None
    category: int | None = None

    def __post_init__(self):
        if (self.threshold is None) == (self.category is None):
            raise ValueError("exactly one of threshold and category must be set")

    @property
    def is_categorical(self) -> bool:
        return self.category is not None


class Tree:
    """One decision tree as flat node arrays plus derived navigation arrays."""

    __slots__ = (
        "kind",
        "attr",
        "param",
        "false_child",
        "true_child",
        "leaf_ordinal",
        "parent",
        "parent_branch",
        "depth",
        "leaf_nodes",
        "max_depth",
    )

    def __init__(
        self,
        kind: np.ndarray,
        attr: np.ndarray,
        param: np.ndarray,
        false_child: np.ndarray,
        true_child: np.ndarray,
        leaf_ordinal: np.ndarray,
        parent: np.ndarray,
        parent_branch: np.ndarray,
        depth: np.ndarray,
        leaf_nodes: np.ndarray,
    ):
        self.kind = kind
        self.attr = attr
        self.param = param
        self.false_child = false_child
        self.true_child = true_child
        self.leaf_ordinal = leaf_ordinal
        self.parent = parent
        self.parent_branch = parent_branch
        self.depth = depth
        self.leaf_nodes = leaf_nodes
        self.max_depth = int(depth.max()) if len(depth) else 0

    @property
    def n_nodes(self) -> int:
        return len(self.kind)

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_nodes)

    def node_test(self, i: int) -> NodeTest:
        if self.kind[i] == NUM:
            return NodeTest(int(self.attr[i]), threshold=float(self.param[i]))
        if self.kind[i] == CAT:
            return NodeTest(int(self.attr[i]), category=int(self.param[i]))
        raise ValueError(f"node {i} is a leaf")

    def encode_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf ordinals for every row, walking all rows level by level."""
        n = len(X)
        cur = np.zeros(n, dtype=np.int32)
        if n == 0 or self.n_nodes == 1:
            return self.leaf_ordinal[cur] if n else cur
        pending = np.nonzero(self.kind[cur] != LEAF)[0]
        while len(pending):
            nodes = cur[pending]
            v = X[pending, self.attr[nodes]]
            p = self.param[nodes]
            go = np.where(self.kind[nodes] == CAT, v == p, v >= p)
            cur[pending] = np.where(go, self.true_child[nodes], self.false_child[nodes])
            pending = pending[self.kind[cur[pending]] != LEAF]
        return self.leaf_ordinal[cur]

    def path_steps(self, leaf: int) -> list[tuple[int, bool]]:
        """(internal node index, branch taken) pairs from root to the leaf."""
        if not 0 <= leaf < self.leaf_count:
            raise LeafIndexError(
                f"leaf ordinal {leaf} out of range for a tree with {self.leaf_count} leaves"
            )
        steps = []
        node = int(self.leaf_nodes[leaf])
        while node != 0:
            par = int(self.parent[node])
            steps.append((par, bool(self.parent_branch[node])))
            node = par
        steps.reverse()
        return steps

    def leaf_depths(self) -> np.ndarray:
        return self.depth[self.leaf_nodes]

    def node_records(self) -> list[dict]:
        """Nodes in storage order using the persisted record forms."""
        records = []
        for i in range(self.n_nodes):
            k = self.kind[i]
            if k == LEAF:
                records.append({"t": "leaf", "id": int(self.leaf_ordinal[i])})
            elif k == NUM:
                records.append(
                    {
                        "t": "num",
                        "attr": int(self.attr[i]),
                        "thr": float(self.param[i]),
                        "f": int(self.false_child[i]),
                        "tr": int(self.true_child[i]),
                    }
                )
            else:
                records.append(
                    {
                        "t": "cat",
                        "attr": int(self.attr[i]),
                        "val": int(self.param[i]),
                        "f": int(self.false_child[i]),
                        "tr": int(self.true_child[i]),
                    }
                )
        return records

    @classmethod
    def from_records(cls, records: list[dict], schema: Schema) -> "Tree":
        """Build and fully validate a tree from persisted node records.

        Checks reachability, single-parent structure, attribute ranges, kind
        agreement with the schema, and that leaf ids follow depth-first
        pre-order (false branch first).
        """
        n = len(records)
        if n == 0:
            raise InvalidModelError("tree has no nodes")
        kind = np.zeros(n, dtype=np.int8)
        attr = np.full(n, -1, dtype=np.int32)
        param = np.zeros(n, dtype=np.float64)
        false_child = np.full(n, -1, dtype=np.int32)
        true_child = np.full(n, -1, dtype=np.int32)
        leaf_ordinal = np.full(n, -1, dtype=np.int32)
        for i, rec in enumerate(records):
            if not isinstance(rec, dict) or "t" not in rec:
                raise InvalidModelError(f"node {i}: not a node record")
            t = rec["t"]
            try:
                if t == "leaf":
                    kind[i] = LEAF
                    leaf_ordinal[i] = int(rec["id"])
                elif t in ("num", "cat"):
                    a = int(rec["attr"])
                    if not 0 <= a < schema.d:
                        raise InvalidModelError(f"node {i}: attribute {a} out of range")
                    akind = schema.kinds[a]
                    if t == "num":
                        if not isinstance(akind, Numeric):
                            raise InvalidModelError(
                                f"node {i}: numeric test on categorical attribute {a}"
                            )
                        kind[i] = NUM
                        thr = float(rec["thr"])
                        if not np.isfinite(thr):
                            raise InvalidModelError(f"node {i}: non-finite threshold")
                        param[i] = thr
                    else:
                        if not isinstance(akind, Categorical):
                            raise InvalidModelError(
                                f"node {i}: categorical test on numeric attribute {a}"
                            )
                        kind[i] = CAT
                        v = int(rec["val"])
                        if not 0 <= v < akind.size:
                            raise InvalidModelError(f"node {i}: category {v} out of range")
                        param[i] = float(v)
                    attr[i] = a
                    false_child[i] = int(rec["f"])
                    true_child[i] = int(rec["tr"])
                else:
                    raise InvalidModelError(f"node {i}: unknown node type {t!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidModelError(f"node {i}: malformed record: {exc}") from None

        parent = np.full(n, -1, dtype=np.int32)
        parent_branch = np.zeros(n, dtype=np.bool_)
        depth = np.zeros(n, dtype=np.int32)
        seen = np.zeros(n, dtype=np.bool_)
        leaf_nodes: list[int] = []
        next_leaf = 0
        stack = [(0, -1, False, 0)]
        while stack:
            node, par, branch, dep = stack.pop()
            if not 0 <= node < n:
                raise InvalidModelError(f"child index {node} out of range")
            if seen[node]:
                raise InvalidModelError(f"node {node} reached twice")
            seen[node] = True
            parent[node] = par
            parent_branch[node] = branch
            depth[node] = dep
            if kind[node] == LEAF:
                if leaf_ordinal[node] != next_leaf:
                    raise InvalidModelError(
                        f"leaf at node {node} has id {leaf_ordinal[node]}, "
                        f"expected {next_leaf} in pre-order"
                    )
                leaf_nodes.append(node)
                next_leaf += 1
            else:
                stack.append((int(true_child[node]), node, True, dep + 1))
                stack.append((int(false_child[node]), node, False, dep + 1))
        if not seen.all():
            raise InvalidModelError(f"{int((~seen).sum())} nodes unreachable from the root")
        return cls(
            kind,
            attr,
            param,
            false_child,
            true_child,
            leaf_ordinal,
            parent,
            parent_branch,
            depth,
            np.asarray(leaf_nodes, dtype=np.int32),
        )


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


def get_path(tree: Tree, leaf: int) -> list[tuple[NodeTest, bool]]:
    """Root-to-leaf list of (node test, branch taken)."""
    return [(tree.node_test(i), branch) for i, branch in tree.path_steps(leaf)]


def path_to_rule(path: list[tuple[NodeTest, bool]], schema: Schema) -> Rule:
    """Simplified conjunction of the constraints along one decision path."""
    return simplify(predicate_to_constraint(test, branch, schema) for test, branch in path)


def depth_stats(forest: Forest) -> tuple[int, float]:
    """(max leaf depth over all trees, mean per-tree average leaf depth)."""
    max_depth = max(t.max_depth for t in forest.trees)
    avg = float(np.mean([t.leaf_depths().mean() for t in forest.trees]))
    return max_depth, avg
