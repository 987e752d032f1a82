"""Forest structure, batch tree walks, and decision-path extraction.

A tree is two flat node arrays in depth-first pre-order with the false branch
visited first: ``attr`` (-1 marks a leaf) and ``param``. Node 0 is the root.
The schema says what a node tests: ``x[attr] == param`` on a categorical
attribute, ``x[attr] >= param`` on a numeric one. The leaf flags alone fix
where every true child sits, so it is derived, never stored. Leaves are
numbered 0..L-1 in storage order, and an instance's encoding under a forest is
the vector of those leaf ordinals, one per tree.

A ``Forest`` lays its trees end to end as one set of node arrays, deriving
true children for all of them at once (walks derive leaf maps); a ``Tree`` views one.
Encode and decode share one walk over the trees whose roots it is given: it
moves every (row, tree) pair down one level per step, so a run of trees costs
as many steps as its deepest tree. Training routes rows and encoding routes
pairs with one ``node_test``, and lockstep groups, kernel calls and walks are
all cut by one ``budget_runs``.
"""

from __future__ import annotations

import numbers

import numpy as np

from .data import Bounds, Schema, integer_array
from .errors import InvalidModelError, ModelMismatchError
from .rules import Rule, predicate_to_constraint, simplify

MODES = ("supervised", "unsupervised")  # how a forest was trained: its kind


class Tree:
    """Tree ``t`` of a forest, as a view: ``attr`` and ``param`` are slices of
    the forest's arrays, no copies. Leaf ordinals count the tree's leaves in
    storage order; ordinals, paths (``get_path``) and depths are derived,
    never stored.
    """

    __slots__ = ("attr", "param", "_true_child", "_root")

    def __init__(self, forest: "Forest", t: int):
        self._root = root = int(forest.roots[t])
        end = forest.roots[t + 1]
        self.attr, self.param = forest.attr[root:end], forest.param[root:end]
        self._true_child = forest.true_child[root:end]

    @property
    def n_nodes(self) -> int:
        return len(self.attr)

    @property
    def leaf_count(self) -> int:
        return (len(self.attr) + 1) // 2

    def node_records(self) -> dict[str, list]:
        """The two stored node arrays as JSON lists."""
        return {"attr": self.attr.tolist(), "param": self.param.tolist()}

    @staticmethod
    def from_records(nodes: dict, schema: Schema) -> tuple[np.ndarray, np.ndarray]:
        """The ``(attr, param)`` arrays of ``node_records`` output, checked as
        JSON only: ``attr`` must be a list of ints (never bools) in ``[-1, d)``
        and ``param`` a list of floats. ``Forest`` checks their lengths and
        what they mean."""
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
        return np.array(attr, dtype=np.int32), np.array(nodes["param"])


def _refuse_in(roots: np.ndarray, bad: np.ndarray, what) -> None:
    """Refuse trees laid end to end from ``roots`` if any node is ``bad``,
    naming the first such node, its tree and ``what(node)`` is wrong there."""
    if bad.any():
        i = int(bad.argmax())
        t = int(np.searchsorted(roots, i, side="right")) - 1
        raise InvalidModelError(f"tree {t}: node {i - roots[t]}: {what(i)}")


def _true_children(leaf: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """True child of every node (-1 on leaves) of trees laid end to end, tree
    ``t`` from ``roots[t]``, in a fixed number of array passes; refuses leaf
    flags that are not one tree in pre-order with the false branch first.

    Storing a node leaves ``open`` subtrees of its tree still to store: one at
    its root, one more after an internal node and one fewer after a leaf. The
    count must stay positive until the tree's last node and reach zero there.
    The false subtree of internal node ``i`` then holds only nodes stored with
    more subtrees open than ``i``, so its true child is the next node stored
    with as many open as ``i``, in the same tree. A stable sort by that count
    (at most a tree's depth plus one, so a narrow integer sorted by radix)
    puts each internal node right before it.
    """
    step = np.where(leaf, -1, 1)
    run = np.cumsum(step)
    first, last = roots[:-1], roots[1:] - 1
    after = 1 + run - np.repeat(run[first] - step[first], np.diff(roots))
    bad = after <= 0
    bad[last] = after[last] != 0  # and positive, unless an earlier node was bad
    _refuse_in(roots, bad, lambda i: f"{after[i]} subtrees are missing after it" if after[i] > 0
               else "nodes after this leaf are unreachable")
    key = after - step
    key = key.astype(np.min_scalar_type(key.max()))
    order = np.argsort(key, kind="stable")  # by count, then by position
    same = key[order[1:]] == key[order[:-1]]
    true_child = np.full(len(leaf), -1, dtype=np.int32)
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


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges [starts[i], starts[i] + lengths[i])."""
    ends = lengths.cumsum()
    if not len(ends):
        return ends
    out = (starts - ends + lengths).repeat(lengths)
    out += np.arange(ends[-1])
    return out


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


def descend(forest: "Forest", roots: np.ndarray, n: int, go_true) -> np.ndarray:
    """Leaf node reached by every (row, tree) pair of ``n`` rows in the trees
    rooted at ``roots``, as an (n, len(roots)) array of forest positions,
    moving every pair down one level per step. Pair ``p`` is row
    ``p // len(roots)`` in tree ``p % len(roots)``. ``go_true(pairs, nodes)``
    gets the pending pairs and the internal node each one sits at, and
    returns which take the true branch.
    """
    cur = np.tile(roots, n)
    pending = np.flatnonzero(forest.attr[cur] >= 0)
    while len(pending):
        nodes = cur[pending]
        nxt = np.where(go_true(pending, nodes), forest.true_child[nodes], nodes + 1)
        cur[pending] = nxt
        pending = pending[forest.attr[nxt] >= 0]
    return cur.reshape(n, len(roots))


def encode(forest: "Forest", roots: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(n, len(roots)) leaf ordinals of the rows of ``X`` in the trees rooted
    at ``roots``; the attributes of ``X`` are the forest schema's."""
    n, d = X.shape
    values = X.ravel()
    is_cat = forest.schema.category_sizes > 0
    attr, param, k = forest.attr, forest.param, len(roots)

    def go_true(pairs, nodes):
        a = attr[nodes]
        return node_test(values[pairs // k * d + a], a, param[nodes], is_cat)

    leaves = descend(forest, roots, n, go_true)
    # a leaf's ordinal is the number of leaves stored between its root and it,
    # counted over the nodes from the first root to the last root or leaf
    first, last = roots.min(), leaves.max(initial=roots.max())
    before = np.concatenate([[0], np.cumsum(forest.attr[first:last] < 0, dtype=np.int32)])
    return before[leaves - first] - before[roots - first]


class Forest:
    """Trees laid end to end as one set of read-only node arrays (so the
    cached content hash cannot go stale), plus schema, bounds and metadata.

    ``trees`` takes one ``(attr, param)`` pair per tree, copied once into
    ``attr`` and ``param``; tree ``t`` sits from ``roots[t]`` to
    ``roots[t + 1]`` and is viewed as ``trees[t]``. Construction, the one check
    of a forest however it was made, refuses a tree whose arrays are empty, of
    unequal lengths or hold a param that is not a real number (naming the first
    such tree), nodes the schema cannot run, a bad layout or leaf param, a
    non-integer seed and a non-dict config; it derives ``true_child`` (-1 on
    leaves), kept as every walk step reads it and ``get_path`` would pay its
    stable sort per query. Walks derive the leaf maps they read from ``attr``.
    """

    __slots__ = ("attr", "param", "roots", "true_child", "trees",
                 "schema", "bounds", "kind", "seed", "config", "_hex_id")

    def __init__(
        self,
        trees,
        schema: Schema,
        bounds: Bounds,
        kind: str,
        seed: int,
        config: dict | None = None,
    ):
        if kind not in MODES:
            raise ValueError(f"unknown forest kind {kind!r}")
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ValueError("seed must be an integer")
        if not isinstance(config, dict | None):
            raise ValueError("config must be an object")
        trees = list(trees)
        if not trees:
            raise ValueError("a forest needs at least one tree")
        if bounds.d != schema.d:
            raise ValueError("bounds length does not match schema")
        for t, (attr, param) in enumerate(trees):
            if not len(attr) or len(param) != len(attr):
                raise InvalidModelError(
                    f"tree {t}: tree node arrays must be non-empty and of equal length")
            dtype = np.asarray(param).dtype
            if dtype.kind not in "iuf":
                raise InvalidModelError(f"tree {t}: params must be real numbers, not {dtype}")
        sizes = [len(attr) for attr, _ in trees]
        self.roots = roots = np.concatenate([[0], np.cumsum(sizes)])
        attr = np.concatenate([attr for attr, _ in trees])
        self.attr = attr = integer_array(attr, np.int32, InvalidModelError, "tree attributes")
        self.param = param = np.concatenate([param for _, param in trees], dtype=np.float64)
        _refuse_in(roots, (attr < -1) | (attr >= schema.d), lambda i: "attribute out of range")
        leaf = attr < 0
        n_cat = np.append(schema.category_sizes, 0)[attr]  # categories tested, 0 on leaves
        bad_category = (n_cat > 0) & ((param != np.floor(param)) | (param < 0) | (param >= n_cat))
        _refuse_in(roots, bad_category, lambda i: "category out of range")
        numeric = (n_cat == 0) & ~leaf
        _refuse_in(roots, numeric & ~np.isfinite(param), lambda i: "threshold is not finite")
        self.true_child = _true_children(leaf, roots)
        _refuse_in(roots, leaf & (param != 0.0), lambda i: "a leaf must hold param 0.0")
        for name in ("attr", "param", "roots", "true_child"):
            getattr(self, name).flags.writeable = False
        self.trees = tuple(Tree(self, t) for t in range(len(trees)))
        self.schema = schema
        self.bounds = bounds
        self.kind = kind
        self.seed = int(seed)
        self.config = dict(config or {})
        self._hex_id: str | None = None

    @property
    def T(self) -> int:
        return len(self.trees)

    @property
    def d(self) -> int:
        return self.schema.d

    @property
    def leaf_counts(self) -> np.ndarray:
        """How many leaves each tree holds."""
        return (np.diff(self.roots) + 1) // 2


def get_path(tree: Tree, leaf: int) -> list[tuple[tuple[int, float], bool]]:
    """Root-to-leaf list of ((attr, param) node test, branch taken), the test
    read as a Python ``int`` and ``float``. Walks down from the root: the false
    subtree of node ``i`` holds ``(true_child[i] - i) // 2`` leaves, where
    ``true_child`` is the forest's, less the tree's offset."""
    below = tree.leaf_count
    if not 0 <= leaf < below:
        raise ModelMismatchError(
            f"leaf ordinal {leaf} out of range for a tree with {below} leaves"
        )
    leaf = int(leaf)
    attr, param, true_child, root = tree.attr, tree.param, tree._true_child, tree._root
    path = []
    node = 0
    while below > 1:
        tr = true_child.item(node) - root
        in_false = (tr - node) // 2
        branch = leaf >= in_false
        path.append(((attr.item(node), param.item(node)), branch))
        if branch:
            leaf -= in_false
            below -= in_false
            node = tr
        else:
            below = in_false
            node += 1
    return path


def path_to_rule(path, schema: Schema) -> Rule:
    """Simplified conjunction of the constraints along one decision path."""
    return simplify(predicate_to_constraint(test, branch, schema) for test, branch in path)


def depth_stats(forest: Forest) -> tuple[int, float]:
    """(max leaf depth over all trees, mean per-tree average leaf depth),
    walking the levels of every tree of the forest at once."""
    attr, true_child, roots = forest.attr, forest.true_child, forest.roots
    depth = np.zeros(len(attr), dtype=np.int64)
    internal = attr >= 0
    level = roots[:-1][internal[roots[:-1]]]
    d = 0
    while len(level):
        d += 1
        children = np.concatenate([level + 1, true_child[level]])
        depth[children] = d
        level = children[internal[children]]
    leaf_depth = depth[~internal]
    counts = forest.leaf_counts
    means = np.add.reduceat(leaf_depth, np.cumsum(counts) - counts) / counts
    return int(leaf_depth.max()), float(np.mean(means))
