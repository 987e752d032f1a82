"""Tree and forest structure: record validation, encoding walks on both code
paths, path extraction, and depth statistics."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eforest import codec
from eforest import forest as forest_mod
from eforest.codec import EncodingMatrix, TreeMask, decode_batch, decode_masks
from eforest.data import Bounds, Categorical, Numeric, Schema, compute_bounds
from eforest.errors import EmptyMCRError, InvalidModelError, ModelMismatchError
from eforest.forest import (
    Forest,
    Tree,
    budget_runs,
    depth_stats,
    get_path,
    path_to_rule,
)
from eforest.persistence import forest_hex_id
from eforest.rules import Interval, contains
from eforest.training import TrainConfig, train_forest

from synthdata import (
    decode,
    forest_of,
    leaf_depths,
    random_mixed,
    tree_from_path,
    true_children,
    walk_codes,
    walk_leaf,
)

NUM2 = Schema.numeric(["a", "b"])
MIXED = Schema(
    ("a", "color"),
    (Numeric(), Categorical(("red", "green", "blue"))),
)


def view(pair, schema=NUM2) -> Tree:
    """The view of an ``(attr, param)`` pair as the one tree of a forest."""
    return forest_of([pair], schema).trees[0]


def pair(tree: Tree) -> tuple:
    return tree.attr, tree.param


def make_tree(attr, param, schema=NUM2) -> Tree:
    """A tree from its two node columns, through the model-file record."""
    return view(Tree.from_records({"attr": attr, "param": param}, schema), schema)


def small_tree() -> Tree:
    # a >= 5 ? (b >= 3 ? leaf2 : leaf1) : leaf0
    return make_tree([0, -1, 1, -1, -1], [5.0, 0.0, 3.0, 0.0, 0.0])


def complete_depth2_tree() -> Tree:
    return make_tree([0, 1, -1, -1, 1, -1, -1], [5.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0])


def leaf_only_tree(schema=NUM2) -> Tree:
    return make_tree([-1], [0.0], schema)


def encode(tree: Tree, X, schema) -> np.ndarray:
    """Leaf ordinals of the rows of ``X`` under one tree, by the batch walk."""
    forest = forest_of([pair(tree)], schema)
    return forest_mod.encode(forest, forest.roots[:1], X)[:, 0]


def stump(attr=0, param=0.0, schema=NUM2) -> Tree:
    """One test over two leaves; each argument can break the root."""
    return make_tree([attr, -1, -1], [param, 0.0, 0.0], schema)


class TestNodeRouting:
    def test_numeric_passes_at_threshold(self):
        tree, taken = tree_from_path([((0, 2.0), True)], NUM2)
        X = np.array([[2.0, 0.0], [1.9999, 0.0]])
        assert encode(view(tree), X, NUM2).tolist() == [taken, 1 - taken]

    def test_categorical_passes_on_equality(self):
        tree, taken = tree_from_path([((1, 1), True)], MIXED)
        X = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 2.0]])
        assert encode(view(tree, MIXED), X, MIXED).tolist() == [taken, 1 - taken, 1 - taken]


class TestBudgetRuns:
    @given(st.lists(st.integers(0, 50), max_size=40), st.integers(1, 120))
    @settings(max_examples=300, deadline=None)
    def test_cuts_items_into_runs_under_a_budget(self, costs, budget):
        costs = np.array(costs, dtype=np.int64)
        runs = budget_runs(costs, budget)
        order = np.arange(len(costs))
        # every item once, in order, and no run empty
        assert [i for r in runs for i in order[r].tolist()] == order.tolist()
        assert all(len(order[r]) > 0 for r in runs)
        if costs.sum() <= budget:
            assert len(runs) == min(1, len(costs))
        else:
            # a run starts where the cost before an item crosses a multiple of the budget
            before = (np.cumsum(costs) - costs) // budget
            starts = [i for i in order if i == 0 or before[i] != before[i - 1]]
            assert [r.start for r in runs] == starts
        for r in runs:
            assert costs[r].sum() <= budget + costs[r][-1]


class TestEncode:
    def test_routing(self):
        tree = small_tree()
        X = np.array([[4.0, 9.0], [5.0, 2.0], [6.0, 3.0]])
        assert encode(tree, X, NUM2).tolist() == [0, 1, 2]
        assert [walk_leaf(tree, x, NUM2) for x in X] == [0, 1, 2]

    def test_single_leafy(self):
        tree = leaf_only_tree()
        assert walk_leaf(tree, np.array([1.0, 2.0]), NUM2) == 0
        assert tree.leaf_count == 1 and leaf_depths(tree).max() == 0

    def test_batch_matches_scalar_on_trained_trees(self):
        ds = random_mixed(5)
        for mode in ("supervised", "unsupervised"):
            forest = train_forest(ds, TrainConfig(mode=mode, n_trees=6, seed=3))
            for tree in forest.trees:
                batch = encode(tree, ds.X, ds.schema)
                scalar = [walk_leaf(tree, x, ds.schema) for x in ds.X]
                assert batch.tolist() == scalar

    def test_batch_empty_input(self):
        got = encode(small_tree(), np.empty((0, 2)), NUM2)
        assert got.shape == (0,)

    def test_batch_single_leaf(self):
        got = encode(leaf_only_tree(), np.zeros((4, 2)), NUM2)
        assert got.tolist() == [0, 0, 0, 0]

    def test_categorical_routing(self):
        tree = stump(1, 2.0, schema=MIXED)
        X = np.array([[0.0, 2.0], [0.0, 1.0], [0.0, 0.0]])
        assert encode(tree, X, MIXED).tolist() == [1, 0, 0]
        assert [walk_leaf(tree, x, MIXED) for x in X] == [1, 0, 0]


def assert_stump_refused(attr, param, schema, what):
    """A stump testing ``(attr, param)`` is refused as the second tree of a
    forest, whether it is built by hand or read from its record."""
    nodes = {"attr": [attr, -1, -1], "param": [param, 0.0, 0.0]}
    with pytest.raises(InvalidModelError, match=f"^tree 1: node 0: {what}$"):
        forest_of([([-1], [0.0]), (nodes["attr"], nodes["param"])], schema)
    with pytest.raises(InvalidModelError, match=f"node 0: {what}$"):
        make_tree(nodes["attr"], nodes["param"], schema)


class TestFromRecordsValidation:
    def test_empty(self):
        with pytest.raises(InvalidModelError):
            make_tree([], [])

    def test_unknown_type(self):
        # -1 marks a leaf and 0..d-1 an attribute; no other node code exists
        with pytest.raises(InvalidModelError, match="node 0: attribute out of range"):
            make_tree([-7], [0.0])

    def test_missing_keys(self):
        record = small_tree().node_records()
        del record["param"]
        with pytest.raises(InvalidModelError):
            Tree.from_records(record, NUM2)

    @pytest.mark.parametrize("nodes", [[], [{"t": "leaf", "id": 0}], None, 5])
    def test_not_a_column_record(self, nodes):
        with pytest.raises(InvalidModelError):
            Tree.from_records(nodes, NUM2)

    def test_columns_of_unequal_length(self):
        with pytest.raises(InvalidModelError):
            make_tree([0, -1, -1], [0.0, 0.0])

    @pytest.mark.parametrize(
        "column, value",
        [
            ("attr", 0.0),
            ("attr", "0"),
            ("attr", False),
            ("param", 0),
            ("param", None),
        ],
    )
    def test_column_types_are_strict(self, column, value):
        # each value equals the stored one, but is not the JSON type save writes
        record = stump().node_records()
        record[column][0] = value
        with pytest.raises(InvalidModelError):
            Tree.from_records(record, NUM2)

    @pytest.mark.parametrize("attr, param", [(0, 0.0), (-1, 1.0)], ids=["attr", "param"])
    def test_leaf_holds_no_test(self, attr, param):
        # a lone node holding an attribute is a test with no children
        with pytest.raises(InvalidModelError):
            make_tree([attr], [param])

    def test_attr_out_of_range(self):
        for attr in (2, -2):
            assert_stump_refused(attr, 0.0, NUM2, "attribute out of range")

    def test_category_out_of_range(self):
        for category in (3.0, 7.0, -1.0, 0.5, math.nan):
            assert_stump_refused(1, category, MIXED, "category out of range")

    def test_non_finite_threshold(self):
        for threshold in (math.inf, -math.inf, math.nan):
            assert_stump_refused(0, threshold, NUM2, "threshold is not finite")

    def test_unreachable_node(self):
        with pytest.raises(InvalidModelError):
            make_tree([0, -1, -1, -1], [0.0] * 4)

    def test_nodes_after_a_leaf_root(self):
        with pytest.raises(InvalidModelError, match="node 0: nodes after this leaf"):
            make_tree([-1, 0, -1], [0.0] * 3)

    def test_missing_true_subtree(self):
        with pytest.raises(InvalidModelError, match="node 1: 1 subtrees are missing"):
            make_tree([0, -1], [0.0] * 2)

    @pytest.mark.parametrize(
        "value", [2**40, 2**70], ids=["attr-beyond-int32", "attr-beyond-int64"]
    )
    def test_unrepresentable_numbers(self, value):
        # attributes are range-checked on the JSON ints, before the int32 conversion
        record = stump().node_records()
        record["attr"][0] = value
        with pytest.raises(InvalidModelError, match="attribute out of range"):
            Tree.from_records(record, NUM2)

    def test_node_tests_are_left_to_the_forest(self):
        # the JSON layer takes a category the schema lacks; the forest refuses it
        attr, param = Tree.from_records({"attr": [1, -1, -1], "param": [7.0, 0.0, 0.0]}, MIXED)
        assert (attr.tolist(), param.tolist()) == ([1, -1, -1], [7.0, 0.0, 0.0])
        with pytest.raises(InvalidModelError, match="^tree 0: node 0: category out of range$"):
            forest_of([(attr, param)], MIXED)

    def test_round_trip_through_records(self):
        tree = complete_depth2_tree()
        record = tree.node_records()
        assert list(record) == ["attr", "param"]
        again = Tree.from_records(record, NUM2)
        assert view(again).node_records() == record
        for mine, stored in zip(again, pair(tree)):
            assert mine.dtype == stored.dtype
            assert mine.tolist() == stored.tolist()

    def test_true_children_are_derived(self):
        # forest positions: the trees start at nodes 0, 5 and 12
        forest = forest_of([pair(small_tree()), pair(complete_depth2_tree()),
                            pair(leaf_only_tree())], NUM2)
        assert forest.roots.tolist() == [0, 5, 12, 13]
        assert forest.true_child.tolist() == [2, -1, 4, -1, -1,
                                              9, 8, -1, -1, 11, -1, -1,
                                              -1]

    def test_arrays_are_read_only(self):
        trained = train_forest(
            random_mixed(5), TrainConfig(mode="unsupervised", n_trees=2, seed=0)
        )
        for forest in (forest_of([pair(small_tree())], NUM2), trained):
            for name in ("attr", "param", "roots", "true_child"):
                with pytest.raises(ValueError):
                    getattr(forest, name)[0] = 1
            with pytest.raises(ValueError):
                forest.trees[-1].param[0] = 1.0


def walk_preorder(leaf):
    """Reference layout walk: the true child of every node (-1 on leaves), or
    None when the leaf flags are not one tree in pre-order, false branch first.

    Walks the subtree intervals ``[node, end)`` level by level from ``[0, n)``.
    A leaf needs ``end == node + 1``. The false subtree of an internal node
    ends where a scan from ``node + 1`` has first seen one more leaf than
    internal nodes; the true subtree starts there and must not be empty.
    """
    true_child = np.full(len(leaf), -1)
    level = [(0, len(leaf))]
    while level:
        below = []
        for node, end in level:
            if leaf[node]:
                if end != node + 1:
                    return None
                continue
            surplus, j = 0, node + 1
            while j < end and surplus < 1:
                surplus += 1 if leaf[j] else -1
                j += 1
            if surplus < 1 or j == end:
                return None
            true_child[node] = j
            below += [(node + 1, j), (j, end)]
        level = below
    return true_child


@st.composite
def preorder_layouts(draw):
    """(leaf flags, true children) of a random tree in pre-order, false branch
    first, possibly with one flag flipped or two flags swapped; and whether
    the flags are untouched."""
    leaf, true_child = [], []

    def grow(internal):
        i = len(leaf)
        leaf.append(internal == 0)
        true_child.append(-1)
        if internal:
            in_false = draw(st.integers(0, internal - 1))
            grow(in_false)
            true_child[i] = len(leaf)
            grow(internal - 1 - in_false)

    grow(draw(st.integers(0, 12)))
    n = len(leaf)
    change = draw(st.sampled_from(["none", "flip", "swap"]))
    at = draw(st.integers(0, n - 1))
    if change == "flip":
        leaf[at] = not leaf[at]
    elif change == "swap":
        other = draw(st.integers(0, n - 1))
        leaf[at], leaf[other] = leaf[other], leaf[at]
    return np.array(leaf), np.array(true_child), change == "none"


def layout_pair(leaf):
    """Node arrays with the given leaf flags: every test is ``x[0] >= 0``."""
    return np.where(leaf, -1, 0), np.zeros(len(leaf))


class TestPreorderCheck:
    @given(preorder_layouts())
    @settings(max_examples=400, deadline=None)
    def test_refuses_what_the_level_walk_refuses(self, layout):
        leaf, true_child, untouched = layout
        expect = walk_preorder(leaf)
        try:
            derived = forest_of([layout_pair(leaf)], NUM2).true_child.tolist()
        except InvalidModelError:
            derived = None
        assert derived == (None if expect is None else expect.tolist())
        if untouched:
            assert derived == true_child.tolist() == true_children(layout_pair(leaf)[0]).tolist()

    @given(st.lists(preorder_layouts(), min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_forest_refuses_its_first_tree_the_level_walk_refuses(self, layouts):
        # one derivation over all the trees: no true child crosses into another tree
        expect = [walk_preorder(leaf) for leaf, _, _ in layouts]
        pairs = [layout_pair(leaf) for leaf, _, _ in layouts]
        broken = [t for t, children in enumerate(expect) if children is None]
        if broken:
            with pytest.raises(InvalidModelError, match=f"^tree {broken[0]}: node "):
                forest_of(pairs, NUM2)
            return
        forest = forest_of(pairs, NUM2)
        roots = forest.roots[:-1]
        assert forest.true_child.tolist() == np.concatenate(
            [np.where(c < 0, -1, c + r) for c, r in zip(expect, roots)]).tolist()
        # the leaf counts read off the tree sizes, against a count of the flags
        assert forest.leaf_counts.tolist() == [int(np.sum(leaf)) for leaf, _, _ in layouts]
        assert forest.leaf_counts.tolist() == [t.leaf_count for t in forest.trees]


@st.composite
def random_forests(draw):
    """A forest of valid random trees over ``NUM2`` with random tests, a
    one-leaf tree among them; an ascending set of its trees, contiguous or
    not; rows to encode; a leaf ordinal per row and tree; and how many trees
    one walk holds."""
    layouts = draw(st.lists(preorder_layouts().filter(lambda layout: layout[2]),
                            min_size=0, max_size=5))
    leaves = [leaf for leaf, _, _ in layouts]
    leaves.insert(draw(st.integers(0, len(leaves))), np.array([True]))
    pairs = []
    for leaf in leaves:
        tests = st.lists(st.tuples(st.integers(0, 1), st.sampled_from([-0.5, 0.0, 0.5])),
                         min_size=len(leaf), max_size=len(leaf))
        attr, param = np.array(draw(tests)).T
        pairs.append((np.where(leaf, -1, attr).astype(np.int32), np.where(leaf, 0.0, param)))
    forest = forest_of(pairs, NUM2)
    ts = sorted(draw(st.sets(st.integers(0, forest.T - 1), min_size=1)))
    n = draw(st.integers(1, 5))
    values = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    X = np.array(draw(st.lists(st.tuples(values, values), min_size=n, max_size=n)))
    ids = np.array([[draw(st.integers(0, count - 1)) for count in forest.leaf_counts]
                    for _ in range(n)], dtype=np.int32)
    return forest, ts, X, ids, draw(st.integers(1, 3))


def leaf_nodes(forest, t) -> list[int]:
    """The forest positions of tree ``t``'s leaves, by a scan of its nodes."""
    return [i for i in range(forest.roots[t], forest.roots[t + 1]) if forest.attr[i] < 0]


def reached_node(forest, t, x) -> int:
    """The forest position of the leaf ``x`` reaches in tree ``t``, by a plain walk."""
    tree = forest.trees[t]
    true_child = true_children(tree.attr)
    i = 0
    while tree.attr[i] >= 0:
        i = true_child[i] if x[tree.attr[i]] >= tree.param[i] else i + 1
    return int(forest.roots[t]) + i


class TestLeafMaps:
    """The leaf maps each walk derives, against a count of the leaf flags."""

    @given(random_forests())
    @settings(max_examples=200, deadline=None)
    def test_encode_ordinals_count_the_leaves_before(self, problem):
        forest, ts, X, _, _ = problem
        want = [[sum(forest.attr[forest.roots[t]:reached_node(forest, t, x)] < 0) for t in ts]
                for x in X]
        assert forest_mod.encode(forest, forest.roots[ts], X).tolist() == want

    @given(random_forests())
    @settings(max_examples=200, deadline=None)
    def test_decode_walks_to_the_leaf_each_ordinal_counts(self, problem):
        forest, ts, _, ids, per_walk = problem
        reached = []

        def recording(forest, roots, n, go_true):
            reached.append(forest_mod.descend(forest, roots, n, go_true))
            return reached[-1]

        matrix = EncodingMatrix(ids, forest_hex_id(forest))
        with mock.patch.object(codec, "descend", recording), \
                mock.patch.object(codec, "_STEP_PAIRS", per_walk * len(ids)):
            try:
                next(decode_masks(forest, matrix, [TreeMask(ts)]))
            except EmptyMCRError:
                pass  # the ordinals are drawn at random, so the regions may not meet
        want = [[leaf_nodes(forest, t)[row[t]] for t in ts] for row in ids]
        assert np.concatenate(reached, axis=1).tolist() == want


class TestPaths:
    def test_get_path_reaches_leaf(self):
        for tree in (complete_depth2_tree(), small_tree()):
            true_child = true_children(tree.attr)
            for leaf in range(tree.leaf_count):
                node = 0
                for test, branch in get_path(tree, leaf):
                    assert test == (tree.attr[node], tree.param[node])
                    node = int(true_child[node]) if branch else node + 1
                assert tree.attr[node] == -1
                assert (tree.attr[:node] == -1).sum() == leaf

    def test_get_path_bad_leaf(self):
        tree = small_tree()
        with pytest.raises(ModelMismatchError,
                           match="leaf ordinal 3 out of range for a tree with 3 leaves"):
            get_path(tree, 3)
        with pytest.raises(ModelMismatchError,
                           match="leaf ordinal -1 out of range for a tree with 3 leaves"):
            get_path(tree, -1)

    def test_get_path_tests(self):
        tree = small_tree()
        path = get_path(tree, 1)
        assert path == [
            ((0, 5.0), True),
            ((1, 3.0), False),
        ]
        # read from the arrays as plain Python numbers
        assert all((type(a), type(p)) == (int, float) for (a, p), _ in path)

    def test_own_path_rule_contains_instance(self):
        ds = random_mixed(11)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=5, seed=9))
        for tree in forest.trees[:3]:
            for x in ds.X[:20]:
                leaf = walk_leaf(tree, x, ds.schema)
                rule = path_to_rule(get_path(tree, leaf), ds.schema)
                assert contains(rule, x)

    def test_path_to_rule_intervals(self):
        tree = small_tree()
        rule = path_to_rule(get_path(tree, 1), NUM2)
        assert rule[0] == Interval(5.0, math.inf, hi_closed=False)
        assert rule[1] == Interval(-math.inf, 3.0, hi_closed=False)

    @staticmethod
    def assert_every_leaf_decodes_as_rule(forest):
        # the batch engine's level-wise walk against the rule algebra, leaf by leaf
        for t, tree in enumerate(forest.trees):
            leaf_ids = np.zeros((tree.leaf_count, forest.T), dtype=np.int32)
            leaf_ids[:, t] = np.arange(tree.leaf_count)
            matrix = EncodingMatrix(leaf_ids, forest_hex_id(forest))
            mask = TreeMask((t,))
            for strategy in ("min", "mean", "max"):
                batch = decode_batch(forest, matrix, strategy, mask=mask)
                for leaf in range(tree.leaf_count):
                    row = decode(forest, leaf_ids[leaf], strategy, mask=mask)
                    assert batch.X[leaf].tobytes() == row.tobytes()

    def test_leaf_interval_arrays_match_rule(self):
        ds = random_mixed(12, n=120, d=6)
        assert not ds.schema.all_numeric
        for mode in ("unsupervised", "supervised"):
            forest = train_forest(ds, TrainConfig(mode=mode, n_trees=4, seed=2))
            assert any(t.attr[0] != -1 for t in forest.trees)
            self.assert_every_leaf_decodes_as_rule(forest)
        stumps = train_forest(
            ds, TrainConfig(mode="unsupervised", n_trees=2, seed=2, max_depth_cap=0)
        )
        assert all(t.leaf_count == 1 for t in stumps.trees)
        self.assert_every_leaf_decodes_as_rule(stumps)


class TestTreeFromPath:
    def test_realizes_requested_path(self):
        steps = [
            ((0, 1.0), True),
            ((1, 2.0), False),
            ((0, 0.5), True),
        ]
        built, end_leaf = tree_from_path(steps, NUM2)
        tree = view(built)
        assert get_path(tree, end_leaf) == steps
        x = np.array([1.0, 1.5])
        assert walk_leaf(tree, x, NUM2) == end_leaf


class TestForest:
    def test_validation(self):
        tree = pair(small_tree())
        bounds = Bounds(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            Forest((), NUM2, bounds, "unsupervised", 0)
        with pytest.raises(ValueError):
            Forest((tree,), NUM2, bounds, "other", 0)
        with pytest.raises(ValueError):
            Forest((tree,), NUM2, Bounds(np.zeros(3), np.ones(3)), "supervised", 0)
        for seed in ("0", 1.0, True):
            with pytest.raises(ValueError, match="^seed must be an integer$"):
                Forest((tree,), NUM2, bounds, "supervised", seed)
        for config in ([("a", 1)], ""):
            with pytest.raises(ValueError, match="^config must be an object$"):
                Forest((tree,), NUM2, bounds, "supervised", 0, config)
        for broken in (([], []), ([0, -1, -1], [0.0, 0.0])):
            with pytest.raises(InvalidModelError, match="^tree 1: tree node arrays must be "
                               "non-empty and of equal length$"):
                Forest((tree, broken), NUM2, bounds, "supervised", 0)
        # what needs no schema is checked on every forest, not only on loaded ones
        with pytest.raises(InvalidModelError, match="^tree 1: node 2: a leaf must hold param 0.0$"):
            Forest((tree, ([0, -1, -1], [0.5, 0.0, 1.0])), NUM2, bounds, "supervised", 0)

    @pytest.mark.parametrize("param, dtype", [
        (np.array(["1.5", "0", "0"]), "<U3"),
        (np.array([1.5, None, None], dtype=object), "object"),
        (np.array([1.5, 0, 0], dtype=complex), "complex128"),
    ], ids=["str", "object", "complex"])
    def test_refuses_params_that_are_not_real_numbers(self, param, dtype):
        tree = pair(small_tree())
        with pytest.raises(InvalidModelError,
                           match=f"^tree 1: params must be real numbers, not {dtype}$"):
            forest_of([tree, (np.array([0, -1, -1]), param)], NUM2)

    @pytest.mark.parametrize("attr", [[2**32, -1, -1], [0.0, -1.0, -1.0]],
                             ids=["beyond-int32", "float"])
    def test_refuses_attributes_that_are_not_int32(self, attr):
        with pytest.raises(InvalidModelError, match="tree attributes"):
            forest_of([(np.array(attr), np.zeros(3))], NUM2)

    def test_stores_four_node_arrays_at_16_bytes_a_node(self):
        trained = train_forest(
            random_mixed(5), TrainConfig(mode="unsupervised", n_trees=3, seed=0)
        )
        for forest in (forest_of([pair(small_tree()), pair(leaf_only_tree())], NUM2), trained):
            arrays = {name: getattr(forest, name) for name in Forest.__slots__
                      if isinstance(getattr(forest, name, None), np.ndarray)}
            assert sorted(arrays) == ["attr", "param", "roots", "true_child"]
            kept = sum(a.nbytes for a in arrays.values())
            assert kept == 16 * len(forest.attr) + forest.roots.nbytes

    def test_metadata_is_stored_as_plain_python(self):
        bounds = Bounds(np.zeros(2), np.ones(2))
        forest = Forest((pair(small_tree()),), NUM2, bounds, "unsupervised", np.int64(5))
        assert type(forest.seed) is int and forest.seed == 5
        assert forest.config == {}
        forest_hex_id(forest)  # hashes, where a numpy seed could not be written as JSON

    def test_properties_and_encode(self):
        tree = small_tree()
        other = complete_depth2_tree()
        forest = Forest(
            (pair(tree), pair(other)), NUM2, Bounds(np.zeros(2), np.ones(2)), "unsupervised", 7
        )
        assert forest.T == 2 and forest.d == 2
        assert forest.leaf_counts.tolist() == [3, 4]
        x = np.array([6.0, 3.0])
        assert walk_codes(forest, x).tolist() == [2, 3]
        assert forest_mod.encode(forest, forest.roots[:-1], x[None, :])[0].tolist() == [2, 3]
        # a run of trees is the slice of their roots
        assert forest_mod.encode(forest, forest.roots[1:2], x[None, :])[0].tolist() == [3]


class TestDepthStats:
    def test_single_leaf_forest(self):
        bounds = Bounds(np.zeros(2), np.ones(2))
        forest = Forest((pair(leaf_only_tree()),), NUM2, bounds, "unsupervised", 0)
        assert depth_stats(forest) == (0, 0.0)

    def test_complete_tree(self):
        bounds = Bounds(np.zeros(2), np.ones(2))
        forest = Forest((pair(complete_depth2_tree()),), NUM2, bounds, "unsupervised", 0)
        assert depth_stats(forest) == (2, 2.0)

    def test_mixed_forest_averages_tree_means(self):
        bounds = Bounds(np.zeros(2), np.ones(2))
        # small_tree leaf depths are (1, 2, 2); the complete tree's are all 2
        forest = Forest(
            (pair(small_tree()), pair(complete_depth2_tree())), NUM2, bounds, "unsupervised", 0
        )
        max_depth, avg = depth_stats(forest)
        assert max_depth == 2
        assert avg == pytest.approx((5 / 3 + 2.0) / 2)

    @given(st.lists(preorder_layouts().filter(lambda layout: layout[2]), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_one_pass_equals_per_tree_depths(self, layouts):
        forest = forest_of([layout_pair(leaf) for leaf, _, _ in layouts], NUM2)
        depths = [leaf_depths(tree) for tree in forest.trees]
        assert depth_stats(forest) == (max(int(d.max()) for d in depths),
                                       float(np.mean([d.mean() for d in depths])))

    def test_leaf_depths(self):
        assert leaf_depths(small_tree()).tolist() == [1, 2, 2]

    def test_leaf_depths_match_path_lengths(self):
        ds = random_mixed(5)
        for mode in ("supervised", "unsupervised"):
            forest = train_forest(ds, TrainConfig(mode=mode, n_trees=3, seed=3))
            for tree in forest.trees:
                lengths = [len(get_path(tree, leaf)) for leaf in range(tree.leaf_count)]
                assert leaf_depths(tree).tolist() == lengths
                assert leaf_depths(tree).max() == max(lengths)
