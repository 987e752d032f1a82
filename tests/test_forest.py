"""Tree and forest structure: record validation, encoding walks on both code
paths, path extraction, and depth statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eforest.codec import EncodingMatrix, TreeMask, decode, decode_batch
from eforest.data import Bounds, Categorical, Numeric, Schema, compute_bounds
from eforest.errors import InvalidModelError, LeafIndexError
from eforest.forest import (
    CAT,
    LEAF,
    NUM,
    Forest,
    Tree,
    _check_preorder,
    depth_stats,
    get_path,
    path_to_rule,
)
from eforest.persistence import forest_hex_id
from eforest.rules import Interval, contains
from eforest.training import TrainConfig, train_forest

from synthdata import random_mixed, tree_from_path, walk_codes, walk_leaf

NUM2 = Schema.numeric(["a", "b"])
MIXED = Schema(
    ("a", "color"),
    (Numeric(), Categorical(("red", "green", "blue"))),
)


def make_tree(kind, attr, param, true_child, schema=NUM2) -> Tree:
    """A tree from its four node columns, through the model-file record."""
    record = {"kind": kind, "attr": attr, "param": param, "true_child": true_child}
    return Tree.from_records(record, schema)


def small_tree() -> Tree:
    # a >= 5 ? (b >= 3 ? leaf2 : leaf1) : leaf0
    return make_tree(
        [NUM, LEAF, NUM, LEAF, LEAF],
        [0, -1, 1, -1, -1],
        [5.0, 0.0, 3.0, 0.0, 0.0],
        [2, -1, 4, -1, -1],
    )


def complete_depth2_tree() -> Tree:
    return make_tree(
        [NUM, NUM, LEAF, LEAF, NUM, LEAF, LEAF],
        [0, 1, -1, -1, 1, -1, -1],
        [5.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0],
        [4, 3, -1, -1, 6, -1, -1],
    )


def leaf_only_tree(schema=NUM2) -> Tree:
    return make_tree([LEAF], [-1], [0.0], [-1], schema)


def stump(kind=NUM, attr=0, param=0.0, true_child=2, schema=NUM2) -> Tree:
    """One test over two leaves; each argument can break the root."""
    return make_tree(
        [kind, LEAF, LEAF], [attr, -1, -1], [param, 0.0, 0.0], [true_child, -1, -1], schema
    )


class TestNodeRouting:
    def test_numeric_passes_at_threshold(self):
        tree, taken = tree_from_path([((NUM, 0, 2.0), True)], NUM2)
        X = np.array([[2.0, 0.0], [1.9999, 0.0]])
        assert tree.encode_batch(X).tolist() == [taken, 1 - taken]

    def test_categorical_passes_on_equality(self):
        tree, taken = tree_from_path([((CAT, 1, 1), True)], MIXED)
        X = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 2.0]])
        assert tree.encode_batch(X).tolist() == [taken, 1 - taken, 1 - taken]


class TestEncode:
    def test_routing(self):
        tree = small_tree()
        X = np.array([[4.0, 9.0], [5.0, 2.0], [6.0, 3.0]])
        assert tree.encode_batch(X).tolist() == [0, 1, 2]
        assert [walk_leaf(tree, x) for x in X] == [0, 1, 2]

    def test_single_leafy(self):
        tree = leaf_only_tree()
        assert walk_leaf(tree, np.array([1.0, 2.0])) == 0
        assert tree.leaf_count == 1 and tree.leaf_depths().max() == 0

    def test_batch_matches_scalar_on_trained_trees(self):
        ds = random_mixed(5)
        for mode in ("supervised", "unsupervised"):
            forest = train_forest(ds, TrainConfig(mode=mode, n_trees=6, seed=3))
            for tree in forest.trees:
                batch = tree.encode_batch(ds.X)
                scalar = [walk_leaf(tree, x) for x in ds.X]
                assert batch.tolist() == scalar

    def test_batch_empty_input(self):
        got = small_tree().encode_batch(np.empty((0, 2)))
        assert got.shape == (0,)

    def test_batch_single_leaf(self):
        got = leaf_only_tree().encode_batch(np.zeros((4, 2)))
        assert got.tolist() == [0, 0, 0, 0]

    def test_categorical_routing(self):
        tree = stump(CAT, 1, 2.0, schema=MIXED)
        X = np.array([[0.0, 2.0], [0.0, 1.0], [0.0, 0.0]])
        assert tree.encode_batch(X).tolist() == [1, 0, 0]
        assert [walk_leaf(tree, x) for x in X] == [1, 0, 0]


class TestFromRecordsValidation:
    def test_empty(self):
        with pytest.raises(InvalidModelError):
            make_tree([], [], [], [])

    def test_unknown_type(self):
        with pytest.raises(InvalidModelError):
            make_tree([7], [-1], [0.0], [-1])

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
            make_tree([NUM, LEAF, LEAF], [0, -1, -1], [0.0, 0.0], [2, -1, -1])

    @pytest.mark.parametrize(
        "column, value",
        [
            ("kind", True),
            ("kind", 1.0),
            ("attr", 0.0),
            ("attr", "0"),
            ("param", 0),
            ("param", None),
            ("true_child", 2.0),
            ("true_child", False),
        ],
    )
    def test_column_types_are_strict(self, column, value):
        # each value equals the stored one, but is not the JSON type save writes
        record = stump().node_records()
        record[column][0] = value
        with pytest.raises(InvalidModelError):
            Tree.from_records(record, NUM2)

    @pytest.mark.parametrize(
        "attr, param, true_child",
        [(0, 0.0, -1), (-1, 1.0, -1), (-1, 0.0, 0)],
        ids=["attr", "param", "true-child"],
    )
    def test_leaf_holds_no_test(self, attr, param, true_child):
        with pytest.raises(InvalidModelError):
            make_tree([LEAF], [attr], [param], [true_child])

    def test_attr_out_of_range(self):
        with pytest.raises(InvalidModelError):
            stump(attr=2)
        with pytest.raises(InvalidModelError):
            stump(attr=-1)

    def test_numeric_test_on_categorical_attr(self):
        with pytest.raises(InvalidModelError):
            stump(NUM, 1, 0.0, schema=MIXED)

    def test_categorical_test_on_numeric_attr(self):
        with pytest.raises(InvalidModelError):
            stump(CAT, 0, 0.0, schema=MIXED)

    def test_category_out_of_range(self):
        for category in (3.0, -1.0, 0.5, math.nan):
            with pytest.raises(InvalidModelError):
                stump(CAT, 1, category, schema=MIXED)

    def test_non_finite_threshold(self):
        for threshold in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidModelError):
                stump(param=threshold)

    def test_child_out_of_range(self):
        with pytest.raises(InvalidModelError):
            stump(true_child=5)
        with pytest.raises(InvalidModelError):
            stump(true_child=3)

    def test_node_reached_twice(self):
        # the true child is the false child i + 1
        with pytest.raises(InvalidModelError):
            stump(true_child=1)

    def test_unreachable_node(self):
        with pytest.raises(InvalidModelError):
            make_tree([NUM, LEAF, LEAF, LEAF], [0, -1, -1, -1], [0.0] * 4, [2, -1, -1, -1])

    def test_nodes_after_a_leaf_root(self):
        # the stump after the root closes by itself, and its test has no true child
        with pytest.raises(InvalidModelError, match="node 0: nodes after this leaf"):
            make_tree([LEAF, NUM, LEAF], [-1, 0, -1], [0.0] * 3, [-1, -1, -1])

    def test_subtree_must_end_where_its_parent_says(self):
        # root: false subtree [1, 4), true subtree [4, 5); node 1's true child 4
        # lies beyond its own interval although it is a valid node index
        with pytest.raises(InvalidModelError):
            make_tree(
                [NUM, NUM, LEAF, LEAF, LEAF],
                [0, 1, -1, -1, -1],
                [0.0] * 5,
                [4, 4, -1, -1, -1],
            )

    @pytest.mark.parametrize(
        "column, value",
        [("true_child", 2**40), ("attr", 2**70), ("kind", 257)],
        ids=["child-beyond-int32", "attr-beyond-int64", "kind-beyond-int8"],
    )
    def test_unrepresentable_numbers(self, column, value):
        # 257 would wrap to NUM in int8; every column is range-checked before narrowing
        record = stump().node_records()
        record[column][0] = value
        with pytest.raises(InvalidModelError):
            Tree.from_records(record, NUM2)

    def test_round_trip_through_records(self):
        tree = complete_depth2_tree()
        record = tree.node_records()
        assert list(record) == list(Tree.__slots__)
        again = Tree.from_records(record, NUM2)
        assert again.node_records() == record
        for name in Tree.__slots__:
            assert getattr(again, name).dtype == getattr(tree, name).dtype
            assert getattr(again, name).tolist() == getattr(tree, name).tolist()

    def test_arrays_are_read_only(self):
        trained = train_forest(
            random_mixed(5), TrainConfig(mode="unsupervised", n_trees=1, seed=0)
        ).trees[0]
        for tree in (small_tree(), trained):
            with pytest.raises(ValueError):
                tree.param[0] = 1.0
            with pytest.raises(ValueError):
                tree.true_child[0] = 0


def walk_preorder(leaf, true_child) -> bool:
    """Reference layout check: walk the subtree intervals ``[node, end)`` level
    by level from ``[0, n)``. An internal node ``i`` needs
    ``i + 1 < true_child[i] < end`` and a leaf needs ``end == node + 1``."""
    true_child = np.asarray(true_child, dtype=np.int64)
    nodes, ends = np.zeros(1, dtype=np.int64), np.full(1, len(leaf), dtype=np.int64)
    while len(nodes):
        at_leaf = leaf[nodes]
        after = nodes + 1
        if (at_leaf & (ends != after)).any():
            return False
        inner = ~at_leaf
        nodes, after, ends = nodes[inner], after[inner], ends[inner]
        tc = true_child[nodes]
        if ((tc <= after) | (tc >= ends)).any():
            return False
        nodes, ends = np.concatenate([after, tc]), np.concatenate([tc, ends])
    return True


@st.composite
def preorder_layouts(draw):
    """(leaf, true_child) of a random tree in pre-order, false branch first,
    possibly with one entry of either column changed."""
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
    column = draw(st.sampled_from(["none", "leaf", "true_child"]))
    at = draw(st.integers(0, n - 1))
    if column == "leaf":
        leaf[at] = not leaf[at]
    elif column == "true_child":
        true_child[at] = draw(st.integers(-2, n + 2))
    return np.array(leaf), np.array(true_child, dtype=np.int32), column == "none"


class TestPreorderCheck:
    @given(preorder_layouts())
    @settings(max_examples=400, deadline=None)
    def test_refuses_what_the_level_walk_refuses(self, layout):
        leaf, true_child, untouched = layout
        try:
            _check_preorder(leaf, true_child)
            accepted = True
        except InvalidModelError:
            accepted = False
        assert accepted == walk_preorder(leaf, true_child)
        if untouched:
            assert accepted


class TestPaths:
    def test_path_steps_reach_leaf(self):
        tree = complete_depth2_tree()
        for leaf in range(tree.leaf_count):
            node = 0
            for idx, branch in tree.path_steps(leaf):
                assert idx == node
                node = int(tree.true_child[node]) if branch else node + 1
            assert tree.kind[node] == LEAF
            assert (tree.kind[:node] == LEAF).sum() == leaf

    def test_path_steps_bad_leaf(self):
        tree = small_tree()
        with pytest.raises(LeafIndexError):
            tree.path_steps(3)
        with pytest.raises(LeafIndexError):
            tree.path_steps(-1)

    def test_get_path_tests(self):
        tree = small_tree()
        path = get_path(tree, 1)
        assert path == [
            ((NUM, 0, 5.0), True),
            ((NUM, 1, 3.0), False),
        ]
        # read from the arrays as plain Python numbers
        assert all(
            (type(k), type(a), type(p)) == (int, int, float) for (k, a, p), _ in path
        )

    def test_own_path_rule_contains_instance(self):
        ds = random_mixed(11)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=5, seed=9))
        for tree in forest.trees[:3]:
            for x in ds.X[:20]:
                leaf = walk_leaf(tree, x)
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
            assert any(t.kind[0] != LEAF for t in forest.trees)
            self.assert_every_leaf_decodes_as_rule(forest)
        stumps = train_forest(
            ds, TrainConfig(mode="unsupervised", n_trees=2, seed=2, max_depth_cap=0)
        )
        assert all(t.leaf_count == 1 for t in stumps.trees)
        self.assert_every_leaf_decodes_as_rule(stumps)


class TestTreeFromPath:
    def test_realizes_requested_path(self):
        steps = [
            ((NUM, 0, 1.0), True),
            ((NUM, 1, 2.0), False),
            ((NUM, 0, 0.5), True),
        ]
        tree, end_leaf = tree_from_path(steps, NUM2)
        assert get_path(tree, end_leaf) == steps
        x = np.array([1.0, 1.5])
        assert walk_leaf(tree, x) == end_leaf


class TestForest:
    def test_validation(self):
        tree = small_tree()
        bounds = Bounds(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            Forest((), NUM2, bounds, "unsupervised", 0)
        with pytest.raises(ValueError):
            Forest((tree,), NUM2, bounds, "other", 0)
        with pytest.raises(ValueError):
            Forest((tree,), NUM2, Bounds(np.zeros(3), np.ones(3)), "supervised", 0)

    def test_properties_and_encode(self):
        tree = small_tree()
        other = complete_depth2_tree()
        forest = Forest(
            (tree, other), NUM2, Bounds(np.zeros(2), np.ones(2)), "unsupervised", 7
        )
        assert forest.T == 2 and forest.d == 2
        x = np.array([6.0, 3.0])
        assert walk_codes(forest, x).tolist() == [2, 3]
        assert [t.encode_batch(x[None, :])[0] for t in forest.trees] == [2, 3]


class TestDepthStats:
    def test_single_leaf_forest(self):
        bounds = Bounds(np.zeros(2), np.ones(2))
        forest = Forest((leaf_only_tree(),), NUM2, bounds, "unsupervised", 0)
        assert depth_stats(forest) == (0, 0.0)

    def test_complete_tree(self):
        bounds = Bounds(np.zeros(2), np.ones(2))
        forest = Forest((complete_depth2_tree(),), NUM2, bounds, "unsupervised", 0)
        assert depth_stats(forest) == (2, 2.0)

    def test_mixed_forest_averages_tree_means(self):
        bounds = Bounds(np.zeros(2), np.ones(2))
        # small_tree leaf depths are (1, 2, 2); the complete tree's are all 2
        forest = Forest(
            (small_tree(), complete_depth2_tree()), NUM2, bounds, "unsupervised", 0
        )
        max_depth, avg = depth_stats(forest)
        assert max_depth == 2
        assert avg == pytest.approx((5 / 3 + 2.0) / 2)

    def test_leaf_depths(self):
        assert small_tree().leaf_depths().tolist() == [1, 2, 2]

    def test_leaf_depths_match_path_lengths(self):
        ds = random_mixed(5)
        for mode in ("supervised", "unsupervised"):
            forest = train_forest(ds, TrainConfig(mode=mode, n_trees=3, seed=3))
            for tree in forest.trees:
                lengths = [len(tree.path_steps(leaf)) for leaf in range(tree.leaf_count)]
                assert tree.leaf_depths().tolist() == lengths
                assert tree.leaf_depths().max() == max(lengths)
