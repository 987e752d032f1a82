"""Training behavior: brute-force split oracles (their gain math checked
against an independent reference), the batched kernels against one-node
reference splitters, stop conditions, determinism, and invariance under
lockstep grouping and thread count."""

import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eforest import training
from eforest.codec import encode_batch
from eforest.data import Categorical, Dataset, Numeric, Schema, compute_bounds
from eforest.errors import ConfigError, FormatError
from eforest.forest import Tree
from eforest.persistence import save_model
from eforest.rng import SplitMix64, peek_words, tree_stream
from eforest.training import (
    TrainConfig,
    _GainSplits,
    _grow,
    _numeric_threshold,
    _sample_attributes,
    _split_ranges,
    _splitter,
    _xlogx_table,
    attribute_sample_size,
    build_supervised_node,
    build_unsupervised_node,
    train_forest,
)

from synthdata import (
    leaf_depths,
    mnist_like,
    random_mixed,
    sample_without_replacement,
    tfidf_like,
    true_children,
)


def reference_entropy(labels) -> float:
    """Independent entropy-in-bits implementation used as the test oracle."""
    n = len(labels)
    if n == 0:
        return 0.0
    return -sum(
        (c / n) * math.log2(c / n) for c in Counter(labels).values()
    )


def entropy(labels) -> float:
    """Shannon entropy in bits of a label multiset."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        return 0.0
    counts = np.bincount(labels)
    counts = counts[counts > 0]
    p = counts / len(labels)
    return float(-(p * np.log2(p)).sum())


def information_gain(parent, left, right) -> float:
    """Entropy of the parent minus the size-weighted entropy of the children:
    the gain oracle of the brute-force split tests."""
    parent = np.asarray(parent, dtype=np.int64)
    n = len(parent)
    if n == 0 or len(parent) != len(left) + len(right):
        raise ValueError("children must partition the parent")
    wl = len(left) / n
    wr = len(right) / n
    return entropy(parent) - wl * entropy(left) - wr * entropy(right)


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="semi", n_trees=1)
        with pytest.raises(ConfigError):
            TrainConfig(mode="supervised", n_trees=0)
        with pytest.raises(ConfigError):
            TrainConfig(mode="supervised", n_trees=1, min_node_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(mode="supervised", n_trees=1, max_depth_cap=-1)
        with pytest.raises(ConfigError):
            TrainConfig(mode="supervised", n_trees=1, threads=0)

    @pytest.mark.parametrize(
        "field, value",
        [("n_trees", "3"), ("n_trees", 3.0), ("seed", None), ("min_node_size", True),
         ("max_depth_cap", "4"), ("threads", [2]), ("bootstrap", "no")],
    )
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{"mode": "supervised", "n_trees": 1, field: value})

    def test_numpy_integers_are_stored_as_python_ints(self, tmp_path):
        config = TrainConfig(mode="unsupervised", n_trees=np.int64(3), seed=np.int64(1),
                             min_node_size=np.int32(2), max_depth_cap=np.uint8(4),
                             threads=np.int16(1))
        fields = ("n_trees", "seed", "min_node_size", "max_depth_cap", "threads")
        assert all(type(getattr(config, name)) is int for name in fields)
        # the seed reaches the stream mix, and the config the model file
        forest = train_forest(random_mixed(3, n=20, d=3), config)
        save_model(forest, tmp_path / "m.json")
        assert forest.seed == 1 and forest.config["n_trees"] == 3

    def test_bootstrap_defaults(self):
        assert TrainConfig(mode="supervised", n_trees=1).bootstrap is True
        assert TrainConfig(mode="unsupervised", n_trees=1).bootstrap is False
        assert TrainConfig(mode="unsupervised", n_trees=1, bootstrap=True).bootstrap is True
        assert TrainConfig(mode="supervised", n_trees=1, bootstrap=False).bootstrap is False

    def test_meta_excludes_execution_details(self):
        meta = TrainConfig(mode="supervised", n_trees=3, seed=9, threads=4).to_meta()
        assert "threads" not in meta
        assert meta == {
            "mode": "supervised",
            "n_trees": 3,
            "seed": 9,
            "min_node_size": 2,
            "max_depth_cap": None,
            "bootstrap": True,
        }


class TestEntropy:
    def test_known_values(self):
        assert entropy([]) == 0.0
        assert entropy([2, 2, 2]) == 0.0
        assert entropy([0, 1]) == 1.0
        assert entropy([0, 0, 1, 1]) == 1.0
        assert entropy([0, 1, 2, 3]) == 2.0
        assert entropy([0, 0, 1]) == pytest.approx(0.9182958340544896, abs=1e-15)

    def test_matches_reference_on_random_multisets(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            labels = rng.integers(0, rng.integers(1, 6), rng.integers(0, 40)).tolist()
            assert entropy(labels) == pytest.approx(
                reference_entropy(labels), abs=1e-12
            )

    def test_gain_perfect_split(self):
        assert information_gain([0, 0, 1, 1], [0, 0], [1, 1]) == 1.0

    def test_gain_useless_split(self):
        assert information_gain([0, 1, 0, 1], [0, 1], [0, 1]) == pytest.approx(0.0)

    def test_gain_known_value(self):
        parent = [0, 0, 0, 1, 1, 1, 1, 1]
        left, right = [0, 0, 0, 1], [1, 1, 1, 1]
        expect = reference_entropy(parent) - 0.5 * reference_entropy(left)
        assert information_gain(parent, left, right) == pytest.approx(expect, abs=1e-12)

    def test_gain_rejects_non_partition(self):
        with pytest.raises(ValueError):
            information_gain([0, 1], [0], [])

    def test_xlogx_table(self):
        table = _xlogx_table(5)
        assert table[0] == 0.0
        for m in range(1, 6):
            assert table[m] == pytest.approx(m * math.log2(m), abs=1e-12)


class TestAttributeSampleSize:
    @pytest.mark.parametrize(
        "d,expect", [(1, 1), (2, 2), (4, 2), (5, 3), (9, 3), (10, 4), (784, 28)]
    )
    def test_values(self, d, expect):
        assert attribute_sample_size(d) == expect


class TestSampleAttributes:
    @given(
        d=st.integers(1, 900),
        states=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_match_sequential_fisher_yates(self, d, states, data):
        k = data.draw(st.integers(1, min(d, 40)))
        states = np.array(states, dtype=np.uint64)
        got = _sample_attributes(peek_words(states, k), d)
        assert got.shape == (len(states), k)
        for row, state in zip(got, states.tolist()):
            want = sample_without_replacement(SplitMix64(state), d, k)
            assert row.tolist() == want.tolist()


def brute_force_candidates(X, y, schema):
    """Every candidate split as (gain, (attr, param), true-branch mask),
    in (attribute, threshold or category) order, gains via the public function."""
    out = []
    for a in range(schema.d):
        col = X[:, a]
        if schema.category_sizes[a] > 0:
            for v in sorted(set(col.tolist())):
                mask = col == v
                if mask.all() or not mask.any():
                    continue
                out.append((information_gain(y, y[~mask], y[mask]), (a, float(v)), mask))
        else:
            vals = np.unique(col)
            for lo, hi in zip(vals[:-1], vals[1:]):
                mid = 0.5 * (lo + hi)
                thr = mid if mid > lo else hi
                mask = col >= thr
                out.append((information_gain(y, y[~mask], y[mask]), (a, float(thr)), mask))
    return out


def brute_force_best_split(X, y, schema):
    """Exhaustive best (gain, (attr, param)) sweep via the public gain function.

    Ties resolve to the lowest attribute, then the lowest threshold or
    category, matching the documented training order.
    """
    best = (-1.0, None)
    for g, test, _ in brute_force_candidates(X, y, schema):
        if g > best[0] + 1e-12:
            best = (g, test)
    return best


_SPARSE_VALUES = (0.7, 1.4, 2.8)


@st.composite
def split_problems(draw):
    """(X, y, schema) for a node: few rows, up to 12 classes, and columns that
    are mostly zeros, repeated integers, reals, constant, copies of an earlier
    column (exact attribute ties) or categorical with one or more values present."""
    n = draw(st.integers(2, 30))
    n_classes = draw(st.sampled_from([2, 3, 9, 12]))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)

    y = column(st.integers(0, n_classes - 1)).astype(np.int64)
    cols, kinds = [], []
    for _ in range(draw(st.integers(1, 6))):
        style = draw(st.sampled_from(["sparse", "ints", "reals", "const", "copy", "cat", "cat1"]))
        if style == "copy" and not cols:
            style = "const"
        kind = Numeric()
        if style == "sparse":
            col = np.zeros(n)
            hot = draw(st.lists(st.integers(0, n - 1), max_size=n // 5, unique=True))
            col[hot] = column(st.sampled_from(_SPARSE_VALUES))[: len(hot)]
        elif style == "ints":
            col = column(st.integers(0, 3))
        elif style == "reals":
            col = column(st.floats(-10, 10, allow_nan=False, allow_subnormal=False))
        elif style == "const":
            col = np.full(n, draw(st.sampled_from([0.0, -1.5, 4.0])))
        elif style == "copy":
            j = draw(st.integers(0, len(cols) - 1))
            col, kind = cols[j], kinds[j]
        else:
            size = draw(st.integers(1, 4))
            kind = Categorical(tuple(f"c{i}" for i in range(size)))
            if style == "cat1":
                col = np.full(n, float(draw(st.integers(0, size - 1))))
            else:
                col = column(st.integers(0, size - 1))
        cols.append(col)
        kinds.append(kind)
    names = tuple(f"a{j}" for j in range(len(cols)))
    return np.column_stack(cols), y, Schema(names, tuple(kinds))


class TestSupervisedSplit:
    def _split_all_attrs(self, X, y, schema):
        """((attr, param), true-branch mask) of the batched kernel on one node
        holding every row, inspecting every attribute; None for a leaf."""
        kernel = _GainSplits(X.T, y, int(y.max()) + 1, schema, min_node_size=1)
        kernel.sample = schema.d
        n = len(X)
        rows, offsets = np.arange(n), np.array([0, n])
        if not kernel.draws(rows, offsets[:1], offsets[1:])[0]:
            return None
        attr, param, goes_true = kernel(rows, offsets, np.zeros(1, np.uint64))
        if attr[0] < 0:
            return None
        return (int(attr[0]), float(param[0])), goes_true

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(7)
        schema = Schema(
            ("u", "v", "c"),
            (Numeric(), Numeric(), Categorical(("p", "q", "r"))),
        )
        for trial in range(20):
            n = int(rng.integers(5, 40))
            X = np.column_stack(
                [
                    rng.integers(0, 6, n).astype(float),
                    rng.normal(0, 1, n).round(1),
                    rng.integers(0, 3, n).astype(float),
                ]
            )
            y = rng.integers(0, 3, n)
            expect_gain, expect_test = brute_force_best_split(X, y, schema)
            got = self._split_all_attrs(X, y, schema)
            if expect_gain <= 1e-12:
                assert got is None
                continue
            assert got is not None
            test, mask = got
            assert test == expect_test
            attr, param = test
            col = X[:, attr]
            if schema.category_sizes[attr] > 0:
                assert mask.tolist() == (col == param).tolist()
            else:
                assert mask.tolist() == (col >= param).tolist()
            gain = information_gain(y, y[~mask], y[mask])
            assert gain == pytest.approx(expect_gain, abs=1e-9)

    @given(split_problems())
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force(self, problem):
        X, y, schema = problem
        expect_gain, expect_test = brute_force_best_split(X, y, schema)
        got = self._split_all_attrs(X, y, schema)
        if expect_gain > 1e-12:
            assert got is not None
        if got is None:
            return
        test, mask = got
        attr, param = test
        cat = schema.category_sizes[attr] > 0
        col = X[:, attr]
        assert mask.tolist() == (col == param if cat else col >= param).tolist()

        def sides(k, m):
            """Whether the test is categorical, and the class counts off and on
            the true branch."""
            return k, *(np.bincount(y[b], minlength=12).tolist() for b in (~m, m))

        if expect_gain <= 1e-12:
            # No gain is positive, yet rounding can leave a zero gain a hair
            # above zero; such a split keeps the node's class mix on both sides.
            _, off, on = sides(cat, mask)
            assert np.multiply(on, (~mask).sum()).tolist() == np.multiply(off, mask.sum()).tolist()
            return
        assert information_gain(y, y[~mask], y[mask]) == pytest.approx(expect_gain, abs=1e-9)
        # Splits whose class counts mirror each other tie in exact arithmetic
        # but not always in floating point, so the pick may be any candidate
        # within rounding of the best. Candidates of one kind with equal class
        # counts on each side tie exactly and go to the first of them.
        cands = brute_force_candidates(X, y, schema)
        near = [t for g, t, _ in cands if g >= expect_gain - 1e-9]
        assert test in near
        if len(near) == 1:
            assert test == expect_test
        assert test == next(
            t for _, t, m in cands if sides(schema.category_sizes[t[0]] > 0, m) == sides(cat, mask)
        )

    def test_tie_breaks_to_lowest_attribute(self):
        # identical columns produce exactly equal gains
        schema = Schema.numeric(["a", "b"])
        col = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([col, col])
        y = np.array([0, 0, 1, 1])
        test, mask = self._split_all_attrs(X, y, schema)
        assert test == (0, 1.5)
        assert information_gain(y, y[~mask], y[mask]) == pytest.approx(1.0)

    def test_tie_breaks_to_lowest_threshold(self):
        # the label pattern is symmetric, so both outer boundaries tie
        schema = Schema.numeric(["a"])
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        test, _ = self._split_all_attrs(X, y, schema)
        assert test == (0, 0.5)

    def test_threshold_never_equals_left_value(self):
        lo = 1.0
        hi = math.nextafter(lo, 2.0)
        # the midpoint of adjacent doubles rounds back onto the left value
        assert _numeric_threshold(lo, hi) == hi

    def test_repeated_values_share_one_boundary(self):
        schema = Schema.numeric(["a"])
        X = np.array([[1.0], [1.0], [1.0], [4.0]])
        y = np.array([0, 0, 0, 1])
        test, mask = self._split_all_attrs(X, y, schema)
        assert test == (0, 2.5)
        assert mask.tolist() == [False, False, False, True]


class TestNodeBuilders:
    def test_supervised_leaf_conditions(self):
        schema = Schema.numeric(["a"])
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        rows = np.arange(4)
        pure = np.array([1, 1, 1, 1])
        mixed = np.array([0, 1, 0, 1])
        assert build_supervised_node(X, rows, pure, SplitMix64(0), schema) is None
        assert build_supervised_node(X, rows[:2], mixed[:2], SplitMix64(0), schema) is None
        got = build_supervised_node(X, rows, np.array([0, 0, 1, 1]), SplitMix64(0), schema)
        assert got == (0, 1.5)

    def test_supervised_no_gain_on_constant_data(self):
        schema = Schema.numeric(["a"])
        X = np.zeros((6, 1))
        y = np.array([0, 1, 0, 1, 0, 1])
        assert build_supervised_node(X, np.arange(6), y, SplitMix64(0), schema) is None

    def test_unsupervised_leaf_conditions(self):
        schema = Schema.numeric(["a"])
        X = np.array([[0.0], [1.0], [2.0]])
        assert build_unsupervised_node(X, np.arange(2), SplitMix64(0), schema) is None
        assert build_unsupervised_node(np.zeros((9, 1)), np.arange(9), SplitMix64(0), schema) is None

    def test_unsupervised_split_is_interior(self):
        schema = Schema.numeric(["a", "b"])
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (50, 2))
        for seed in range(30):
            attr, thr = build_unsupervised_node(X, np.arange(50), SplitMix64(seed), schema)
            col = X[:, attr]
            assert col.min() < thr <= col.max()

    def test_unsupervised_never_splits_constant_attr(self):
        schema = Schema.numeric(["const", "varies"])
        X = np.column_stack([np.full(40, 5.0), np.arange(40.0)])
        for seed in range(20):
            attr, _ = build_unsupervised_node(X, np.arange(40), SplitMix64(seed), schema)
            assert attr == 1

    def test_unsupervised_categorical_split(self):
        schema = Schema(("c",), (Categorical(("x", "y", "z")),))
        X = np.array([[0.0], [1.0], [1.0], [2.0]])
        seen = set()
        for seed in range(40):
            attr, value = build_unsupervised_node(X, np.arange(4), SplitMix64(seed), schema)
            assert attr == 0
            seen.add(value)
        assert seen == {0, 1, 2}


def dataset_numeric(seed=0, n=60, d=3, classes=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d)).round(2)
    y = rng.integers(0, classes, n)
    return Dataset(Schema.numeric([f"v{j}" for j in range(d)]), X, labels=y)


class TestTrainForest:
    def test_requires_data(self):
        ds = dataset_numeric()
        empty = Dataset(ds.schema, np.empty((0, 3)))
        with pytest.raises(ConfigError, match="cannot train on an empty dataset"):
            train_forest(empty, TrainConfig(mode="unsupervised", n_trees=1))

    def test_supervised_requires_labels(self):
        ds = dataset_numeric()
        unlabeled = Dataset(ds.schema, ds.X)
        with pytest.raises(ConfigError, match="supervised training requires labels"):
            train_forest(unlabeled, TrainConfig(mode="supervised", n_trees=1))

    def test_supervised_rejects_negative_labels(self):
        ds = Dataset(Schema.numeric(["a"]), np.arange(4.0)[:, None], labels=[-1, 0, 1, 2])
        with pytest.raises(FormatError,
                           match="supervised training needs class labels >= 0, got -1"):
            train_forest(ds, TrainConfig(mode="supervised", n_trees=1))
        # unsupervised training ignores labels
        assert train_forest(ds, TrainConfig(mode="unsupervised", n_trees=1)).T == 1

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_deterministic_per_seed(self, mode):
        ds = dataset_numeric()
        cfg = TrainConfig(mode=mode, n_trees=4, seed=13)
        a = train_forest(ds, cfg)
        b = train_forest(ds, cfg)
        assert [t.node_records() for t in a.trees] == [t.node_records() for t in b.trees]
        c = train_forest(ds, TrainConfig(mode=mode, n_trees=4, seed=14))
        assert [t.node_records() for t in a.trees] != [t.node_records() for t in c.trees]

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_thread_count_does_not_change_results(self, mode, monkeypatch):
        # fork the workers asked for, however few CPUs this machine has
        monkeypatch.setattr(training, "_usable_cpus", lambda: 64)
        ds = dataset_numeric(seed=3)
        serial = train_forest(ds, TrainConfig(mode=mode, n_trees=6, seed=5, threads=1))
        parallel = train_forest(ds, TrainConfig(mode=mode, n_trees=6, seed=5, threads=2))
        assert [t.node_records() for t in serial.trees] == [
            t.node_records() for t in parallel.trees
        ]

    def test_trees_emit_valid_preorder_records(self):
        ds = random_mixed(17)
        for mode in ("supervised", "unsupervised"):
            forest = train_forest(ds, TrainConfig(mode=mode, n_trees=5, seed=1))
            for tree in forest.trees:
                attr, param = Tree.from_records(tree.node_records(), ds.schema)
                assert (attr.tolist(), param.tolist()) == (tree.attr.tolist(), tree.param.tolist())

    def test_max_depth_cap(self):
        ds = dataset_numeric(seed=8, n=200)
        forest = train_forest(
            ds, TrainConfig(mode="unsupervised", n_trees=3, seed=2, max_depth_cap=3)
        )
        assert all(leaf_depths(t).max() <= 3 for t in forest.trees)
        stump = train_forest(
            ds, TrainConfig(mode="unsupervised", n_trees=2, seed=2, max_depth_cap=0)
        )
        assert all(t.n_nodes == 1 for t in stump.trees)

    def test_pure_labels_give_single_leaf(self):
        ds = Dataset(
            Schema.numeric(["a"]),
            np.arange(20.0).reshape(-1, 1),
            labels=np.zeros(20, dtype=np.int64),
        )
        forest = train_forest(
            ds, TrainConfig(mode="supervised", n_trees=3, seed=0, bootstrap=False)
        )
        assert all(t.n_nodes == 1 for t in forest.trees)

    def test_perfectly_separable_exact_structure(self):
        ds = Dataset(
            Schema.numeric(["a"]),
            np.array([[0.0], [0.0], [1.0], [1.0]]),
            labels=np.array([0, 0, 1, 1]),
        )
        forest = train_forest(
            ds,
            TrainConfig(mode="supervised", n_trees=2, seed=0, bootstrap=False, min_node_size=1),
        )
        for tree in forest.trees:
            assert tree.node_records() == {"attr": [0, -1, -1], "param": [0.5, 0.0, 0.0]}
            assert true_children(tree.attr).tolist() == [2, -1, -1]

    def test_bootstrap_changes_supervised_trees(self):
        ds = dataset_numeric(seed=21, n=80)
        with_bs = train_forest(ds, TrainConfig(mode="supervised", n_trees=3, seed=6))
        without = train_forest(
            ds, TrainConfig(mode="supervised", n_trees=3, seed=6, bootstrap=False)
        )
        assert with_bs.config["bootstrap"] is True
        assert without.config["bootstrap"] is False
        assert [t.node_records() for t in with_bs.trees] != [
            t.node_records() for t in without.trees
        ]
        # without bootstrap every tree sees identical rows, so supervised
        # trees differ only through attribute sampling
        assert all(t.leaf_count >= 1 for t in without.trees)

    def test_unsupervised_leaves_cover_min_node_size(self):
        ds = dataset_numeric(seed=4, n=100)
        forest = train_forest(
            ds, TrainConfig(mode="unsupervised", n_trees=2, seed=3, min_node_size=5)
        )
        # rows per leaf are not persisted; re-derive them by encoding
        for tree, codes in zip(forest.trees, encode_batch(forest, ds).leaf_ids.T):
            counts = np.bincount(codes, minlength=tree.leaf_count)
            assert counts.max() <= 5 or tree.n_nodes == 1

    def test_forest_metadata(self):
        ds = dataset_numeric(seed=2)
        cfg = TrainConfig(mode="unsupervised", n_trees=3, seed=42)
        forest = train_forest(ds, cfg)
        assert forest.kind == "unsupervised"
        assert forest.seed == 42
        assert forest.T == 3
        assert forest.config == cfg.to_meta()
        bounds = compute_bounds(ds.schema, ds.X)
        assert forest.bounds.lo.tolist() == bounds.lo.tolist()
        assert forest.bounds.hi.tolist() == bounds.hi.tolist()

    def test_categorical_zero_signs_train_the_same_model(self, tmp_path):
        # with these rows, a 4-tree forest held ``x == -0.0`` while -0.0 cells
        # reached training: which zero led its run rested on the sort kernel
        rng = np.random.default_rng(9)
        col = rng.choice([0.0, -0.0, 1.0, 2.0], size=3000)
        x = rng.normal(size=3000)
        labels = (col == 0).astype(np.int64) + (x > 0.5)
        schema = Schema(("c", "x"), (Categorical(("a", "b", "c")), Numeric()))
        cfg = TrainConfig(mode="supervised", n_trees=4, seed=0)
        models = []
        for cells in (col, np.abs(col)):
            ds = Dataset(schema, np.column_stack([cells, x]), labels=labels)
            assert not np.signbit(ds.X).any(axis=0)[0]
            path = tmp_path / f"m{len(models)}.json"
            save_model(train_forest(ds, cfg), path)
            models.append(path.read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("make", [lambda: tfidf_like(120, 40, seed=3),
                                      lambda: mnist_like(80, seed=4)],
                             ids=["tfidf_like", "mnist_like"])
    def test_gapped_labels_train_the_same_trees(self, make):
        ds = make()
        gapped = Dataset(ds.schema, ds.X, labels=3 * ds.labels + 5)
        cfg = TrainConfig(mode="supervised", n_trees=4, seed=11)
        for a, b in zip(train_forest(ds, cfg).trees, train_forest(gapped, cfg).trees):
            assert np.array_equal(a.attr, b.attr) and np.array_equal(a.param, b.param)


def reference_random_split(XT, rows, stream, is_cat, min_node_size):
    """One node's completely random test, drawn one word at a time as the
    per-node grower drew it: the oracle of the batched kernel."""
    if len(rows) <= min_node_size:
        return None
    d = XT.shape[0]
    j = -1
    for _ in range(16):
        cand = stream.below(d)
        c = XT[cand][rows]
        if c.min() < c.max():
            j, col = cand, c
            break
    if j < 0:
        sub = XT[:, rows]
        varying = np.nonzero(sub.min(axis=1) < sub.max(axis=1))[0]
        if len(varying) == 0:
            return None
        j = int(varying[stream.below(len(varying))])
        col = sub[j]
    if is_cat[j]:
        present = np.unique(col)
        return j, float(present[stream.below(len(present))])
    lo, hi = float(col.min()), float(col.max())
    for _ in range(8):
        t = lo + stream.f01() * (hi - lo)
        if lo < t < hi:
            return j, t
    return j, math.nextafter(lo, hi)


def reference_gain_split(XT, rows, y, stream, is_cat, n_classes, min_node_size):
    """One node's best-gain test as the per-node grower computed it, with one
    argsort per sampled attribute: the oracle of the batched kernel."""
    nn = len(rows)
    if nn <= min_node_size or (y[rows] == y[rows][0]).all():
        return None
    y = y[rows]
    xlogx = _xlogx_table(XT.shape[1])
    attrs = np.sort(sample_without_replacement(stream, XT.shape[0],
                                               attribute_sample_size(XT.shape[0])))
    order = np.argsort(XT[attrs[:, None], rows], axis=1)
    sv = XT[attrs[:, None], rows[order]].ravel()
    start = np.empty(len(sv) + 1, dtype=bool)
    np.not_equal(sv[1:], sv[:-1], out=start[1:-1])
    start[::nn] = True
    bounds = np.flatnonzero(start)
    first, end = bounds[:-1], bounds[1:]
    run_attr = first // nn
    cat = is_cat[attrs][run_attr]
    cand = np.flatnonzero(np.where(cat, end - first < nn, end % nn > 0))
    if not len(cand):
        return None
    run = np.cumsum(start[:-1]) - 1
    counts = np.bincount(run * n_classes + y[order].ravel(), minlength=len(first) * n_classes)
    counts = counts.reshape(-1, n_classes)
    total = np.bincount(y, minlength=n_classes)
    below = np.cumsum(counts, axis=0) - run_attr[:, None] * total
    left = np.where(cat[:, None], counts, below)[cand]
    nl = left.sum(axis=1)
    parent_term = xlogx[nn] - xlogx[total].sum()
    left_term = xlogx[nl] - xlogx[left].sum(axis=1)
    right_term = xlogx[nn - nl] - xlogx[total - left].sum(axis=1)
    gains = parent_term - left_term - right_term
    i = int(np.argmax(gains))
    if not gains[i] > 0.0:
        return None
    r = int(cand[i])
    values = sv[first]
    if cat[r]:
        return int(attrs[run_attr[r]]), float(values[r])
    mid = 0.5 * (values[r] + values[r + 1])
    return int(attrs[run_attr[r]]), float(mid if mid > values[r] else values[r + 1])


@st.composite
def forest_problems(draw):
    """(dataset, config) for a small forest over a random mixed schema: columns
    of few integers, reals, constants, adjacent doubles (every threshold draw
    lands on an end) or categories, and up to four classes."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)

    cols, kinds = [], []
    for _ in range(d):
        style = draw(st.sampled_from(["ints", "reals", "const", "adjacent", "cat"]))
        kind = Numeric()
        if style == "ints":
            col = column(st.integers(0, 3))
        elif style == "reals":
            col = column(st.floats(-10, 10, allow_nan=False, allow_subnormal=False))
        elif style == "const":
            col = np.full(n, 2.5)
        elif style == "adjacent":
            col = column(st.sampled_from([1.0, math.nextafter(1.0, 2.0)]))
        else:
            size = draw(st.integers(1, 4))
            kind = Categorical(tuple(f"c{i}" for i in range(size)))
            col = column(st.integers(0, size - 1))
        cols.append(col)
        kinds.append(kind)
    labels = column(st.integers(0, 3)).astype(np.int64)
    schema = Schema(tuple(f"a{j}" for j in range(d)), tuple(kinds))
    config = TrainConfig(
        mode=draw(st.sampled_from(["supervised", "unsupervised"])),
        n_trees=draw(st.integers(1, 7)),
        seed=draw(st.integers(0, 2**64 - 1)),
        min_node_size=draw(st.integers(1, 4)),
        max_depth_cap=draw(st.one_of(st.none(), st.integers(0, 6))),
        bootstrap=draw(st.one_of(st.none(), st.booleans())),
    )
    return Dataset(schema, np.column_stack(cols), labels=labels), config


def reference_forest(ds, cfg):
    """The node arrays, as lists, of the trees ``train_forest(ds, cfg)``
    grows, each grown one node at a time, recursively, in pre-order with the
    false branch first, from its own stream; and the rows, sorted, of every
    node that drew words. A node at the depth cap is a leaf without a draw;
    any other is decided by the one-node oracles, and its rows are
    partitioned stably."""
    XT = np.ascontiguousarray(ds.X.T)
    is_cat = ds.schema.category_sizes > 0
    supervised = cfg.mode == "supervised"
    y = np.unique(ds.labels, return_inverse=True)[1] if supervised else None
    trees, drew = [], []
    for t in range(cfg.n_trees):
        stream = tree_stream(cfg.seed, t)
        attr, param = [], []

        def grow(rows, depth):
            node = len(attr)
            attr.append(-1)
            param.append(0.0)
            if cfg.max_depth_cap is not None and depth >= cfg.max_depth_cap:
                return
            state = stream.state
            if supervised:
                test = reference_gain_split(XT, rows, y, stream, is_cat, y.max() + 1,
                                            cfg.min_node_size)
            else:
                test = reference_random_split(XT, rows, stream, is_cat, cfg.min_node_size)
            if stream.state != state:
                drew.append(tuple(sorted(rows.tolist())))
            if test is None:
                return
            attr[node], param[node] = test
            col = XT[test[0], rows]
            goes_true = col == test[1] if is_cat[test[0]] else col >= test[1]
            grow(rows[~goes_true], depth + 1)
            grow(rows[goes_true], depth + 1)

        grow(stream.below_block(ds.n, ds.n) if cfg.bootstrap else np.arange(ds.n), 0)
        trees.append((attr, param))
    return trees, drew


class RecordingSplit:
    """A split kernel that records the rows, sorted, of every node it
    decides, and how many rows each of its calls held."""

    def __init__(self, split):
        self.split = split
        self.nodes = []
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.split, name)

    def __call__(self, rows, offsets, states):
        self.nodes += [tuple(sorted(rows[a:b].tolist())) for a, b in zip(offsets, offsets[1:])]
        self.calls.append(len(rows))
        return self.split(rows, offsets, states)


def recorded_training(ds, cfg):
    """The forest ``train_forest`` grows, and its recording kernel."""
    kernels = []

    def splitter(dataset, config):
        kernels.append(RecordingSplit(_splitter(dataset, config)))
        return kernels[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_splitter", splitter)
        forest = train_forest(ds, cfg)
    return forest, kernels[0]


def stack_peak(tree):
    """The most nodes pending at once when ``tree`` grows in pre-order with
    the false branch first, each split pushing both its children."""
    stack, peak, true_child = [0], 1, true_children(tree.attr)
    while stack:
        i = stack.pop()
        if tree.attr[i] >= 0:
            stack += [int(true_child[i]), i + 1]
            peak = max(peak, len(stack))
    return peak


def tree_arrays(trees):
    return [(t.attr.tolist(), t.param.tolist()) for t in trees]


def grown_arrays(split, n, cfg, trees):
    """``_grow``'s node arrays of ``trees``, as lists like ``tree_arrays``'."""
    return [(attr.tolist(), param.tolist()) for attr, param in _grow(split, n, cfg, trees)]


class TestRoutesAgree:
    @given(forest_problems())
    @settings(max_examples=150, deadline=None)
    def test_training_rows_encode_to_every_leaf(self, problem):
        """Every leaf keeps at least one of its tree's training rows, so if
        training and encoding route rows alike, encoding those rows reaches
        every leaf of every tree."""
        ds, cfg = problem
        forest = train_forest(ds, cfg)
        leaf_ids = encode_batch(forest, ds).leaf_ids
        for t, tree in enumerate(forest.trees):
            rows = tree_stream(cfg.seed, t).below_block(ds.n, ds.n) if cfg.bootstrap else np.arange(ds.n)
            assert set(leaf_ids[rows, t].tolist()) == set(range(tree.leaf_count))


class TestLockstep:
    @given(forest_problems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_grouping_grows_the_same_trees(self, problem, data):
        ds, cfg = problem
        split = _splitter(ds, cfg)
        T = cfg.n_trees
        together = grown_arrays(split, ds.n, cfg, range(T))
        alone = [tree for t in range(T) for tree in grown_arrays(split, ds.n, cfg, [t])]
        cuts = sorted(data.draw(st.sets(st.integers(1, T - 1), max_size=T)) if T > 1 else set())
        bounds = [0, *cuts, T]
        blocks = [tree for a, b in zip(bounds, bounds[1:])
                  for tree in grown_arrays(split, ds.n, cfg, range(a, b))]
        backwards = grown_arrays(split, ds.n, cfg, range(T - 1, -1, -1))[::-1]
        assert together == alone == blocks == backwards
        assert together == tree_arrays(train_forest(ds, cfg).trees)

    @given(forest_problems())
    @settings(max_examples=150, deadline=None)
    def test_grows_the_trees_of_a_one_node_grower(self, problem):
        ds, cfg = problem
        assert tree_arrays(train_forest(ds, cfg).trees) == reference_forest(ds, cfg)[0]

    @given(forest_problems())
    @settings(max_examples=150, deadline=None)
    def test_kernel_decides_only_nodes_that_draw(self, problem):
        ds, cfg = problem
        nodes = recorded_training(ds, cfg)[1].nodes
        for node in nodes:
            assert len(node) > cfg.min_node_size
            if cfg.mode == "supervised":
                assert len(set(ds.labels[list(node)].tolist())) > 1
        # the reference draws for no node at the depth cap, so this also
        # keeps every node the kernel decides above it
        assert Counter(nodes) == Counter(reference_forest(ds, cfg)[1])

    def test_deep_trees_outgrow_the_first_buffers(self):
        # a uniform threshold between these values mostly peels the largest
        # off as a one-row leaf, so the trees are deep chains of many nodes
        ds = Dataset(Schema.numeric(["x"]), 2.0 ** np.arange(520)[:, None])
        cfg = TrainConfig(mode="unsupervised", n_trees=2, seed=1, min_node_size=1)
        trees = train_forest(ds, cfg).trees
        assert all(leaf_depths(t).max() > 64 and t.n_nodes > 1024 for t in trees)
        assert tree_arrays(trees) == reference_forest(ds, cfg)[0]

    @pytest.mark.parametrize("seed", [16, 17, 24])
    def test_a_drawing_leaf_at_the_stack_bottom_ends_its_tree(self, seed):
        # the last node of the all-true path holds the three equal rows: it
        # draws but is a leaf, decided last from the bottom of the stack,
        # after these seeds' trees held exactly 64 pending nodes at once
        X = np.concatenate([2.0 ** np.arange(120), np.full(3, 2.0 ** 120)])[:, None]
        ds = Dataset(Schema.numeric(["x"]), X)
        cfg = TrainConfig(mode="unsupervised", n_trees=1, seed=seed, min_node_size=1)
        forest = train_forest(ds, cfg)
        tree, = forest.trees
        assert stack_peak(tree) == 64
        last = encode_batch(forest, ds).leaf_ids[:, 0] == tree.leaf_count - 1
        assert last.nonzero()[0].tolist() == [120, 121, 122]
        assert tree_arrays([tree]) == reference_forest(ds, cfg)[0]

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_kernel_decides_inner_nodes_and_leaves_that_drew(self, mode):
        # few attributes: many leaves hold rows that no test separates
        ds = random_mixed(3, n=300, d=3)
        cfg = TrainConfig(mode=mode, n_trees=6, seed=3, min_node_size=4, max_depth_cap=7)
        forest, kernel = recorded_training(ds, cfg)
        nodes = kernel.nodes
        codes = encode_batch(forest, ds).leaf_ids
        drew = capped = small = 0
        for t, tree in enumerate(forest.trees):
            rows = tree_stream(cfg.seed, t).below_block(ds.n, ds.n) if cfg.bootstrap else np.arange(ds.n)
            leaf = codes[rows, t]
            size = np.bincount(leaf, minlength=tree.leaf_count)
            classes = np.array([len(set(ds.labels[rows[leaf == i]].tolist()))
                                for i in range(tree.leaf_count)])
            could = (size > cfg.min_node_size) & ((classes > 1) | (mode == "unsupervised"))
            depth = leaf_depths(tree)
            drew += (could & (depth < cfg.max_depth_cap)).sum()
            capped += (could & (depth == cfg.max_depth_cap)).sum()
            small += ((size <= cfg.min_node_size) & (depth < cfg.max_depth_cap)).sum()
        inner = sum(tree.n_nodes - tree.leaf_count for tree in forest.trees)
        assert drew > 0 and capped > 0 and small > 0
        assert len(nodes) == inner + drew

    @given(forest_problems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_batched_kernel_equals_one_node_at_a_time(self, problem, data):
        """The kernel is given only nodes that draw; the one-node oracles and
        builders declare any other a leaf without a draw."""
        ds, cfg = problem
        split = _splitter(ds, cfg)
        nodes = data.draw(st.lists(
            st.lists(st.integers(0, ds.n - 1), min_size=1, max_size=ds.n), min_size=1, max_size=6))
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=len(nodes),
                                   max_size=len(nodes)))
        # a budget of one sweeps the class counts of one node at a time
        budget = data.draw(st.sampled_from([training._STEP_CELLS, 1]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "_STEP_CELLS", budget)
            self._check_batch(ds, cfg, split, nodes, seeds)

    def _check_batch(self, ds, cfg, split, nodes, seeds):
        """Decide ``nodes`` in one kernel call, each from its seed's stream,
        and check every node against the one-node oracles and builders."""
        rows = np.concatenate([np.array(r, dtype=np.int64) for r in nodes])
        offsets = np.cumsum([0] + [len(r) for r in nodes])
        drawing = split.draws(rows, offsets[:-1], offsets[1:])
        states = np.array(seeds, dtype=np.uint64)
        attr = np.full(len(nodes), -1)
        param = np.zeros(len(nodes))
        goes_true = np.zeros(len(rows), dtype=bool)
        if drawing.any():
            kept = np.concatenate([np.arange(a, b) for a, b, keep
                                   in zip(offsets, offsets[1:], drawing) if keep])
            size = np.diff(offsets)[drawing]
            sub_states = states[drawing]
            attr[drawing], param[drawing], goes_true[kept] = split(
                rows[kept], np.concatenate([[0], size.cumsum()]), sub_states)
            states[drawing] = sub_states
        XT = np.ascontiguousarray(ds.X.T)
        is_cat = ds.schema.category_sizes > 0
        y = np.unique(ds.labels, return_inverse=True)[1]
        for i, (node, seed) in enumerate(zip(nodes, seeds)):
            oracle = SplitMix64(seed)
            node_rows = np.array(node, dtype=np.int64)
            if cfg.mode == "supervised":
                expect = reference_gain_split(XT, node_rows, y, oracle, is_cat, y.max() + 1,
                                              cfg.min_node_size)
            else:
                expect = reference_random_split(XT, node_rows, oracle, is_cat, cfg.min_node_size)
            assert int(states[i]) == oracle.state
            assert (None if attr[i] < 0 else (int(attr[i]), float(param[i]))) == expect
            rng = SplitMix64(seed)
            if cfg.mode == "supervised":
                alone = build_supervised_node(ds.X, node, ds.labels, rng, ds.schema,
                                              cfg.min_node_size)
            else:
                alone = build_unsupervised_node(ds.X, node, rng, ds.schema, cfg.min_node_size)
            assert int(states[i]) == rng.state
            assert drawing[i] or rng.state == seed
            col = ds.X[node, max(attr[i], 0)]
            mask = goes_true[offsets[i]:offsets[i + 1]]
            if alone is None:
                assert attr[i] == -1 and param[i] == 0.0 and not mask.any()
                continue
            assert (int(attr[i]), float(param[i])) == alone
            on = col == param[i] if ds.schema.category_sizes[attr[i]] > 0 else col >= param[i]
            assert mask.tolist() == on.tolist()
            assert 0 < mask.sum() < len(node)

    def test_exact_scan_after_rejection_misses(self):
        # one varying attribute in 40: most nodes miss all 16 rejection draws
        rng = np.random.default_rng(2)
        X = np.zeros((30, 40))
        X[:, 17] = rng.normal(size=30)
        ds = Dataset(Schema.numeric([f"a{j}" for j in range(40)]), X)
        split = _splitter(ds, TrainConfig(mode="unsupervised", n_trees=1))
        rows = np.tile(np.arange(30), 50)
        states = np.arange(50, dtype=np.uint64) * np.uint64(7919)
        attr, param, _ = split(rows, np.arange(51) * 30, states)
        assert (attr == 17).all()
        for i in range(50):
            oracle = SplitMix64(i * 7919)
            assert reference_random_split(ds.X.T, np.arange(30), oracle, np.zeros(40, bool), 2) == (
                17, param[i])
            assert oracle.state == int(states[i])

    def test_large_nodes_split_over_several_kernel_calls(self, monkeypatch):
        ds = random_mixed(5, n=300, d=8)
        for mode in ("supervised", "unsupervised"):
            cfg = TrainConfig(mode=mode, n_trees=6, seed=3)
            whole = tree_arrays(train_forest(ds, cfg).trees)
            with monkeypatch.context() as patch:
                patch.setattr(training, "_STEP_CELLS", 64)
                patch.setattr(training, "_GROUP_ROWS", 700)
                forest, kernel = recorded_training(ds, cfg)
                assert tree_arrays(forest.trees) == whole
                # a call gathers at most the budget and its last node's
                # values, the bound the 64-bit key guard rests on
                assert len(kernel.calls) > 1
                assert max(kernel.calls) * kernel.width <= 64 + ds.n * kernel.width
        # a rank stride past 2**31 makes every key need 64 bits; ranks sort
        # as before, so int64 keys grow the trees int32 ones do, whole or in
        # parts
        cfg = TrainConfig(mode="supervised", n_trees=6, seed=3)
        whole = tree_arrays(train_forest(ds, cfg).trees)

        def wide_keys(dataset, config):
            split = _splitter(dataset, config)
            assert split.row_keys.dtype == np.int32
            split.n_ranks = 2**31
            return split

        for budget in (training._STEP_CELLS, 64):
            with monkeypatch.context() as patch:
                patch.setattr(training, "_splitter", wide_keys)
                patch.setattr(training, "_STEP_CELLS", budget)
                assert tree_arrays(train_forest(ds, cfg).trees) == whole

    def test_split_keys_beyond_64_bits_are_refused(self, monkeypatch):
        ds = dataset_numeric(seed=2, n=12, d=4)
        split = _splitter(ds, TrainConfig(mode="supervised", n_trees=1))
        # every key of a call is below (budget + n * sample) * R * C
        per_budget = split.n_ranks * split.n_classes
        largest = (2**63 - 1) // per_budget - ds.n * split.sample
        cfg = TrainConfig(mode="supervised", n_trees=2)
        whole = tree_arrays(train_forest(ds, cfg).trees)
        with monkeypatch.context() as patch:
            patch.setattr(training, "_STEP_CELLS", largest)
            assert tree_arrays(train_forest(ds, cfg).trees) == whole
            patch.setattr(training, "_STEP_CELLS", largest + 1)
            with pytest.raises(FormatError, match="too many distinct values and classes"):
                train_forest(ds, cfg)

    def test_threads_start_no_more_workers_than_trees(self, monkeypatch):
        started = []

        class RecordingPool:
            """Records max_workers and runs the work in this process."""

            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        ds = dataset_numeric(seed=1)
        serial = tree_arrays(train_forest(ds, TrainConfig(mode="unsupervised", n_trees=2)).trees)
        cfg = TrainConfig(mode="unsupervised", n_trees=2, threads=5000)
        assert tree_arrays(train_forest(ds, cfg).trees) == serial
        assert started == [2]
        train_forest(ds, TrainConfig(mode="supervised", n_trees=7, threads=3))
        assert started == [2, 3]
        # nor more than the CPUs the process may run on, or, where it cannot
        # ask that, the machine's CPUs
        many = TrainConfig(mode="unsupervised", n_trees=9, threads=5000)
        serial = tree_arrays(train_forest(ds, TrainConfig(mode="unsupervised", n_trees=9)).trees)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert tree_arrays(train_forest(ds, many).trees) == serial
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert tree_arrays(train_forest(ds, many).trees) == serial
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert tree_arrays(train_forest(ds, many).trees) == serial
        assert started == [2, 3, 3, 4]

    @pytest.mark.parametrize("n_trees, threads", [(7, 3), (3, 5)])
    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_uneven_thread_blocks_change_nothing(self, mode, n_trees, threads, monkeypatch):
        monkeypatch.setattr(training, "_usable_cpus", lambda: 64)
        ds = random_mixed(9, n=80, d=5)
        serial = train_forest(ds, TrainConfig(mode=mode, n_trees=n_trees, seed=4))
        parallel = train_forest(ds, TrainConfig(mode=mode, n_trees=n_trees, seed=4,
                                                threads=threads))
        assert tree_arrays(parallel.trees) == tree_arrays(serial.trees)

    def test_workers_grow_lockstep_groups_of_compact_arrays(self, monkeypatch):
        # the trees are cut into groups once, by rows and into at least one
        # group per worker; each group comes back as arrays of its trees'
        # own lengths, not views that keep the padded group buffers alive
        mapped = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                mapped.extend(items)
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(training, "_usable_cpus", lambda: 64)
        ds = dataset_numeric(seed=1, n=50)
        serial = tree_arrays(train_forest(ds, TrainConfig(mode="unsupervised", n_trees=9)).trees)
        cfg = TrainConfig(mode="unsupervised", n_trees=9, threads=2)
        with monkeypatch.context() as patch:
            patch.setattr(training, "_GROUP_ROWS", 120)  # groups of 150, 100, 150 and 50 rows
            assert tree_arrays(train_forest(ds, cfg).trees) == serial
        assert mapped == [range(0, 3), range(3, 5), range(5, 8), range(8, 9)]
        mapped.clear()
        train_forest(ds, TrainConfig(mode="unsupervised", n_trees=9, threads=4))
        assert mapped == [range(a, a + 2) for a in (0, 2, 4, 6)] + [range(8, 9)]
        grown = _grow(_splitter(ds, cfg), ds.n, cfg, range(3))
        for attr, param in grown:
            assert attr.base is None and param.base is None
        assert [(a.tolist(), p.tolist()) for a, p in grown] == serial[:3]


class TestSplitMemory:
    @staticmethod
    def call_peak(n, n_classes, node_rows=40, d=100):
        """The traced peak of one supervised ``_split_ranges`` call on dense
        data whose every column holds n distinct values, with its nodes of
        ``node_rows`` rows filling the budget, in units of budget × 8 B."""
        rng = np.random.default_rng(n + n_classes)
        X = rng.random((n, d)).argsort(axis=0).astype(float)
        labels = rng.permutation(np.arange(n) % n_classes)
        ds = Dataset(Schema.numeric([f"a{j}" for j in range(d)]), X, labels=labels)
        split = _splitter(ds, TrainConfig(mode="supervised", n_trees=1))
        m = training._STEP_CELLS // (node_rows * split.width)
        rows = rng.integers(0, n, m * node_rows)
        lo = np.arange(m) * node_rows
        states = np.arange(m, dtype=np.uint64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            attr, _, _ = _split_ranges(split, rows, states, np.arange(m), lo, lo + node_rows)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (attr >= 0).all()
        return peak / (training._STEP_CELLS * 8)

    def test_a_call_holds_a_fixed_multiple_of_the_budget(self):
        # every run holds one value, so a call's runs number about the budget;
        # their class counts alone would take C budgets at once
        peaks = [self.call_peak(n, c) for n, c in [(1000, 20), (1000, 50), (4000, 50)]]
        assert max(peaks) <= 12
        assert max(peaks) <= 1.25 * min(peaks)
