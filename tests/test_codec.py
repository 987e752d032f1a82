"""Encoding and decoding: mask handling, region extraction, representative
reconstruction on both code paths, and every mismatch error."""

import re
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eforest import codec
from eforest.codec import (
    EncodingMatrix,
    TreeMask,
    decode_batch,
    decode_masks,
    decode_region,
    encode_batch,
)
from eforest.data import Bounds, Categorical, Dataset, Numeric, Schema
from eforest.errors import ConfigError, EmptyMCRError, FormatError, ModelMismatchError
from eforest.forest import Forest
from eforest.persistence import forest_hex_id
from eforest.rules import Interval, contains
from eforest.training import TrainConfig, train_forest

from synthdata import decode, mnist_like, random_mixed, tree_from_path, walk_codes

NUM1 = Schema.numeric(["x"])


def numeric_dataset(seed=0, n=80, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 2, (n, d)).round(2)
    return Dataset(
        Schema.numeric([f"v{j}" for j in range(d)]),
        X,
        labels=rng.integers(0, 3, n),
    )


def single_path_forest(steps, schema, bounds):
    """Forest of one chain tree plus the encoding that selects the path end."""
    tree, end = tree_from_path(steps, schema)
    forest = Forest((tree,), schema, bounds, "unsupervised", 0)
    return forest, np.array([end])


class TestTreeMask:
    def test_sorted_unique(self):
        m = TreeMask((4, 1, 2))
        assert m.keep == (1, 2, 4)
        assert len(m) == 3

    def test_reads_a_one_shot_iterable_once(self):
        assert TreeMask(i for i in (4, 1, 2)).keep == (1, 2, 4)
        assert TreeMask([4, 1, 2]).keep == (1, 2, 4)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError, match="a tree mask must keep at least one tree"):
            TreeMask(())
        with pytest.raises(ConfigError, match="a tree mask must keep at least one tree"):
            TreeMask(i for i in ())

    def test_rejects_negative(self):
        with pytest.raises(ConfigError, match="tree indexes must be >= 0"):
            TreeMask((0, -1))

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="tree mask holds duplicate indexes"):
            TreeMask((1, 1))
        with pytest.raises(ConfigError, match="tree mask holds duplicate indexes"):
            TreeMask(i for i in (1, 1))

    @pytest.mark.parametrize(
        "keep",
        [(2.9, 0), (True, 2), ("2",), (np.float64(1.0),), (np.bool_(True),)],
        ids=["float", "bool", "string", "numpy-float", "numpy-bool"],
    )
    def test_rejects_non_integer_indexes(self, keep):
        with pytest.raises(ConfigError, match="integers"):
            TreeMask(keep)

    def test_from_fraction_counts(self):
        assert len(TreeMask.from_fraction(100, 1.0, 0)) == 100
        assert len(TreeMask.from_fraction(100, 0.25, 0)) == 25
        assert len(TreeMask.from_fraction(10, 0.21, 0)) == 3
        # products a hair above an integer in floats keep that integer
        assert len(TreeMask.from_fraction(100, 0.07, 0)) == 7
        assert len(TreeMask.from_fraction(50, 0.14, 0)) == 7
        assert len(TreeMask.from_fraction(100, 0.55, 0)) == 55

    def test_from_fraction_bounds(self):
        with pytest.raises(ConfigError):
            TreeMask.from_fraction(100, 0.0, 0)
        with pytest.raises(ConfigError):
            TreeMask.from_fraction(100, 1.1, 0)
        with pytest.raises(ConfigError):
            TreeMask.from_fraction(100, 0.001, 0)
        for seed in (True, 1.5, "2", None):
            with pytest.raises(ConfigError, match="mask seed must be an integer"):
                TreeMask.from_fraction(10, 0.5, seed)

    def test_from_fraction_takes_a_numpy_seed(self):
        assert TreeMask.from_fraction(10, 0.5, np.int64(2)) == TreeMask.from_fraction(10, 0.5, 2)

    def test_same_seed_masks_nest(self):
        small = set(TreeMask.from_fraction(60, 0.2, 9).keep)
        mid = set(TreeMask.from_fraction(60, 0.5, 9).keep)
        full = set(TreeMask.from_fraction(60, 1.0, 9).keep)
        assert small < mid < full
        assert full == set(range(60))

    def test_different_seeds_differ(self):
        a = TreeMask.from_fraction(60, 0.3, 1).keep
        b = TreeMask.from_fraction(60, 0.3, 2).keep
        assert a != b


class TestEncodingMatrix:
    def test_shape_properties(self):
        m = EncodingMatrix(np.zeros((3, 5), dtype=np.int32), "ab" * 8)
        assert m.n == 3 and m.T == 5

    def test_rejects_non_2d(self):
        for leaf_ids in (np.zeros(3, dtype=np.int32), np.zeros((1, 2, 3), dtype=np.int32)):
            with pytest.raises(FormatError, match="leaf_ids must be a 2-d array, got [13]-d"):
                EncodingMatrix(leaf_ids, "ab" * 8)

    @pytest.mark.parametrize(
        "forest_id",
        ["not-a-model-id", 12345, "AB" * 8, "ab" * 7, "ab" * 9, "ab" * 8 + "\n", b"ab" * 8],
        ids=["text", "int", "upper-case", "short", "long", "newline", "bytes"],
    )
    def test_refuses_a_forest_id_the_file_cannot_hold(self, forest_id):
        # save_encodings would write a header that load_encodings refuses
        with pytest.raises(FormatError,
                           match=f"^forest id must be 16 lowercase hex digits, got "
                                 f"{re.escape(repr(forest_id))}$"):
            EncodingMatrix(np.zeros((2, 3), np.int32), forest_id)

    @pytest.mark.parametrize(
        "leaf_ids",
        [[[2**32 + 1, 0]], [[-(2**31) - 1, 0]], [[0.9, 1.7]], [[0.0, 1.0]], [[True, False]]],
        ids=["beyond-int32", "below-int32", "fractional", "integral-floats", "bools"],
    )
    def test_refuses_ordinals_a_cast_would_change(self, leaf_ids):
        # an unsafe cast would turn these into other, valid-looking ordinals
        with pytest.raises(ModelMismatchError,
                           match="^leaf ordinals (must be integers|beyond int32)"):
            EncodingMatrix(np.array(leaf_ids), "ab" * 8)

    def test_keeps_integer_ordinals(self):
        for dtype in (np.int64, np.uint8, "<i4"):
            m = EncodingMatrix(np.array([[3, 0]], dtype=dtype), "ab" * 8)
            assert m.leaf_ids.dtype == np.int32 and m.leaf_ids.tolist() == [[3, 0]]


class TestEncodeBatch:
    def test_columns_match_scalar_encode(self):
        ds = random_mixed(41)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=5, seed=1))
        matrix = encode_batch(forest, ds)
        assert matrix.n == ds.n and matrix.T == 5
        for i in range(ds.n):
            assert matrix.leaf_ids[i].tolist() == walk_codes(forest, ds.X[i]).tolist()

    def test_strict_schema_equality(self):
        ds = numeric_dataset()
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=2, seed=0))
        renamed = Dataset(
            Schema.numeric([f"w{j}" for j in range(ds.d)]), ds.X
        )
        with pytest.raises(ModelMismatchError,
                           match="dataset schema differs from the model schema"):
            encode_batch(forest, renamed)
        # the same data under reuse is fine: kinds line up positionally
        assert encode_batch(forest, renamed, reuse=True).n == ds.n

    def test_reuse_requires_same_width(self):
        ds = numeric_dataset(d=4)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=2, seed=0))
        narrow = Dataset(Schema.numeric(["a", "b"]), np.zeros((3, 2)))
        with pytest.raises(ModelMismatchError, match="model expects d=4, data has d=2"):
            encode_batch(forest, narrow, reuse=True)

    def test_reuse_requires_matching_kinds(self):
        schema = Schema(("a", "c"), (Numeric(), Categorical(("x", "y"))))
        ds = Dataset(schema, np.array([[0.0, 0], [1.0, 1], [2.0, 0], [3.0, 1]]))
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=2, seed=0))
        flipped = Dataset(
            Schema(("a", "c"), (Categorical(("x", "y")), Numeric())),
            np.array([[0.0, 5.0]]),
        )
        with pytest.raises(ModelMismatchError, match="attribute 0: model kind .* vs data kind "):
            encode_batch(forest, flipped, reuse=True)

    def test_reuse_requires_same_category_count(self):
        schema = Schema(("c",), (Categorical(("x", "y")),))
        ds = Dataset(schema, np.array([[0.0], [1.0]]))
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=1, seed=0))
        wider = Dataset(
            Schema(("c",), (Categorical(("x", "y", "z")),)), np.array([[2.0]])
        )
        with pytest.raises(ModelMismatchError, match="attribute 0: model has 2 categories, data 3"):
            encode_batch(forest, wider, reuse=True)


# decode_region reprs of random_mixed(50, n=60, d=4) (two numeric, two
# categorical attributes) under 4-tree forests of seed 7: rows 0-2 and row 0
# under the mask (1, 3), recorded when Interval was a frozen dataclass
REGION_REPRS = {
    "supervised": (
        "{0: [5.5, 6.5), 1: [15.779089137931255, 25.30585979495902), 2: {0}, 3: {0, 2, 3}}",
        "{0: [5.5, 6.5), 1: [15.779089137931255, 25.30585979495902), 2: {0}, 3: {1}}",
        "{0: [3.5, 4.5), 1: [-46.84804610942733, -44.31066390630056), 2: {0}, 3: {0}}",
        "{0: [3.5, 6.5), 1: [15.779089137931255, 25.30585979495902), 2: {0, 1}, 3: {0, 1, 2, 3}}",
    ),
    "unsupervised": (
        "{0: [4.4453065638203295, 7.0], 1: [20.432993458798826, 35.397225388265014), 2: {0}, 3: {3}}",
        "{0: [5.502341777594114, 6.000221886331927), 1: [16.870283931288007, 18.519342760544312), 2: {0}, 3: {1}}",
        "{0: [3.006010246146285, 4.35456168648697), 1: [-49.641857562432115, -42.480339405904104), 2: {0}, 3: {0}}",
        "{0: [4.4453065638203295, 7.0], 1: [20.432993458798826, 38.22414968026638), 2: {0}, 3: {3}}",
    ),
}


class TestDecodeRegion:
    @pytest.mark.parametrize("mode", sorted(REGION_REPRS))
    def test_region_reprs_are_unchanged(self, mode):
        ds = random_mixed(50, n=60, d=4)
        forest = train_forest(ds, TrainConfig(mode=mode, n_trees=4, seed=7))
        regions = [decode_region(forest, walk_codes(forest, x)) for x in ds.X[:3]]
        regions.append(decode_region(forest, walk_codes(forest, ds.X[0]), mask=TreeMask((1, 3))))
        assert tuple(map(repr, regions)) == REGION_REPRS[mode]

    def test_instance_lies_in_own_region(self):
        ds = random_mixed(43)
        for mode in ("supervised", "unsupervised"):
            forest = train_forest(ds, TrainConfig(mode=mode, n_trees=7, seed=2))
            for x in ds.X[:25]:
                region = decode_region(forest, walk_codes(forest, x))
                assert contains(region, x)

    def test_region_is_complete(self):
        ds = random_mixed(44)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=3, seed=0))
        region = decode_region(forest, walk_codes(forest, ds.X[0]))
        assert sorted(region.keys()) == list(range(ds.d))

    def test_masked_region_is_wider(self):
        ds = numeric_dataset(seed=5)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=10, seed=3))
        enc = walk_codes(forest, ds.X[0])
        full = decode_region(forest, enc)
        part = decode_region(forest, enc, mask=TreeMask((0, 1, 2)))
        for j in range(ds.d):
            assert part[j].lo <= full[j].lo
            assert part[j].hi >= full[j].hi

    def test_mask_out_of_range(self):
        ds = numeric_dataset()
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=3, seed=0))
        with pytest.raises(ConfigError):
            decode_region(forest, walk_codes(forest, ds.X[0]), mask=TreeMask((3,)))

    def test_bad_encoding_shape(self):
        ds = numeric_dataset()
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=3, seed=0))
        with pytest.raises(ModelMismatchError,
                           match=r"encoding rows have shape \(2,\), forest has 3 trees"):
            decode_region(forest, np.array([0, 0]))

    def test_float_ordinals_are_refused(self):
        ds = numeric_dataset()
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=3, seed=0))
        enc = walk_codes(forest, ds.X[0])
        with pytest.raises(ModelMismatchError,
                           match="leaf ordinals must be integers, got dtype float64"):
            decode_region(forest, enc + 0.5)
        with pytest.raises(ModelMismatchError,
                           match="leaf ordinals must be integers, got dtype float64"):
            decode_region(forest, enc.astype(float))

    def test_bad_leaf_ordinal(self):
        ds = numeric_dataset()
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=3, seed=0))
        enc = walk_codes(forest, ds.X[0]).copy()
        enc[1] = forest.trees[1].leaf_count
        with pytest.raises(ModelMismatchError, match=r"tree 1: leaf ordinal \d+ out of range"):
            decode_region(forest, enc)

    def test_disjoint_paths_are_empty(self):
        bounds = Bounds(np.zeros(1), np.full(1, 10.0))
        above, e_above = tree_from_path([((0, 5.0), True)], NUM1)
        below, e_below = tree_from_path([((0, 5.0), False)], NUM1)
        forest = Forest((above, below), NUM1, bounds, "unsupervised", 0)
        with pytest.raises(EmptyMCRError, match="do not overlap"):
            decode_region(forest, np.array([e_above, e_below]))


class TestDecode:
    def test_decoded_point_satisfies_region(self):
        ds = random_mixed(47)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=6, seed=4))
        for strategy in ("min", "mean", "max"):
            for x in ds.X[:15]:
                enc = walk_codes(forest, x)
                region = decode_region(forest, enc)
                assert contains(region, decode(forest, enc, strategy))

    def test_median_of_bounds_alias(self):
        ds = numeric_dataset()
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=4, seed=1))
        enc = walk_codes(forest, ds.X[3])
        alias = decode(forest, enc, "median-of-bounds")
        assert alias.tolist() == decode(forest, enc, "mean").tolist()

    def test_out_of_bounds_lower_end_is_preserved(self):
        # a finite path threshold below the data range survives decoding;
        # only infinite ends clamp to the training bounds
        bounds = Bounds(np.zeros(1), np.full(1, 10.0))
        forest, enc = single_path_forest(
            [((0, -5.0), True)], NUM1, bounds
        )
        region = decode_region(forest, enc)
        assert region[0] == Interval(-5.0, 10.0)
        assert decode(forest, enc, "min")[0] == -5.0

    def test_out_of_bounds_upper_end_is_preserved(self):
        bounds = Bounds(np.zeros(1), np.full(1, 10.0))
        forest, enc = single_path_forest(
            [((0, 15.0), False)], NUM1, bounds
        )
        region = decode_region(forest, enc)
        assert region[0] == Interval(0.0, 15.0, lo_closed=True, hi_closed=False)
        assert decode(forest, enc, "min")[0] == 0.0
        assert decode(forest, enc, "max")[0] == 15.0 - 1e-9 * 15.0

    def test_unreachable_path_collapses(self):
        # a path claiming x >= 15 cannot meet bounds clamped at 10
        bounds = Bounds(np.zeros(1), np.full(1, 10.0))
        forest, enc = single_path_forest(
            [((0, 15.0), True)], NUM1, bounds
        )
        with pytest.raises(EmptyMCRError):
            decode(forest, enc, "min")


class TestDecodeBatch:
    @pytest.mark.parametrize("strategy", ["min", "mean", "max"])
    def test_numeric_fast_path_matches_scalar(self, strategy):
        ds = numeric_dataset(seed=11, n=60)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=8, seed=5))
        matrix = encode_batch(forest, ds)
        batch = decode_batch(forest, matrix, strategy)
        for i in range(ds.n):
            row = decode(forest, matrix.leaf_ids[i], strategy)
            assert batch.X[i].tobytes() == row.tobytes()

    @pytest.mark.parametrize("strategy", ["min", "mean", "max"])
    def test_fast_path_matches_scalar_out_of_bounds(self, strategy):
        # hand-built trees whose thresholds fall outside the training bounds
        bounds = Bounds(np.zeros(2), np.full(2, 10.0))
        schema = Schema.numeric(["x", "y"])
        t1, e1 = tree_from_path(
            [((0, -5.0), True), ((1, 20.0), False)],
            schema,
        )
        t2, e2 = tree_from_path(
            [((1, -3.0), True), ((0, 4.0), True)],
            schema,
        )
        forest = Forest((t1, t2), schema, bounds, "unsupervised", 0)
        matrix = EncodingMatrix(
            np.array([[e1, e2]], dtype=np.int32), forest_hex_id(forest)
        )
        batch = decode_batch(forest, matrix, strategy)
        row = decode(forest, matrix.leaf_ids[0], strategy)
        assert batch.X[0].tobytes() == row.tobytes()

    def test_masked_batch_matches_masked_scalar(self):
        ds = numeric_dataset(seed=13)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=9, seed=6))
        matrix = encode_batch(forest, ds)
        mask = TreeMask.from_fraction(9, 0.5, 3)
        batch = decode_batch(forest, matrix, "min", mask=mask)
        for i in range(0, ds.n, 11):
            row = decode(forest, matrix.leaf_ids[i], "min", mask=mask)
            assert batch.X[i].tolist() == row.tolist()

    def test_mixed_schema_route(self):
        ds = random_mixed(49, d=8)
        assert not ds.schema.all_numeric
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=5, seed=7))
        matrix = encode_batch(forest, ds)
        for mask in (None, TreeMask.from_fraction(5, 0.4, 2)):
            for strategy in ("min", "mean", "max"):
                batch = decode_batch(forest, matrix, strategy, mask=mask)
                assert batch.n == ds.n
                for i in range(ds.n):
                    row = decode(forest, matrix.leaf_ids[i], strategy, mask=mask)
                    assert batch.X[i].tobytes() == row.tobytes()

    def test_batch_empty_region_raises(self):
        bounds = Bounds(np.zeros(1), np.full(1, 10.0))
        above, e_above = tree_from_path([((0, 5.0), True)], NUM1)
        below, e_below = tree_from_path([((0, 5.0), False)], NUM1)
        forest = Forest((above, below), NUM1, bounds, "unsupervised", 0)
        matrix = EncodingMatrix(
            np.array([[e_above, e_below]], dtype=np.int32), forest_hex_id(forest)
        )
        with pytest.raises(EmptyMCRError):
            decode_batch(forest, matrix, "min")

    def test_batch_empty_category_set_raises(self):
        # one tree demands color == green, the other refuses green
        schema = Schema(("x", "color"), (Numeric(), Categorical(("red", "green"))))
        bounds = Bounds(np.zeros(2), np.array([10.0, 1.0]))
        green, e_green = tree_from_path([((1, 1), True)], schema)
        other, e_other = tree_from_path([((1, 1), False)], schema)
        forest = Forest((green, other), schema, bounds, "unsupervised", 0)
        matrix = EncodingMatrix(
            np.array([[e_green, e_other]], dtype=np.int32), forest_hex_id(forest)
        )
        with pytest.raises(EmptyMCRError):
            decode_region(forest, matrix.leaf_ids[0])
        with pytest.raises(EmptyMCRError):
            decode_batch(forest, matrix, "min")
        # each tree alone leaves a non-empty set
        assert decode_batch(forest, matrix, mask=TreeMask((0,))).X[0, 1] == 1.0
        assert decode_batch(forest, matrix, mask=TreeMask((1,))).X[0, 1] == 0.0

    def test_model_mismatch(self):
        ds = numeric_dataset(seed=17)
        a = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=3, seed=1))
        b = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=3, seed=2))
        matrix = encode_batch(forest=a, dataset=ds)
        with pytest.raises(ModelMismatchError, match="encodings were produced by model "):
            decode_batch(b, matrix)

    def test_wrong_column_count(self):
        ds = numeric_dataset(seed=19)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=3, seed=1))
        bad = EncodingMatrix(
            np.zeros((2, 2), dtype=np.int32), forest_hex_id(forest)
        )
        with pytest.raises(ModelMismatchError,
                           match=r"encoding rows have shape \(2,\), forest has 3 trees"):
            decode_batch(forest, bad)

    def test_out_of_range_ordinal(self):
        ds = numeric_dataset(seed=23)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=3, seed=1))
        matrix = encode_batch(forest, ds)
        # a negative ordinal would silently wrap in the walk's leaf-node gather
        for ordinal in (forest.trees[0].leaf_count, -1):
            bad_ids = matrix.leaf_ids.copy()
            bad_ids[0, 0] = ordinal
            bad = EncodingMatrix(bad_ids, matrix.forest_id)
            with pytest.raises(ModelMismatchError,
                               match=f"tree 0: leaf ordinal {ordinal} out of range"):
                decode_batch(forest, bad)

    def test_empty_matrix(self):
        # a mixed schema too: its banned mask has no rows but some columns
        for ds in (numeric_dataset(seed=29), random_mixed(53)):
            forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=3, seed=1))
            empty = EncodingMatrix(np.zeros((0, 3), dtype=np.int32), forest_hex_id(forest))
            for strategy in ("min", "mean", "max"):
                outs = decode_masks(forest, empty, [TreeMask((0,)), None], strategy)
                assert [(out.n, out.d) for out in outs] == [(0, ds.d), (0, ds.d)]

    def test_decoded_categories_are_valid(self):
        ds = random_mixed(53)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=4, seed=8))
        out = decode_batch(forest, encode_batch(forest, ds), "min")
        # Dataset construction validates category ranges; spot-check one column
        for j in range(ds.d):
            if ds.schema.category_sizes[j] > 0:
                col = out.X[:, j]
                assert (col == np.floor(col)).all()


@contextmanager
def trees_per_walk(trees: int, n: int):
    """Make every walk over an ``n``-row batch hold ``trees`` trees at once."""
    with mock.patch.object(codec, "_STEP_PAIRS", trees * max(n, 1)):
        yield


def decode_or_empty(call):
    """The reconstruction ``call`` returns, or None if its region is empty."""
    try:
        return call()
    except EmptyMCRError:
        return None


class TestGroupWalk:
    """Encode and decode walk a group of trees at once; neither the result nor
    an empty region may depend on how many trees a walk holds."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["supervised", "unsupervised"]),
        n_trees=st.integers(1, 6),
        per_walk=st.sampled_from(["one", "few", "all"]),
        strategy=st.sampled_from(["min", "mean", "max"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_row_oracles(self, seed, mode, n_trees, per_walk, strategy):
        ds = random_mixed(seed)
        forest = train_forest(ds, TrainConfig(mode=mode, n_trees=n_trees, seed=seed % 97))
        trees = {"one": 1, "few": 2, "all": n_trees}[per_walk]
        with trees_per_walk(trees, ds.n):
            matrix = encode_batch(forest, ds)
        for i in range(ds.n):
            assert matrix.leaf_ids[i].tolist() == walk_codes(forest, ds.X[i]).tolist()

        # random encodings mix leaves whose paths contradict each other
        rng = np.random.default_rng(seed)
        drawn = np.column_stack([rng.integers(0, t.leaf_count, 12) for t in forest.trees])
        leaf_ids = np.concatenate([matrix.leaf_ids, drawn]).astype(np.int32)
        rows = [decode_or_empty(lambda: decode(forest, ids, strategy)) for ids in leaf_ids]
        kept = [i for i, row in enumerate(rows) if row is not None]

        def batch(ids):
            with trees_per_walk(trees, len(ids)):
                return decode_or_empty(lambda: decode_batch(
                    forest, EncodingMatrix(ids, matrix.forest_id), strategy).X)

        assert (batch(leaf_ids) is None) == (len(kept) < len(rows))
        assert batch(leaf_ids[kept]).tobytes() == np.array([rows[i] for i in kept]).tobytes()
        for i in range(ds.n, len(leaf_ids)):
            assert (batch(leaf_ids[i:i + 1]) is None) == (rows[i] is None)

    @given(
        paths=st.lists(
            st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans()),
                     min_size=1, max_size=3, unique_by=lambda step: step[0]),
            min_size=1, max_size=6),
        per_walk=st.sampled_from([1, 2, 6]),
    )
    @settings(max_examples=100, deadline=None)
    def test_chain_trees_match_the_oracle(self, paths, per_walk):
        # chain trees over one numeric and two categorical attributes, each
        # testing an attribute at most once on the path: their path ends stack
        # ==, != and threshold tests that may contradict across trees
        schema = Schema(("x", "c", "e"), (Numeric(), Categorical(("p", "q", "r")),
                                          Categorical(("s", "t", "u"))))
        bounds = Bounds(np.zeros(3), np.array([3.0, 2.0, 2.0]))
        # thresholds 0.5, 1.5 and 2.5 lie inside x's bounds
        built = [tree_from_path([((a, v + 0.5 * (a == 0)), b) for a, v, b in path], schema)
                 for path in paths]
        forest = Forest([t for t, _ in built], schema, bounds, "unsupervised", 0)
        ids = np.array([[end for _, end in built]], dtype=np.int32)
        oracle = decode_or_empty(lambda: decode(forest, ids[0]))
        with trees_per_walk(per_walk, 1):
            got = decode_or_empty(lambda: decode_batch(
                forest, EncodingMatrix(ids, forest_hex_id(forest))).X[0])
        assert (got is None) == (oracle is None)
        if oracle is not None:
            assert got.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("trees", [1, 2, 4])
    def test_category_equalities(self, trees):
        # x[1] == red and x[1] == blue leave nothing; == blue twice keeps blue,
        # unless a third tree refuses blue
        schema = Schema(("x", "color"), (Numeric(), Categorical(("red", "green", "blue"))))
        bounds = Bounds(np.zeros(2), np.array([10.0, 2.0]))
        red, e_red = tree_from_path([((1, 0), True)], schema)
        blue, e_blue = tree_from_path([((0, 3.0), True), ((1, 2), True)], schema)
        blue_too, e_blue_too = tree_from_path([((1, 2), True), ((0, 4.0), False)], schema)
        not_blue, e_not_blue = tree_from_path([((1, 2), False)], schema)
        forest = Forest((red, blue, blue_too, not_blue), schema, bounds, "unsupervised", 0)
        ids = np.array([[e_red, e_blue, e_blue_too, e_not_blue]], dtype=np.int32)
        matrix = EncodingMatrix(ids, forest_hex_id(forest))
        cases = [((0, 1), None), ((1, 2), [3.0, 2.0]), ((1, 2, 3), None), ((0, 3), [0.0, 0.0])]
        with trees_per_walk(trees, 1):
            for keep, want in cases:
                mask = TreeMask(keep)
                got = decode_or_empty(lambda: decode_batch(forest, matrix, mask=mask).X[0])
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.tolist() == want
                oracle = decode_or_empty(lambda: decode(forest, ids[0], mask=mask))
                assert (oracle is None) == (want is None)


# numeric attributes around adjacent categorical ones of sizes 1, 2 and 5, so
# that each categorical attribute's first column of the banned mask differs
SIZED = Schema(
    ("x", "one", "two", "five", "y"),
    (Numeric(), Categorical(("a",)), Categorical(("b", "c")),
     Categorical(tuple("defgh")), Numeric()),
)
SIZED_BOUNDS = Bounds(np.zeros(5), np.array([3.0, 0.0, 1.0, 4.0, 3.0]))


def sized_dataset(seed: int, n: int = 150) -> Dataset:
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.integers(0, 4, n), np.zeros(n), rng.integers(0, 2, n),
                         rng.integers(0, 5, n), rng.normal(0, 2, n).round(1)])
    return Dataset(SIZED, X, labels=rng.integers(0, 3, n))


class TestRegionState:
    """Categorical tests share the numeric ends and add one banned mask whose
    columns hold every categorical attribute's values in turn."""

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_sized_categories_match_the_oracle(self, mode):
        ds = sized_dataset(5)
        forest = train_forest(ds, TrainConfig(mode=mode, n_trees=6, seed=4))
        matrix = encode_batch(forest, ds)
        rng = np.random.default_rng(6)
        drawn = np.column_stack([rng.integers(0, t.leaf_count, 60) for t in forest.trees])
        for ids in np.concatenate([matrix.leaf_ids, drawn]).astype(np.int32):
            for strategy in ("min", "max"):
                oracle = decode_or_empty(lambda: decode(forest, ids, strategy))
                got = decode_or_empty(lambda: decode_batch(
                    forest, EncodingMatrix(ids[None], matrix.forest_id), strategy).X[0])
                assert (got is None) == (oracle is None)
                if oracle is not None:
                    assert got.tobytes() == oracle.tobytes()

    @given(
        paths=st.lists(
            st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.booleans()),
                     min_size=1, max_size=4, unique_by=lambda step: step[0]),
            min_size=1, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_sized_chain_trees_match_the_oracle(self, paths):
        # every test names a value its attribute holds: a threshold v + 0.5
        # for x and y, a category below the attribute's size otherwise; no
        # tree refuses the only category of "one"
        sizes = SIZED.category_sizes
        steps = [[((a, v % sizes[a] if sizes[a] else v % 3 + 0.5), b or a == 1)
                  for a, v, b in path] for path in paths]
        built = [tree_from_path(path, SIZED) for path in steps]
        forest = Forest([t for t, _ in built], SIZED, SIZED_BOUNDS, "unsupervised", 0)
        ids = np.array([[end for _, end in built]], dtype=np.int32)
        oracle = decode_or_empty(lambda: decode(forest, ids[0]))
        got = decode_or_empty(lambda: decode_batch(
            forest, EncodingMatrix(ids, forest_hex_id(forest))).X[0])
        assert (got is None) == (oracle is None)
        if oracle is not None:
            assert got.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("seed", [7, 10, 53])
    def test_error_names_the_first_empty_row(self, seed):
        ds = random_mixed(seed)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=5, seed=2))
        rng = np.random.default_rng(seed)
        drawn = np.column_stack([rng.integers(0, t.leaf_count, 40) for t in forest.trees])
        leaf_ids = np.concatenate([encode_batch(forest, ds).leaf_ids[:5], drawn]).astype(np.int32)
        first = next(i for i, ids in enumerate(leaf_ids)
                     if decode_or_empty(lambda: decode(forest, ids)) is None)
        with pytest.raises(EmptyMCRError, match=f"^row {first}, attribute "):
            decode_batch(forest, EncodingMatrix(leaf_ids, forest_hex_id(forest)))


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWalkMemory:
    def test_peak_is_set_by_the_pair_budget(self):
        # with one tree per walk, 112 more trees cost encode only their output
        # columns and the decode fold next to nothing; walking all of them at
        # once would hold several int64 arrays of one entry per (row, tree)
        ds = numeric_dataset(seed=31, n=2000, d=4)
        big = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=128, seed=3))
        small = Forest([(t.attr, t.param) for t in big.trees[:16]], big.schema, big.bounds,
                       big.kind, big.seed)
        added_pairs = ds.n * (big.T - small.T)
        peaks = {}
        with trees_per_walk(1, ds.n):
            for forest in (small, big):
                matrix = encode_batch(forest, ds)
                peaks[forest.T] = (
                    traced_peak(lambda: encode_batch(forest, ds)),
                    traced_peak(lambda: next(decode_masks(forest, matrix, [None]))),
                )
        (enc_small, dec_small), (enc_big, dec_big) = peaks[small.T], peaks[big.T]
        # the int32 output grows by 4 bytes per added pair
        assert enc_big - enc_small < 4 * added_pairs + 200_000
        assert dec_big - dec_small < 200_000

    @pytest.mark.parametrize("strategy, outputs", [("min", 3.3), ("mean", 4.5), ("max", 4.5)],
                             ids=["min", "mean", "max"])
    def test_finish_holds_no_spare_copies(self, strategy, outputs):
        # the fold's state is two n x d float64 arrays and the finish adds the
        # clamped lower ends, which are the output, and a few n x d bool masks;
        # the empty test reads hi unclamped. "mean" and "max" add one n x d
        # array of picks: neither a clamped hi nor where() results
        train, test = mnist_like(300), mnist_like(3000, seed=1)
        forest = train_forest(train, TrainConfig(mode="unsupervised", n_trees=4, seed=0))
        matrix = encode_batch(forest, test)
        out = []
        peak = traced_peak(lambda: out.append(decode_batch(forest, matrix, strategy)))
        assert peak <= outputs * out[0].X.nbytes
