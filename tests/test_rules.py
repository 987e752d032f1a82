"""Rule algebra: interval/category intersection, path-predicate conversion,
region assembly, and representative picking on both code paths."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eforest.data import Bounds, Categorical, Numeric, Schema
from eforest.errors import ConfigError, EmptyMCRError
from eforest.rules import (
    EPS_INSET,
    CategorySet,
    Interval,
    calculate_mcr,
    contains,
    normalize_strategy,
    pick_in_interval,
    pick_interval_batch,
    predicate_to_constraint,
    representative,
    simplify,
)

INF = math.inf

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
)


def interval_strategy(lo_ends=finite_floats, hi_ends=finite_floats):
    def build(a, b, lo_closed, hi_closed):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            lo_closed = hi_closed = True
        return Interval(lo, hi, lo_closed, hi_closed)

    return st.builds(build, lo_ends, hi_ends, st.booleans(), st.booleans())


class TestInterval:
    def test_infinite_ends_forced_open(self):
        iv = Interval(-INF, INF, lo_closed=True, hi_closed=True)
        assert not iv.lo_closed and not iv.hi_closed

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_open_point(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0, lo_closed=True, hi_closed=False)

    def test_closed_point_allowed(self):
        iv = Interval(3.0, 3.0)
        assert iv.lo == iv.hi and iv.contains(3.0)

    def test_contains_respects_openness(self):
        iv = Interval(1.0, 2.0, lo_closed=False, hi_closed=True)
        assert not iv.contains(1.0)
        assert iv.contains(1.5)
        assert iv.contains(2.0)
        assert not iv.contains(2.5)

    def test_contains_refuses_nan(self):
        for iv in (Interval(0.0, 1.0), Interval(-INF, INF), Interval(0.5, 0.5)):
            assert not iv.contains(math.nan)

    def test_contains_infinite_values(self):
        assert not Interval(0.0, 1.0).contains(INF)
        assert not Interval(0.0, 1.0).contains(-INF)
        # infinite ends are open, so no interval holds an infinity
        assert not Interval(0.0, INF).contains(INF)
        assert not Interval(-INF, 0.0).contains(-INF)
        assert Interval(0.0, INF).contains(1e308)

    def test_repr_notation(self):
        assert repr(Interval(1.0, 2.0, True, False)) == "[1.0, 2.0)"

    def test_intersect_overlap(self):
        got = Interval(0.0, 5.0).intersect(Interval(3.0, 9.0))
        assert got == Interval(3.0, 5.0)

    def test_intersect_disjoint_is_none(self):
        assert Interval(0.0, 1.0).intersect(Interval(2.0, 3.0)) is None

    def test_touching_endpoints_need_both_closed(self):
        closed = Interval(0.0, 1.0, True, True)
        open_hi = Interval(-1.0, 0.0, True, False)
        assert open_hi.intersect(closed) is None
        closed_hi = Interval(-1.0, 0.0, True, True)
        assert closed_hi.intersect(closed) == Interval(0.0, 0.0)

    def test_equal_endpoint_openness_is_and(self):
        a = Interval(0.0, 5.0, lo_closed=True, hi_closed=False)
        b = Interval(0.0, 5.0, lo_closed=False, hi_closed=True)
        got = a.intersect(b)
        assert got == Interval(0.0, 5.0, lo_closed=False, hi_closed=False)

    @given(a=interval_strategy(), b=interval_strategy())
    @settings(max_examples=200, deadline=None)
    def test_intersect_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(a=interval_strategy(), b=interval_strategy(), v=finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_intersection_membership(self, a, b, v):
        both = a.contains(v) and b.contains(v)
        got = a.intersect(b)
        if both:
            assert got is not None and got.contains(v)
        elif got is not None:
            assert not (got.contains(v) and not both)


class TestCategorySet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CategorySet(frozenset())

    def test_contains_integers_only(self):
        cs = CategorySet(frozenset({0, 2}))
        assert cs.contains(2.0)
        assert not cs.contains(1.0)
        assert not cs.contains(2.5)

    def test_intersect(self):
        a = CategorySet(frozenset({0, 1, 2}))
        b = CategorySet(frozenset({2, 3}))
        assert a.intersect(b) == CategorySet(frozenset({2}))
        assert a.intersect(CategorySet(frozenset({3}))) is None

    def test_repr_sorted(self):
        assert repr(CategorySet(frozenset({2, 0}))) == "{0, 2}"

    def test_contains_equal_numbers(self):
        cs = CategorySet(frozenset({0, 1}))
        assert cs.contains(1.0) and cs.contains(True)
        assert cs.contains(-0.0) and cs.contains(np.float64(0.0))
        assert not cs.contains(0.5)

    def test_contains_refuses_nan_and_infinities(self):
        cs = CategorySet(frozenset({0, 1, 2}))
        for v in (math.nan, INF, -INF):
            assert not cs.contains(v)

    def test_rule_with_nan_row_contains_nothing(self):
        rule = {0: Interval(-INF, INF), 1: CategorySet(frozenset({0, 1}))}
        assert contains(rule, np.array([0.0, 1.0]))
        assert not contains(rule, np.array([math.nan, 1.0]))
        assert not contains(rule, np.array([0.0, math.nan]))


VALUES = (
    Interval(1.0, 2.0, lo_closed=True, hi_closed=False),
    Interval(-INF, 3.0, hi_closed=False),
    Interval(4.0, 4.0),
    CategorySet(frozenset({2, 0})),
)


class TestValueSemantics:
    """Intervals and category sets are immutable values: equal fields make
    equal, interchangeable objects."""

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_fields_cannot_be_assigned(self, value):
        name = "allowed" if isinstance(value, CategorySet) else "lo"
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1  # no instance dict either

    def test_hash_and_equality_by_value(self):
        assert Interval(1, 2) == Interval(1.0, 2.0)
        assert hash(Interval(1, 2)) == hash(Interval(1.0, 2.0))
        assert Interval(1.0, 2.0) != Interval(1.0, 2.0, hi_closed=False)
        assert CategorySet([1.0, 0]) == CategorySet(frozenset({0, 1}))
        assert len({Interval(0.0, 1.0), Interval(0.0, 1.0), CategorySet({1}), CategorySet({1})}) == 2
        assert Interval(-INF, 1.0) == Interval(-INF, 1.0, lo_closed=True)

    def test_a_bare_tuple_of_the_same_fields_compares_equal(self):
        # the values are tuples, so equality is tuple equality
        assert Interval(1.0, 2.0, True, False) == (1.0, 2.0, True, False)
        assert CategorySet({1}) == (frozenset({1}),)
        assert Interval(1.0, 2.0) != CategorySet({1})

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_copy_and_pickle_keep_type_and_value(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and repr(twin) == repr(value)

    def test_replace_validates(self):
        iv = Interval(0.0, 1.0)
        assert iv._replace(hi=5.0) == Interval(0.0, 5.0)
        with pytest.raises(ValueError):
            iv._replace(hi=-1.0)
        with pytest.raises(ValueError):
            CategorySet({1})._replace(allowed=frozenset())

    def test_construction_still_validates(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            Interval(0.0, math.nan)
        with pytest.raises(ValueError, match=r"empty interval \[2.0, 1.0\]"):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError, match=r"empty interval \(1.0, 1.0\]"):
            Interval(1.0, 1.0, lo_closed=False)
        with pytest.raises(ValueError, match="empty category set"):
            CategorySet(frozenset())


MIXED = Schema(
    ("x1", "x2", "color"),
    (Numeric(), Numeric(), Categorical(("red", "green", "blue"))),
)


class TestPredicateToConstraint:
    def test_numeric_taken_branch(self):
        attr, c = predicate_to_constraint((0, 2.5), True, MIXED)
        assert attr == 0
        assert c == Interval(2.5, INF, lo_closed=True, hi_closed=False)

    def test_numeric_refused_branch(self):
        _, c = predicate_to_constraint((1, 2.5), False, MIXED)
        assert c == Interval(-INF, 2.5, lo_closed=False, hi_closed=False)
        assert not c.contains(2.5)

    def test_categorical_taken_branch(self):
        attr, c = predicate_to_constraint((2, 1), True, MIXED)
        assert attr == 2 and c == CategorySet(frozenset({1}))

    def test_categorical_refused_branch(self):
        _, c = predicate_to_constraint((2, 1), False, MIXED)
        assert c == CategorySet(frozenset({0, 2}))

    def test_refusing_only_category_contradicts(self):
        schema = Schema(("only",), (Categorical(("sole",)),))
        with pytest.raises(EmptyMCRError,
                           match="refusing the only category of attribute 0 leaves nothing"):
            predicate_to_constraint((0, 0), False, schema)


class TestSimplify:
    def test_intersects_per_attribute(self):
        rule = simplify(
            [
                (0, Interval(0.0, 10.0)),
                (0, Interval(2.0, INF, hi_closed=False)),
                (1, Interval(-INF, 5.0, hi_closed=False)),
            ]
        )
        assert rule[0] == Interval(2.0, 10.0)
        assert rule[1] == Interval(-INF, 5.0, hi_closed=False)

    def test_empty_input_gives_empty_rule(self):
        assert simplify([]) == {}

    def test_disjoint_constraints_contradict(self):
        with pytest.raises(EmptyMCRError, match="attribute 0: .* and .* do not overlap"):
            simplify([(0, Interval(0.0, 1.0)), (0, Interval(2.0, 3.0))])

    def test_mixed_kinds_contradict(self):
        with pytest.raises(EmptyMCRError,
                           match="attribute 0 mixes interval and category constraints"):
            simplify([(0, Interval(0.0, 1.0)), (0, CategorySet(frozenset({1})))])


BOUNDS = Bounds(np.array([0.0, 0.0, 0.0]), np.array([10.0, 10.0, 2.0]))


# Endpoints on a grid strictly inside BOUNDS, so clamping never empties an
# interval and only disjoint constraints can make the rule intersection empty.
grid_ends = st.integers(1, 9).map(float)
grid_intervals = interval_strategy(grid_ends | st.just(-INF), grid_ends | st.just(INF))
mcr_rules = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            0: grid_intervals,
            1: grid_intervals,
            2: st.frozensets(st.integers(0, 2), min_size=1).map(CategorySet),
        },
    ),
    min_size=1,
    max_size=6,
)


class TestCalculateMcr:
    def test_unconstrained_defaults(self):
        mcr = calculate_mcr([{}], BOUNDS, MIXED)
        assert mcr[0] == Interval(0.0, 10.0)
        assert mcr[0].lo_closed and mcr[0].hi_closed
        assert mcr[2] == CategorySet(frozenset({0, 1, 2}))

    def test_clamps_only_infinite_ends(self):
        # a finite end beyond the bounds is preserved, not clamped
        rules = [{0: Interval(2.0, INF, hi_closed=False)},
                 {0: Interval(-INF, 15.0, hi_closed=False)}]
        mcr = calculate_mcr(rules, BOUNDS, MIXED)
        assert mcr[0] == Interval(2.0, 15.0, lo_closed=True, hi_closed=False)

    def test_clamped_ends_are_closed(self):
        rules = [{0: Interval(-INF, 7.0, hi_closed=False)}]
        mcr = calculate_mcr(rules, BOUNDS, MIXED)
        assert mcr[0] == Interval(0.0, 7.0, lo_closed=True, hi_closed=False)

    def test_collapse_after_clamp_is_empty(self):
        # lower end above the data maximum leaves nothing once the infinite
        # upper end clamps down to the bounds
        rules = [{0: Interval(11.0, INF, hi_closed=False)}]
        with pytest.raises(EmptyMCRError):
            calculate_mcr(rules, BOUNDS, MIXED)

    def test_disjoint_rules_are_empty(self):
        rules = [
            {0: Interval(-INF, 3.0, hi_closed=False)},
            {0: Interval(5.0, INF, hi_closed=False)},
        ]
        with pytest.raises(EmptyMCRError):
            calculate_mcr(rules, BOUNDS, MIXED)

    def test_category_rules_combine(self):
        rules = [
            {2: CategorySet(frozenset({0, 1}))},
            {2: CategorySet(frozenset({1, 2}))},
        ]
        mcr = calculate_mcr(rules, BOUNDS, MIXED)
        assert mcr[2] == CategorySet(frozenset({1}))

    def test_order_invariance(self):
        rules = [
            {0: Interval(1.0, INF, hi_closed=False), 1: Interval(-INF, 8.0, hi_closed=False)},
            {0: Interval(-INF, 6.0, hi_closed=False)},
            {1: Interval(2.0, INF, hi_closed=False), 2: CategorySet(frozenset({0, 2}))},
        ]
        forward = calculate_mcr(rules, BOUNDS, MIXED)
        backward = calculate_mcr(rules[::-1], BOUNDS, MIXED)
        assert forward == backward

    def test_needs_at_least_one_rule(self):
        with pytest.raises(ValueError):
            calculate_mcr([], BOUNDS, MIXED)

    def test_complete_result_contains_consistent_point(self):
        rules = [{0: Interval(2.0, INF, hi_closed=False)}]
        mcr = calculate_mcr(rules, BOUNDS, MIXED)
        assert sorted(mcr.keys()) == [0, 1, 2]
        assert contains(mcr, np.array([5.0, 5.0, 1.0]))
        assert not contains(mcr, np.array([1.0, 5.0, 1.0]))

    @given(rules=mcr_rules, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_order_free_and_empty_exactly_on_disjoint_constraints(self, rules, data):
        shuffled = data.draw(st.permutations(rules))
        # with grid endpoints, a non-empty intersection holds a grid or half-grid point
        probes = [k / 2 for k in range(-2, 23)]
        overlap = all(
            any(all(rule[j].contains(v) for rule in rules if j in rule) for v in probes)
            for j in range(MIXED.d)
        )
        if overlap:
            assert calculate_mcr(shuffled, BOUNDS, MIXED) == calculate_mcr(rules, BOUNDS, MIXED)
        else:
            for order in (rules, shuffled):
                with pytest.raises(EmptyMCRError):
                    calculate_mcr(order, BOUNDS, MIXED)


class TestStrategies:
    def test_aliases(self):
        assert normalize_strategy("Median-Of-Bounds") == "mean"
        assert normalize_strategy(" MIN ") == "min"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            normalize_strategy("mode")

    @pytest.mark.parametrize("strategy", [None, 5])
    def test_non_string_rejected(self, strategy):
        with pytest.raises(ConfigError, match=f"^unknown representative strategy {strategy}$"):
            normalize_strategy(strategy)


class TestPickInInterval:
    def test_closed_interval(self):
        iv = Interval(2.0, 5.0)
        assert pick_in_interval(iv, "min") == 2.0
        assert pick_in_interval(iv, "max") == 5.0
        assert pick_in_interval(iv, "mean") == 3.5

    def test_open_upper_end_insets(self):
        iv = Interval(2.0, 5.0, hi_closed=False)
        got = pick_in_interval(iv, "max")
        assert got == 5.0 - EPS_INSET * 3.0
        assert iv.contains(got)

    def test_open_lower_end_insets(self):
        iv = Interval(2.0, 5.0, lo_closed=False)
        got = pick_in_interval(iv, "min")
        assert got == 2.0 + EPS_INSET * 3.0
        assert iv.contains(got)

    def test_requires_finite(self):
        with pytest.raises(ValueError):
            pick_in_interval(Interval(0.0, INF, hi_closed=False), "min")

    def test_point_interval(self):
        iv = Interval(7.0, 7.0)
        for s in ("min", "mean", "max"):
            assert pick_in_interval(iv, s) == 7.0

    def test_adjacent_doubles_open_hi(self):
        lo = 1.0
        hi = math.nextafter(lo, INF)
        iv = Interval(lo, hi, lo_closed=True, hi_closed=False)
        # the only contained double is lo itself
        for s in ("min", "mean", "max"):
            assert pick_in_interval(iv, s) == lo

    def test_empty_of_representable_points_raises(self):
        lo = 1.0
        hi = math.nextafter(lo, INF)
        iv = Interval(lo, hi, lo_closed=False, hi_closed=False)
        with pytest.raises(ValueError):
            pick_in_interval(iv, "mean")

    @given(iv=interval_strategy(), strategy=st.sampled_from(["min", "mean", "max"]))
    @settings(max_examples=300, deadline=None)
    def test_result_is_contained(self, iv, strategy):
        # an interval open at both ends between adjacent doubles holds no
        # double at all; that is the one case that must raise
        if not (iv.lo_closed or iv.hi_closed) and math.nextafter(iv.lo, iv.hi) >= iv.hi:
            with pytest.raises(ValueError):
                pick_in_interval(iv, strategy)
        else:
            assert iv.contains(pick_in_interval(iv, strategy))


class TestRepresentative:
    def test_requires_complete_rule(self):
        with pytest.raises(ValueError):
            representative({0: Interval(0.0, 1.0), 2: Interval(0.0, 1.0)})

    def test_mixed_rule(self):
        mcr = {
            0: Interval(1.0, 3.0),
            1: Interval(0.0, 8.0, hi_closed=False),
            2: CategorySet(frozenset({1, 2})),
        }
        assert representative(mcr, "min").tolist() == [1.0, 0.0, 1.0]
        got = representative(mcr, "mean")
        assert got.tolist() == [2.0, 4.0, 1.0]

    def test_strategy_alias(self):
        mcr = {0: Interval(0.0, 2.0)}
        assert representative(mcr, "median-of-bounds")[0] == 1.0


class TestPickIntervalBatch:
    @given(
        a=finite_floats,
        b=finite_floats,
        hi_open=st.booleans(),
        strategy=st.sampled_from(["min", "mean", "max"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_scalar_bitwise(self, a, b, hi_open, strategy):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            hi_open = False
        iv = Interval(lo, hi, lo_closed=True, hi_closed=not hi_open)
        scalar = pick_in_interval(iv, strategy)
        # an open end is hi itself, a closed one is +inf with hi as its bound
        batch = pick_interval_batch(
            np.array([lo]), np.array([hi if hi_open else np.inf]), np.array([hi]), strategy
        )
        assert np.float64(scalar).tobytes() == batch[0].tobytes()

    def test_overflowing_midpoint_falls_back(self):
        lo, hi = -1.7e308, 1.7e308
        batch = pick_interval_batch(
            np.array([lo]), np.array([np.inf]), np.array([hi]), "mean"
        )
        iv = Interval(lo, hi)
        assert iv.contains(float(batch[0]))
        assert float(batch[0]) == pick_in_interval(iv, "mean")

    def test_vector_shapes(self):
        lo = np.array([0.0, 1.0, 2.0])
        hi = np.array([np.inf, np.inf, 4.0])  # closed, closed, open
        closed_hi = np.array([1.0, 1.0, 99.0])  # an open end ignores it
        got = pick_interval_batch(lo, hi, closed_hi, "max")
        assert got.shape == (3,)
        assert got[0] == 1.0 and got[1] == 1.0
        assert 2.0 <= got[2] < 4.0
