"""Axis-aligned rule algebra: intervals, category sets, and rule intersection.

A rule maps attribute indexes to constraints. The decision path of one tree
yields one rule; intersecting the rules of every tree in a forest yields the
maximal compatible rule (MCR) for an encoding, which is the region every tree
routes to the same leaves. Endpoint openness is tracked explicitly because a
numeric node test ``x >= t`` taken false contributes the open interval
``(-inf, t)``.

Constraints are immutable tuples, ``NamedTuple`` subclasses whose constructors
validate: an ``Interval`` is ``(lo, hi, lo_closed, hi_closed)`` and a
``CategorySet`` is ``(allowed,)``. They hash and compare as tuples, so a bare
tuple of the same fields compares equal. Building a region one row at a time
here (``codec.decode_region`` with ``representative``) stays the reference
that the vectorized batch decoder is checked against.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .data import Bounds, Categorical, Schema
from .errors import ConfigError, EmptyMCRError

NEG_INF = float("-inf")
POS_INF = float("inf")

# relative inset used when a representative must sit strictly inside an open end
EPS_INSET = 1e-9


def _notation(lo: float, hi: float, lo_closed: bool, hi_closed: bool) -> str:
    left = "[" if lo_closed else "("
    right = "]" if hi_closed else ")"
    return f"{left}{lo}, {hi}{right}"


class _IntervalFields(NamedTuple):
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True


class Interval(_IntervalFields):
    """Numeric interval with independently open or closed ends.

    Infinite ends are always open. Construction rejects empty intervals;
    use intersect(), which reports emptiness as None, to combine them.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, lo_closed: bool = True, hi_closed: bool = True):
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval ends must not be NaN")
        if lo == NEG_INF:
            lo_closed = False
        if hi == POS_INF:
            hi_closed = False
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            raise ValueError(f"empty interval {_notation(lo, hi, lo_closed, hi_closed)}")
        return tuple.__new__(cls, (lo, hi, lo_closed, hi_closed))

    @classmethod
    def _make(cls, fields) -> "Interval":
        return cls(*fields)  # so _replace validates too

    def __repr__(self) -> str:
        return _notation(*self)

    @property
    def is_finite(self) -> bool:
        return self.lo > NEG_INF and self.hi < POS_INF

    def contains(self, v: float) -> bool:
        """Whether ``v`` lies in the interval; NaN lies in none."""
        lo, hi, lo_closed, hi_closed = self
        return (lo < v or lo_closed and v == lo) and (v < hi or hi_closed and v == hi)

    def intersect(self, other: "Interval") -> "Interval | None":
        if other.lo > self.lo:
            lo, lo_closed = other.lo, other.lo_closed
        elif other.lo < self.lo:
            lo, lo_closed = self.lo, self.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if other.hi < self.hi:
            hi, hi_closed = other.hi, other.hi_closed
        elif other.hi > self.hi:
            hi, hi_closed = self.hi, self.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return None
        return Interval(lo, hi, lo_closed, hi_closed)


class _CategoryFields(NamedTuple):
    allowed: frozenset


class CategorySet(_CategoryFields):
    """Non-empty set of allowed category indexes."""

    __slots__ = ()

    def __new__(cls, allowed):
        allowed = frozenset(map(int, allowed))
        if not allowed:
            raise ValueError("empty category set")
        return tuple.__new__(cls, (allowed,))

    @classmethod
    def _make(cls, fields) -> "CategorySet":
        return cls(*fields)  # so _replace validates too

    def __repr__(self) -> str:
        return "{" + ", ".join(str(v) for v in sorted(self.allowed)) + "}"

    def contains(self, v: float) -> bool:
        """Whether ``v`` equals an allowed index: 2.0 and True count as the
        integers they equal; NaN, infinities and fractions lie in no set."""
        return v in self.allowed

    def intersect(self, other: "CategorySet") -> "CategorySet | None":
        merged = self.allowed & other.allowed
        if not merged:
            return None
        return CategorySet(merged)


Constraint = Union[Interval, CategorySet]
Rule = Dict[int, Constraint]


def predicate_to_constraint(test, branch: bool, schema: Schema) -> tuple[int, Constraint]:
    """Constraint implied by taking one branch of an (attr, param) node test.

    The attribute's kind picks the test. Numeric ``x >= t`` gives
    ``[t, +inf)`` when taken and ``(-inf, t)`` when refused. Categorical
    ``x == v`` gives ``{v}`` when taken and the complement set when refused.
    """
    attr, param = test
    akind = schema.kinds[attr]
    if not isinstance(akind, Categorical):
        if branch:
            return attr, Interval(param, POS_INF, lo_closed=True, hi_closed=False)
        return attr, Interval(NEG_INF, param, lo_closed=False, hi_closed=False)
    v = int(param)
    if branch:
        return attr, CategorySet(frozenset([v]))
    rest = frozenset(range(akind.size)) - {v}
    if not rest:
        raise EmptyMCRError(
            f"refusing the only category of attribute {attr} leaves nothing"
        )
    return attr, CategorySet(rest)


def simplify(constraints: Iterable[tuple[int, Constraint]]) -> Rule:
    """Fold a constraint list into one rule, intersecting per attribute in
    list order. Mixed interval and category constraints, or an empty
    intersection, raise EmptyMCRError."""
    rule: Rule = {}
    for attr, c in constraints:
        held = rule.get(attr)
        if held is None:
            rule[attr] = c
            continue
        if type(held) is not type(c):
            raise EmptyMCRError(
                f"attribute {attr} mixes interval and category constraints"
            )
        merged = held.intersect(c)
        if merged is None:
            raise EmptyMCRError(f"attribute {attr}: {held} and {c} do not overlap")
        rule[attr] = merged
    return rule


def calculate_mcr(rules: Sequence[Rule], bounds: Bounds, schema: Schema) -> Rule:
    """Intersect one rule per tree into a complete maximal compatible rule.

    Every attribute of the schema appears in the result. Attributes no rule
    constrains default to their closed bounds interval (or full category
    set), and infinite interval ends are clamped to the bounds.
    """
    if not rules:
        raise ValueError("calculate_mcr needs at least one rule")
    folded = simplify(item for rule in rules for item in rule.items())
    lo_bounds, hi_bounds = bounds.lo.tolist(), bounds.hi.tolist()
    mcr: Rule = {}
    for j, kind in enumerate(schema.kinds):
        combined = folded.get(j)
        if isinstance(kind, Categorical):
            if combined is None:
                combined = CategorySet(frozenset(range(kind.size)))
        elif combined is None:
            combined = Interval(lo_bounds[j], hi_bounds[j])
        else:
            lo, hi, lo_closed, hi_closed = combined
            if lo == NEG_INF:
                lo, lo_closed = lo_bounds[j], True
            if hi == POS_INF:
                hi, hi_closed = hi_bounds[j], True
            if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
                raise EmptyMCRError(
                    f"attribute {schema.names[j]}: interval collapses after "
                    f"clamping to bounds [{lo_bounds[j]}, {hi_bounds[j]}]"
                )
            combined = Interval(lo, hi, lo_closed, hi_closed)
        mcr[j] = combined
    return mcr


def contains(rule: Rule, x: np.ndarray) -> bool:
    """True when the instance satisfies every constraint of the rule."""
    for attr, c in rule.items():
        if not c.contains(float(x[attr])):
            return False
    return True


# representative strategies by name; median-of-bounds is an alias of mean
STRATEGIES = {"min": "min", "mean": "mean", "max": "max", "median-of-bounds": "mean"}


def normalize_strategy(strategy: str) -> str:
    name = STRATEGIES.get(strategy.strip().lower()) if isinstance(strategy, str) else None
    if name is None:
        raise ConfigError(f"unknown representative strategy {strategy!r}")
    return name


def _fix_into(x: float, iv: Interval) -> float:
    """Nudge a candidate onto a point the interval actually contains."""
    if iv.contains(x):
        return x
    if x <= iv.lo:
        y = iv.lo if iv.lo_closed else math.nextafter(iv.lo, iv.hi)
    else:
        y = iv.hi if iv.hi_closed else math.nextafter(iv.hi, iv.lo)
    if iv.contains(y):
        return y
    if iv.lo_closed:
        return iv.lo
    if iv.hi_closed:
        return iv.hi
    raise ValueError(f"interval {iv} contains no representable point")


def pick_in_interval(iv: Interval, strategy: str) -> float:
    """Representative point of a finite interval under a picking strategy."""
    if not iv.is_finite:
        raise ValueError("representative requires finite intervals")
    lo, hi = iv.lo, iv.hi
    if strategy == "min":
        if iv.lo_closed:
            return lo
        return _fix_into(lo + EPS_INSET * (hi - lo), iv)
    if strategy == "max":
        if iv.hi_closed:
            return hi
        return _fix_into(hi - EPS_INSET * (hi - lo), iv)
    return _fix_into(0.5 * (lo + hi), iv)


def representative(mcr: Rule, strategy: str = "min") -> np.ndarray:
    """Instance vector standing in for a complete rule's region.

    Numeric attributes take the interval minimum, midpoint, or maximum per
    the strategy (median-of-bounds is an alias of mean); open ends are inset
    by a relative epsilon. Categorical attributes take the lowest allowed
    index. The result always satisfies the rule.
    """
    strategy = normalize_strategy(strategy)
    d = len(mcr)
    if set(mcr.keys()) != set(range(d)):
        raise ValueError("representative requires a complete rule over attributes 0..d-1")
    return np.array([
        min(c.allowed) if isinstance(c, CategorySet) else pick_in_interval(c, strategy)
        for c in map(mcr.__getitem__, range(d))
    ], dtype=np.float64)


def pick_interval_batch(
    lo: np.ndarray, hi: np.ndarray, closed_hi: np.ndarray, strategy: str
) -> np.ndarray:
    """Vectorized pick_in_interval for intervals with closed lower ends ``lo``.

    An upper end is open at ``hi``, or closed at ``closed_hi`` (which
    broadcasts against ``lo``) where ``hi`` is +inf: decode's region state,
    read without a clamped copy. Mirrors the scalar routine operation for
    operation so both decode routes produce bitwise-identical
    representatives. "min" returns ``lo`` itself; otherwise the result is
    the one new float array, beside boolean masks, and only the intervals
    it misses are worked on again.
    """
    strategy = normalize_strategy(strategy)
    if strategy == "min":
        return lo
    closed = hi == np.inf
    if strategy == "max":
        x = np.subtract(hi, lo)  # +inf where closed, which the last step overwrites
        x *= EPS_INSET
        np.subtract(hi, x, out=x, where=~closed)
        np.copyto(x, closed_hi, where=closed)
    else:
        x = np.where(closed, closed_hi, hi)
        x += lo
        x *= 0.5
    # lo <= x < hi, and x <= closed_hi at a closed end, one mask at a time
    inside = np.logical_not(closed, out=closed)
    inside |= x <= closed_hi
    inside &= x >= lo
    inside &= x < hi
    if not inside.all():
        miss = np.nonzero(~inside)
        lo, hi, picked = lo[miss], hi[miss], x[miss]
        hi_open = hi != np.inf
        hi = np.where(hi_open, hi, np.broadcast_to(closed_hi, x.shape)[miss])
        x[miss] = np.where(picked <= lo, lo, np.where(hi_open, np.nextafter(hi, lo), hi))
    return x
