"""Axis-aligned rule algebra: intervals, category sets, and rule intersection.

A rule maps attribute indexes to constraints. The decision path of one tree
yields one rule; intersecting the rules of every tree in a forest yields the
maximal compatible rule (MCR) for an encoding, which is the region every tree
routes to the same leaves. Endpoint openness is tracked explicitly because a
numeric node test ``x >= t`` taken false contributes the open interval
``(-inf, t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Union

import numpy as np

from .data import Bounds, Categorical, Schema
from .errors import ConfigError, ContradictionError, EmptyMCRError

NEG_INF = float("-inf")
POS_INF = float("inf")

# relative inset used when a representative must sit strictly inside an open end
EPS_INSET = 1e-9


@dataclass(frozen=True)
class Interval:
    """Numeric interval with independently open or closed ends.

    Infinite ends are always open. Construction rejects empty intervals;
    use intersect(), which reports emptiness as None, to combine them.
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval ends must not be NaN")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo == NEG_INF:
            object.__setattr__(self, "lo_closed", False)
        if hi == POS_INF:
            object.__setattr__(self, "hi_closed", False)
        if lo > hi or (lo == hi and not (self.lo_closed and self.hi_closed)):
            raise ValueError(f"empty interval {self._notation(lo, hi)}")

    def _notation(self, lo: float, hi: float) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{lo}, {hi}{right}"

    def __repr__(self) -> str:
        return self._notation(self.lo, self.hi)

    @property
    def is_finite(self) -> bool:
        return self.lo > NEG_INF and self.hi < POS_INF

    def contains(self, v: float) -> bool:
        if v < self.lo or (v == self.lo and not self.lo_closed):
            return False
        if v > self.hi or (v == self.hi and not self.hi_closed):
            return False
        return True

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


@dataclass(frozen=True)
class CategorySet:
    """Non-empty set of allowed category indexes."""

    allowed: frozenset

    def __post_init__(self):
        allowed = frozenset(int(v) for v in self.allowed)
        if not allowed:
            raise ValueError("empty category set")
        object.__setattr__(self, "allowed", allowed)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(v) for v in sorted(self.allowed)) + "}"

    def contains(self, v: float) -> bool:
        return int(v) in self.allowed and v == int(v)

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
        raise ContradictionError(
            f"refusing the only category of attribute {attr} leaves nothing"
        )
    return attr, CategorySet(rest)


def _fold(constraints: Iterable[tuple[int, Constraint]], empty: type) -> Rule:
    """Intersect a constraint list per attribute, in list order.

    Mixed interval and category constraints raise ContradictionError; an
    empty intersection raises ``empty``.
    """
    rule: Rule = {}
    for attr, c in constraints:
        held = rule.get(attr)
        if held is None:
            rule[attr] = c
            continue
        if type(held) is not type(c):
            raise ContradictionError(
                f"attribute {attr} mixes interval and category constraints"
            )
        merged = held.intersect(c)
        if merged is None:
            raise empty(f"attribute {attr}: {held} and {c} do not overlap")
        rule[attr] = merged
    return rule


def simplify(constraints: Iterable[tuple[int, Constraint]]) -> Rule:
    """Fold a constraint list into one rule, intersecting per attribute."""
    return _fold(constraints, ContradictionError)


def calculate_mcr(rules: Sequence[Rule], bounds: Bounds, schema: Schema) -> Rule:
    """Intersect one rule per tree into a complete maximal compatible rule.

    Every attribute of the schema appears in the result. Attributes no rule
    constrains default to their closed bounds interval (or full category
    set), and infinite interval ends are clamped to the bounds.
    """
    if not rules:
        raise ValueError("calculate_mcr needs at least one rule")
    folded = _fold((item for rule in rules for item in rule.items()), EmptyMCRError)
    mcr: Rule = {}
    for j, kind in enumerate(schema.kinds):
        combined = folded.get(j)
        if isinstance(kind, Categorical):
            if combined is None:
                combined = CategorySet(frozenset(range(kind.size)))
        elif combined is None:
            combined = Interval(bounds.lo[j], bounds.hi[j])
        else:
            lo, lo_closed = combined.lo, combined.lo_closed
            hi, hi_closed = combined.hi, combined.hi_closed
            if lo == NEG_INF:
                lo, lo_closed = float(bounds.lo[j]), True
            if hi == POS_INF:
                hi, hi_closed = float(bounds.hi[j]), True
            if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
                raise EmptyMCRError(
                    f"attribute {schema.names[j]}: interval collapses after "
                    f"clamping to bounds [{bounds.lo[j]}, {bounds.hi[j]}]"
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


def normalize_strategy(strategy: str) -> str:
    name = strategy.strip().lower()
    if name == "median-of-bounds":
        name = "mean"
    if name not in ("min", "mean", "max"):
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
    x = np.zeros(d)
    for j in range(d):
        c = mcr[j]
        if isinstance(c, CategorySet):
            x[j] = min(c.allowed)
        else:
            x[j] = pick_in_interval(c, strategy)
    return x


def pick_interval_batch(
    lo: np.ndarray, hi: np.ndarray, hi_open: np.ndarray, strategy: str
) -> np.ndarray:
    """Vectorized pick_in_interval for intervals with closed lower ends.

    Mirrors the scalar routine operation for operation so both decode routes
    produce bitwise-identical representatives.
    """
    strategy = normalize_strategy(strategy)
    if strategy == "min":
        return lo.copy()
    if strategy == "max":
        x = np.where(hi_open, hi - EPS_INSET * (hi - lo), hi)
    else:
        x = 0.5 * (lo + hi)
    inside = (x >= lo) & ((x < hi) | ((x == hi) & ~hi_open))
    if not inside.all():
        fallback = np.where(
            x <= lo,
            lo,
            np.where(hi_open, np.nextafter(hi, lo), hi),
        )
        x = np.where(inside, x, fallback)
    return x
