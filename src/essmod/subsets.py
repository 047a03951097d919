"""Exact finite unions of rational points and intervals inside [0, 1].

Every subset is kept in a normalized form: disjoint sorted intervals that
cannot be merged or extended, and isolated points lying in no interval.
One merge-sweep kernel, `_sweep`, computes that form for the constructor
and for every set operation (union, intersection, difference, complement;
closure and interior build on them). It sorts the endpoints of all
operands once, which cuts [0, 1] into elementary regions, and reads each
operand's coverage of every region off a running count of its interval
openings and closings: linear after the sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable

from .errors import OutOfRange

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))

    def contains(self, x: Fraction) -> bool:
        if self.lo < x < self.hi:
            return True
        if x == self.lo and self.lo_closed:
            return True
        if x == self.hi and self.hi_closed:
            return True
        return False

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo}, {self.hi}{rb}"


@dataclass(frozen=True)
class SymbolicSubset:
    """Normalized finite union of rational points and intervals in [0, 1]."""

    points: tuple[Fraction, ...] = ()
    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        pts, ivs = _normalize(self.points, self.intervals)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "intervals", ivs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "SymbolicSubset":
        return cls()

    @classmethod
    def full(cls) -> "SymbolicSubset":
        return cls(intervals=(Interval(ZERO, ONE, True, True),))

    @classmethod
    def from_points(cls, xs: Iterable) -> "SymbolicSubset":
        return cls(points=tuple(Fraction(x) for x in xs))

    @classmethod
    def point(cls, x) -> "SymbolicSubset":
        return cls(points=(Fraction(x),))

    @classmethod
    def interval(cls, lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> "SymbolicSubset":
        return cls(intervals=(Interval(Fraction(lo), Fraction(hi), lo_closed, hi_closed),))

    # -- queries -----------------------------------------------------------

    def contains(self, x) -> bool:
        x = Fraction(x)
        return x in self.points or any(iv.contains(x) for iv in self.intervals)

    def is_empty(self) -> bool:
        return not self.points and not self.intervals

    def has_interval(self) -> bool:
        """True iff the set contains an interval of positive length."""
        return bool(self.intervals)

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "SymbolicSubset") -> "SymbolicSubset":
        return _rebuild((self, other), lambda a, b: a or b)

    def intersection(self, other: "SymbolicSubset") -> "SymbolicSubset":
        return _rebuild((self, other), lambda a, b: a and b)

    def difference(self, other: "SymbolicSubset") -> "SymbolicSubset":
        return _rebuild((self, other), lambda a, b: a and not b)

    def complement(self) -> "SymbolicSubset":
        return _rebuild((self,), lambda a: not a)

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersection(other)

    def __sub__(self, other):
        return self.difference(other)

    def is_subset_of(self, other: "SymbolicSubset") -> bool:
        return self.difference(other).is_empty()

    # -- topology (relative to [0, 1]) ---------------------------------------

    def closure(self) -> "SymbolicSubset":
        closed = tuple(Interval(iv.lo, iv.hi, True, True) for iv in self.intervals)
        return SymbolicSubset(points=self.points, intervals=closed)

    def interior(self) -> "SymbolicSubset":
        return self.complement().closure().complement()

    def is_nowhere_dense(self) -> bool:
        """True iff the closure has empty interior."""
        return self.closure().interior().is_empty()

    def __str__(self) -> str:
        if self.is_empty():
            return "∅"
        parts = [str(iv) for iv in self.intervals] + [f"{{{p}}}" for p in self.points]
        return " ∪ ".join(parts)


def _check_range(x: Fraction):
    if not (ZERO <= x <= ONE):
        raise OutOfRange(f"value {x} outside [0, 1]")


def _normalize(points, intervals) -> tuple[tuple[Fraction, ...], tuple[Interval, ...]]:
    pts = []
    for p in points:
        p = Fraction(p)
        _check_range(p)
        pts.append(p)
    ivs = []
    for iv in intervals:
        if not isinstance(iv, Interval):
            iv = Interval(*iv)
        _check_range(iv.lo)
        _check_range(iv.hi)
        if iv.lo > iv.hi:
            raise ValueError(f"interval with lo > hi: {iv}")
        if iv.lo == iv.hi:
            if iv.lo_closed and iv.hi_closed:
                pts.append(iv.lo)
            continue
        ivs.append(iv)
    return _sweep(((pts, ivs),), bool)


def _rebuild(sets, keep: Callable[..., bool]) -> "SymbolicSubset":
    """Set operation on normalized operands: the result is normal already,
    so the constructor's normalization is skipped."""
    pts, ivs = _sweep([(s.points, s.intervals) for s in sets], keep)
    out = SymbolicSubset.__new__(SymbolicSubset)
    object.__setattr__(out, "points", pts)
    object.__setattr__(out, "intervals", ivs)
    return out


def _sweep(operands, keep: Callable[..., bool]):
    """Normal form of the set that holds a region iff `keep` holds for the
    coverage counts of the operands there.

    Each operand is a (points, intervals) pair, in any order and possibly
    overlapping. The sorted union of all endpoints (plus 0 and 1) cuts
    [0, 1] into regions 0..n-1, alternately a boundary point (even) and the
    open gap to the next boundary (odd); every operand is constant on each.
    An operand adds +1 where each of its pieces starts and -1 after it
    ends; a running sum then gives its coverage of every region.
    """
    ends = {ZERO, ONE}
    for pts, ivs in operands:
        ends.update(pts)
        for iv in ivs:
            ends.update((iv.lo, iv.hi))
    bounds = sorted(ends)
    slot = {b: 2 * i for i, b in enumerate(bounds)}
    n = 2 * len(bounds) - 1
    counts = []
    for pts, ivs in operands:
        delta = [0] * (n + 1)
        for p in pts:
            delta[slot[p]] += 1
            delta[slot[p] + 1] -= 1
        for iv in ivs:
            delta[slot[iv.lo] + (not iv.lo_closed)] += 1
            delta[slot[iv.hi] + iv.hi_closed] -= 1
        counts.append(accumulate(delta[:n]))
    inside = [keep(*c) for c in zip(*counts)]

    points: list[Fraction] = []
    intervals: list[Interval] = []
    k = 0
    while k < n:
        if not inside[k]:
            k += 1
            continue
        start = k
        while k + 1 < n and inside[k + 1]:
            k += 1
        lo, hi = bounds[start // 2], bounds[(k + 1) // 2]
        if lo == hi:
            points.append(lo)
        else:
            intervals.append(Interval(lo, hi, start % 2 == 0, k % 2 == 0))
        k += 1
    return tuple(points), tuple(intervals)
