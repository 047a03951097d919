"""Exact finite unions of rational points and intervals inside [0, 1].

Every subset is kept in a normalized form: disjoint sorted intervals that
cannot be merged or extended, and isolated points lying in no interval.
One merge-sweep kernel, `_sweep`, computes that form for the constructor
and for the two set operations, union and difference; a ∩ b is
a.difference(a.difference(b)) and a complement [0, 1] minus the set.
It sorts the endpoints of all operands once, which cuts [0, 1] into
elementary regions, and reads each operand's coverage of every region off
a running count of its interval openings and closings: linear after the
sort. Its last step, `_runs`, reads the normal form off any ordered walk of
regions, and a caller that walks [0, 1] in order already
(`fields.residual_set`) calls it directly. Closure and interior need no
sweep: each is read straight off the normal form in one pass.
A field's regions pass no sweep, loaded or generated: `_parts` checks a
loaded region as the constructor does, generation gives each region of
its planted partition one owner, and `_label_runs` and `_of_runs` read
every piece's normal form off such a table of owners
(`fields.SubspaceField` normalizes all its regions at once this way).

One kernel, `_order`, orders boundaries without comparing or hashing
Fractions: n/d is deduped and found by its pair (n, d) and sorted by the
integer key floor(n·2⁶⁴/d); keys tie only within 2⁻⁶⁴, and such ties are
ordered as Fractions. A key costs its boundary's bit length, never the
product of all the denominators, as one common denominator would.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable

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
        object.__setattr__(self, "lo", self.lo if isinstance(self.lo, Fraction) else Fraction(self.lo))
        object.__setattr__(self, "hi", self.hi if isinstance(self.hi, Fraction) else Fraction(self.hi))

    @classmethod
    def _of(cls, lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool) -> "Interval":
        """An interval between Fraction endpoints: built unchecked."""
        out = cls.__new__(cls)
        out.__dict__.update(lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed)
        return out

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
        self.__dict__.update(vars(_sweep((_parts(self.points, self.intervals),), bool)))

    @classmethod
    def _of(cls, points: tuple[Fraction, ...], intervals: tuple[Interval, ...]) -> "SymbolicSubset":
        """A set whose parts are in normal form already (or a field region's checked parts): built unchecked."""
        out = cls.__new__(cls)
        out.__dict__.update(points=points, intervals=intervals)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def interval(cls, lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> "SymbolicSubset":
        return cls(intervals=(Interval(Fraction(lo), Fraction(hi), lo_closed, hi_closed),))

    # -- queries -----------------------------------------------------------

    def contains(self, x) -> bool:
        x = Fraction(x)
        return x in self.points or any(iv.contains(x) for iv in self.intervals)

    def is_empty(self) -> bool:
        return not self.points and not self.intervals

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "SymbolicSubset") -> "SymbolicSubset":
        return _rebuild((self, other), lambda a, b: a or b)

    def difference(self, other: "SymbolicSubset") -> "SymbolicSubset":
        return _rebuild((self, other), lambda a, b: a and not b)

    # -- topology (relative to [0, 1]) ---------------------------------------

    def closure(self) -> "SymbolicSubset":
        """Read off the normal form: each interval closed, and intervals that
        touch merged. A point lies off every interval's closure already."""
        intervals: list[Interval] = []
        for iv in self.intervals:
            if intervals and intervals[-1].hi == iv.lo:
                intervals[-1] = Interval._of(intervals[-1].lo, iv.hi, True, True)
            else:
                intervals.append(Interval._of(iv.lo, iv.hi, True, True))
        return SymbolicSubset._of(self.points, tuple(intervals))

    def interior(self) -> "SymbolicSubset":
        """Read off the normal form, relative to [0, 1]: the points dropped,
        and each interval's ends opened except at 0 and 1."""
        return SymbolicSubset._of((), tuple(
            Interval._of(iv.lo, iv.hi, iv.lo_closed and not iv.lo, iv.hi_closed and iv.hi == ONE)
            for iv in self.intervals))

    def is_nowhere_dense(self) -> bool:
        """True iff the closure has empty interior: in normal form every
        interval has positive length, so iff there is no interval."""
        return not self.intervals


def _check_range(*xs: Fraction):
    for x in xs:
        n, d = x.as_integer_ratio()
        if not 0 <= n <= d:
            raise OutOfRange(f"value {x} outside [0, 1]")


def _parts(points, intervals) -> tuple[list[Fraction], list[Interval]]:
    """The checked parts of a union of these points and intervals, in any
    order and possibly overlapping: every value in [0, 1], lo ≤ hi, a closed
    [a, a] kept as the point a and an empty (a, a), (a, a] or [a, a) dropped."""
    pts = [p if isinstance(p, Fraction) else Fraction(p) for p in points]
    _check_range(*pts)
    ivs = []
    for iv in intervals:
        iv = iv if isinstance(iv, Interval) else Interval(*iv)
        _check_range(iv.lo, iv.hi)
        (a, b), (c, d) = iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio()
        if (gap := c * b - a * d) < 0:  # (hi - lo)·b·d
            raise ValueError(f"interval with lo > hi: {iv}")
        if gap:
            ivs.append(iv)
        elif iv.lo_closed and iv.hi_closed:
            pts.append(iv.lo)
    return pts, ivs


def _rebuild(sets, keep: Callable[..., bool]) -> "SymbolicSubset":
    """Set operation on normalized operands: the result is normal already."""
    return _sweep([(s.points, s.intervals) for s in sets], keep)


def _order(xs) -> tuple[list[Fraction], dict[tuple[int, int], int]]:
    """The distinct values of the Fractions xs in increasing order, and the
    region of each (region 2i is bounds[i]), keyed by its integer pair."""
    by_pair = {x.as_integer_ratio(): x for x in xs}
    keys = {(n, d): (n << 64) // d for n, d in by_pair}
    pairs = sorted(by_pair, key=keys.__getitem__)
    if len(set(keys.values())) < len(keys):  # values closer than 2⁻⁶⁴
        pairs.sort(key=by_pair.__getitem__)
    return [by_pair[p] for p in pairs], {p: 2 * i for i, p in enumerate(pairs)}


def _sweep(operands, keep: Callable[..., bool]) -> "SymbolicSubset":
    """Normal form of the set that holds a region iff `keep` holds for the
    coverage counts of the operands there.

    Each operand is a (points, intervals) pair, in any order and possibly
    overlapping. The sorted union of all endpoints (plus 0 and 1) cuts
    [0, 1] into regions 0..n-1, alternately a boundary point (even) and the
    open gap to the next boundary (odd); every operand is constant on each.
    An operand adds +1 where each of its pieces starts and -1 after it
    ends; a running sum then gives its coverage of every region, and
    `_runs` reads the kept regions off in order.
    """
    ends = [ZERO, ONE]
    for pts, ivs in operands:
        ends += pts
        ends += (x for iv in ivs for x in (iv.lo, iv.hi))
    bounds, slot = _order(ends)
    n = 2 * len(bounds) - 1
    counts = []
    for pts, ivs in operands:
        delta = [0] * (n + 1)
        for p in pts:
            r = slot[p.as_integer_ratio()]
            delta[r] += 1
            delta[r + 1] -= 1
        for iv in ivs:
            delta[slot[iv.lo.as_integer_ratio()] + (not iv.lo_closed)] += 1
            delta[slot[iv.hi.as_integer_ratio()] + iv.hi_closed] -= 1
        counts.append(accumulate(delta[:n]))
    return _runs(bounds, [keep(*c) for c in zip(*counts)])


def _runs(bounds, inside: list[bool]) -> "SymbolicSubset":
    """Normal form of the set made of the regions r with inside[r], for the
    increasing `bounds` (0 and 1 among them): region 2i is the point
    bounds[i] and region 2i + 1 the open gap after it."""
    return _of_runs(bounds, _label_runs(inside).get(True, ()))


def _label_runs(labels) -> dict:
    """Each label's maximal runs of equal labels in the nonempty `labels`,
    as increasing pairs (first, last)."""
    runs, start = {}, 0
    for r, label in enumerate(labels):
        if label != labels[start]:
            runs.setdefault(labels[start], []).append((start, r - 1))
            start = r
    runs.setdefault(labels[start], []).append((start, len(labels) - 1))
    return runs


def _of_runs(bounds, runs) -> "SymbolicSubset":
    """The set whose maximal runs of regions (as in `_runs`) are `runs`,
    increasing pairs (first, last): each one interval, or an isolated point."""
    points, intervals = [], []
    for start, end in runs:
        if start == end and start % 2 == 0:
            points.append(bounds[start // 2])
        else:
            intervals.append(Interval._of(bounds[start // 2], bounds[(end + 1) // 2], start % 2 == 0, end % 2 == 0))
    return SymbolicSubset._of(tuple(points), tuple(intervals))
