"""Piecewise-polynomial continuous sections [0, 1] → C^d with Gaussian-rational
coefficients: exact algebra, exact zero sets."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch
from .polynomials import GaussianPoly, RationalPoly, _norm, exact_zero_points
from .rationals import GaussianIntVector
from .subsets import Interval, SymbolicSubset, _order

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class PiecewiseSection:
    """Continuous map [0,1] → C^d, polynomial on each breakpoint interval."""

    d: int
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[GaussianPoly, ...], ...]

    def __post_init__(self):
        bps = tuple(b if isinstance(b, Fraction) else Fraction(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2 or bps[0] != ZERO or bps[-1] != ONE:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        pieces = tuple(tuple(row) for row in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if len(pieces) != len(bps) - 1:
            raise ValueError("need one piece per breakpoint interval")
        for piece in pieces:
            if len(piece) != self.d:
                raise DimensionMismatch("piece has wrong fiber dimension")
        for t, left, right in zip(bps[1:-1], pieces, pieces[1:]):
            values = _scaled_value(_columns(left + right)[1], t)  # both pieces over one positive scale
            if values[:self.d] != values[self.d:]:
                raise ValueError(f"discontinuity at breakpoint {t}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def _of(cls, d: int, breakpoints: tuple, pieces: tuple) -> "PiecewiseSection":
        """An operation's result, continuous as its operands are: built unchecked."""
        out = cls.__new__(cls)
        out.__dict__.update(d=d, breakpoints=breakpoints, pieces=pieces)
        return out

    @classmethod
    def constant(cls, values) -> "PiecewiseSection":
        """The constant section with these coordinates, each a rational or an (re, im) pair."""
        piece = tuple(GaussianPoly.const(*v) if isinstance(v, tuple) else GaussianPoly.const(v) for v in values)
        return cls(len(piece), (ZERO, ONE), (piece,))

    @classmethod
    def zero(cls, d: int) -> "PiecewiseSection":
        return cls(d, (ZERO, ONE), (tuple(GaussianPoly.zero() for _ in range(d)),))

    @classmethod
    def scalar_poly(cls, poly: GaussianPoly) -> "PiecewiseSection":
        return cls(1, (ZERO, ONE), ((poly,),))

    # -- algebra (everything goes through a common refinement) ---------------

    @cached_property
    def columns(self) -> tuple[tuple[int, list[GaussianIntVector]], ...]:
        """(D, cols) of every piece, computed once: D > 0 and cols[k] the column
        of x^k in D·piece. A product keeps those of its column product, whose
        D need not be least and whose top columns may be zero."""
        return tuple(map(_columns, self.pieces))

    def piece_index_for_interval(self, lo: Fraction) -> int:
        i = bisect_right(self.breakpoints, lo) - 1
        return min(i, len(self.pieces) - 1)

    def _aligned(self, other: "PiecewiseSection") -> tuple[tuple[Fraction, ...], list[int], list[int]]:
        """The common refinement of two sections, ordered once by `_order`:
        its breakpoints, and the piece of each section on each of its cells."""
        bps, slot = _order(self.breakpoints + other.breakpoints)
        return tuple(bps), _cell_pieces(self.breakpoints, slot), _cell_pieces(other.breakpoints, slot)

    def __add__(self, other: "PiecewiseSection") -> "PiecewiseSection":
        if other.d != self.d:
            raise DimensionMismatch("section dimensions differ")
        bps, ia, ib = self._aligned(other)
        pieces = tuple(tuple(pa + pb for pa, pb in zip(self.pieces[i], other.pieces[j])) for i, j in zip(ia, ib))
        return PiecewiseSection._of(self.d, bps, pieces)

    def __sub__(self, other: "PiecewiseSection") -> "PiecewiseSection":
        return self + (-other)

    def _map(self, f) -> "PiecewiseSection":
        """f applied to every coordinate polynomial of every piece."""
        return PiecewiseSection._of(self.d, self.breakpoints, tuple(tuple(map(f, row)) for row in self.pieces))

    def __neg__(self) -> "PiecewiseSection":
        return self._map(GaussianPoly.__neg__)

    def scale(self, c) -> "PiecewiseSection":
        """The section times the rational c."""
        return self._map(lambda p: p * c)

    def mul_scalar_section(self, s: "PiecewiseSection") -> "PiecewiseSection":
        """Pointwise product with a scalar (d = 1) section, on the pieces'
        columns cell by cell; the product keeps its columns."""
        if s.d != 1:
            raise DimensionMismatch("scalar section must have d = 1")
        bps, ia, ib = self._aligned(s)
        columns = tuple(_add_times((1, []), self.columns[i], s.columns[j]) for i, j in zip(ia, ib))
        product = PiecewiseSection._of(self.d, bps, tuple(_from_columns(den, cols, self.d) for den, cols in columns))
        product.__dict__["columns"] = columns
        return product

    def conj(self) -> "PiecewiseSection":
        return self._map(GaussianPoly.conj)

    def coordinate(self, i: int) -> "PiecewiseSection":
        return PiecewiseSection._of(1, self.breakpoints, tuple((row[i],) for row in self.pieces))

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.pieces for p in row)

    def equals(self, other: "PiecewiseSection") -> bool:
        if self.d != other.d:
            return False
        _, ia, ib = self._aligned(other)
        return all(self.pieces[i] == other.pieces[j] for i, j in zip(ia, ib))

    # -- exact sets -----------------------------------------------------------

    def zero_set(self) -> SymbolicSubset:
        """{x : all coordinates vanish}, exactly (may raise IrrationalRoot).
        The pieces' zero sets are collected and normalized once."""
        points: list[Fraction] = []
        intervals: list[Interval] = []
        for piece, lo, hi in zip(self.pieces, self.breakpoints, self.breakpoints[1:]):
            zeros = exact_zero_points(piece, lo, hi)
            if zeros is None:
                intervals.append(Interval(lo, hi, True, True))
            else:
                points.extend(zeros)
        return SymbolicSubset(points=tuple(points), intervals=tuple(intervals))

    def support_set(self) -> SymbolicSubset:
        """{x : section(x) ≠ 0}, the complement of the exact zero set."""
        return self.zero_set().complement()

    # -- norms ---------------------------------------------------------------

    def exact_sup_norm(self) -> Fraction:
        """Exact sup of |value| for real scalar sections of piece degree ≤ 2.

        Candidate extrema of a quadratic on an interval are its endpoints and
        vertex, all rational here; higher degrees or complex values have no
        rational sup in general and raise ValueError.
        """
        if self.d != 1:
            raise ValueError("exact sup norm only for scalar sections")
        best = Fraction(0)
        for i, row in enumerate(self.pieces):
            p = row[0]
            if not p.is_real():
                raise ValueError("exact sup norm needs real coefficients")
            q = p.re
            if q.degree > 2:
                raise ValueError("exact sup norm needs degree ≤ 2 pieces")
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            candidates = [lo, hi]
            if q.degree == 2:
                vertex = -q.coeffs[1] / (2 * q.coeffs[2])
                if lo < vertex < hi:
                    candidates.append(vertex)
            for x in candidates:
                best = max(best, abs(q(x)))
        return best


def _columns(piece: tuple[GaussianPoly, ...]) -> tuple[int, list[GaussianIntVector]]:
    """(D, cols): D > 0 the parts' common denominator, cols[k] the Gaussian-integer
    column of x^k in D·piece up to the largest degree (one column at least)."""
    parts = [q for p in piece for q in (p.re, p.im)]
    den, n = lcm(*(q.den for q in parts)), max(1, *(len(q.nums) for q in parts))
    rows = [[c * (den // q.den) for c in q.nums] + [0] * (n - len(q.nums)) for q in parts]
    return den, [tuple(zip(col[::2], col[1::2])) for col in zip(*rows)]


def _from_columns(den: int, cols: list[GaussianIntVector], d: int) -> tuple[GaussianPoly, ...]:
    """The d-coordinate piece Σ_k cols[k]·x^k / den, each part in lowest terms."""
    return tuple(GaussianPoly(_norm([col[i][0] for col in cols], den), _norm([col[i][1] for col in cols], den))
                 for i in range(d))


def _scaled_value(cols: list[GaussianIntVector], x: Fraction) -> GaussianIntVector:
    """v^n·Σ_k cols[k]·x^k at x = u/v, n = len(cols) − 1, by integer Horner: for
    (D, cols) = _columns(piece) that is D·v^n·piece(x), n the piece's degree."""
    u, v, w = x.numerator, x.denominator, 1
    acc = cols[-1]
    for col in reversed(cols[:-1]):
        w *= v
        acc = tuple((a * u + c * w, b * u + e * w) for (a, b), (c, e) in zip(acc, col))
    return acc


def _add_times(cell: tuple[int, list], piece: tuple[int, list], scalar: tuple[int, list]) -> tuple[int, list]:
    """cell + piece·scalar for pieces in column form (D, cols), the scalar
    piece's columns one high: the columns over lcm(D_cell, D_piece·D_scalar)."""
    (dc, cc), (dp, pc), (ds, sc) = cell, piece, scalar
    den = lcm(dc, dp * ds)
    f, g = den // dc, den // (dp * ds)
    out = [tuple((f * x, f * y) for x, y in col) for col in cc]
    out += [((0, 0),) * len(pc[0])] * (len(pc) + len(sc) - 1 - len(out))
    for l, ((u, v),) in enumerate(sc):
        u, v = g * u, g * v
        for k, col in enumerate(pc if u or v else ()):
            out[k + l] = tuple((a + x * u - y * v, b + x * v + y * u) for (a, b), (x, y) in zip(out[k + l], col))
    return den, out


def _cell_pieces(breakpoints, slot: dict[tuple[int, int], int]) -> list[int]:
    """The piece of a section with these breakpoints on each cell of a
    refinement whose `_order` slots are `slot`: one pass over its breakpoints."""
    starts = [slot[b.as_integer_ratio()] // 2 for b in breakpoints]
    return [i for i, (lo, hi) in enumerate(zip(starts, starts[1:])) for _ in range(lo, hi)]


def pointwise_inner(u: PiecewiseSection, v: PiecewiseSection) -> PiecewiseSection:
    """⟨u, v⟩(x) = Σ_i conj(u_i(x)) v_i(x) as an exact scalar section."""
    if u.d != v.d:
        raise DimensionMismatch("sections of different fiber dimension")
    bps, ia, ib = u._aligned(v)
    pieces = []
    for i, j in zip(ia, ib):
        acc = GaussianPoly.zero()
        for pa, pb in zip(u.pieces[i], v.pieces[j]):
            acc = acc + pa.conj() * pb
        pieces.append((acc,))
    return PiecewiseSection._of(1, bps, tuple(pieces))


def bump(lo, hi) -> PiecewiseSection:
    """The quadratic bump (x − lo)(hi − x) on (lo, hi), zero elsewhere."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not ZERO <= lo < hi <= ONE:
        raise ValueError("bump needs 0 ≤ lo < hi ≤ 1")
    poly = GaussianPoly(RationalPoly((-lo * hi, lo + hi, -1)), RationalPoly.zero())
    bps = tuple(dict.fromkeys((ZERO, lo, hi, ONE)))  # increasing already
    return PiecewiseSection._of(1, bps, tuple((poly if a == lo else GaussianPoly.zero(),) for a in bps[:-1]))


def unit_bump(center, radius) -> PiecewiseSection:
    """Bump with peak value exactly 1 at its center, support radius wide on
    each side, clipped inside (0, 1): ((x−a)(b−x)) / radius²."""
    center, radius = Fraction(center), Fraction(radius)
    lo, hi = center - radius, center + radius
    if not ZERO <= lo < hi <= ONE:
        raise ValueError("bump support leaves [0, 1]")
    section = bump(lo, hi)
    return section.scale(1 / (radius * radius))
