"""Piecewise-polynomial continuous sections [0, 1] → C^d with Gaussian-rational
coefficients, held in one exact form: a piece is (D, cols), D > 0 and
cols[k] the Gaussian-integer column of x^k in D·piece. Pieces are kept in
lowest terms (D and the integers share no factor, and no zero column
follows the first), so equal pieces are equal tuples, and two sections are
equal exactly when their difference `is_zero`. The algebra works on those
integers; a section's exact sets are read off them by `fields.residual_set`."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch
from .rationals import GaussianIntVector
from .subsets import _order

ZERO = Fraction(0)
ONE = Fraction(1)

Piece = tuple[int, tuple[GaussianIntVector, ...]]

UNIT: Piece = (1, (((1, 0),),))  # the scalar piece 1: a + b is `_add_times(a, b, UNIT)`


@dataclass(frozen=True)
class PiecewiseSection:
    """Continuous map [0,1] → C^d, polynomial on each breakpoint interval."""

    d: int
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        bps = tuple(b if isinstance(b, Fraction) else Fraction(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        ratios = [b.as_integer_ratio() for b in bps]  # a/q < c/t iff a·t < c·q, as q, t > 0
        if len(ratios) < 2 or ratios[0] != (0, 1) or ratios[-1] != (1, 1):
            raise ValueError("breakpoints must run from 0 to 1")
        if any(a * t >= c * q for (a, q), (c, t) in zip(ratios, ratios[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(bps) - 1:
            raise ValueError("need one piece per breakpoint interval")
        for den, cols in self.pieces:
            if not cols or any(len(col) != self.d for col in cols):
                raise DimensionMismatch("piece has wrong fiber dimension")
            if den < 1:
                raise ValueError("a piece's denominator must be positive")
        pieces = tuple(_reduced(den, tuple(map(tuple, cols))) for den, cols in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        for t, left, right in zip(bps[1:-1], pieces, pieces[1:]):
            if not _same_value(left, right, t):
                raise ValueError(f"discontinuity at breakpoint {t}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def _of(cls, d: int, breakpoints: tuple, pieces: tuple) -> "PiecewiseSection":
        """An operation's result, continuous and in lowest terms as its operands are: built unchecked."""
        out = cls.__new__(cls)
        out.__dict__.update(d=d, breakpoints=breakpoints, pieces=pieces)
        return out

    @classmethod
    def polynomial(cls, coords) -> "PiecewiseSection":
        """The one-piece section whose coordinate i has the ascending coefficients coords[i] (see `from_coeffs`)."""
        return cls(len(coords), (ZERO, ONE), (from_coeffs(coords),))

    @classmethod
    def zero(cls, d: int) -> "PiecewiseSection":
        return cls._of(d, (ZERO, ONE), (_zero_piece(d),))

    # -- algebra (everything goes through a common refinement) ---------------

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
        pieces = tuple(_reduced(*_add_times(self.pieces[i], other.pieces[j], UNIT)) for i, j in zip(ia, ib))
        return PiecewiseSection._of(self.d, bps, pieces)

    def __sub__(self, other: "PiecewiseSection") -> "PiecewiseSection":
        return self + (-other)

    def __neg__(self) -> "PiecewiseSection":
        pieces = tuple((den, tuple(tuple((-x, -y) for x, y in col) for col in cols)) for den, cols in self.pieces)
        return PiecewiseSection._of(self.d, self.breakpoints, pieces)

    def scale(self, c) -> "PiecewiseSection":
        """The section times the rational c."""
        p, q = Fraction(c).as_integer_ratio()
        pieces = tuple(_reduced(den * q, tuple(tuple((p * x, p * y) for x, y in col) for col in cols))
                       for den, cols in self.pieces)
        return PiecewiseSection._of(self.d, self.breakpoints, pieces)

    def mul_scalar_section(self, s: "PiecewiseSection") -> "PiecewiseSection":
        """Pointwise product with a scalar (d = 1) section, cell by cell on
        the pieces' integer columns."""
        if s.d != 1:
            raise DimensionMismatch("scalar section must have d = 1")
        bps, ia, ib = self._aligned(s)
        pieces = tuple(_reduced(*_add_times((1, []), self.pieces[i], s.pieces[j])) for i, j in zip(ia, ib))
        return PiecewiseSection._of(self.d, bps, pieces)

    def is_zero(self) -> bool:
        return not any(x or y for _, cols in self.pieces for col in cols for x, y in col)


def from_coeffs(coords) -> Piece:
    """The piece (D, cols), reduced, whose coordinate i has the ascending
    coefficients coords[i], each a rational or an (re, im) pair of rationals."""
    return _reduced(*from_ratios([[(_ratio(c[0]), _ratio(c[1])) if isinstance(c, tuple) else (_ratio(c), (0, 1))
                                   for c in coord] for coord in coords]))


def from_ratios(coords) -> Piece:
    """The piece (D, cols) whose coordinate i has the ascending coefficients
    coords[i], each a pair ((p, q), (r, t)) of integers for p/q + (r/t)·i,
    q and t positive: every part over the lcm D of the denominators, not reduced."""
    den = lcm(*[q for coord in coords for z in coord for _, q in z])
    n = max([1, *map(len, coords)])
    rows = [[(p * (den // q), r * (den // t)) for (p, q), (r, t) in coord] + [(0, 0)] * (n - len(coord))
            for coord in coords]
    return den, tuple(zip(*rows))


def _ratio(c) -> tuple[int, int]:
    return c.as_integer_ratio() if isinstance(c, (int, Fraction)) else Fraction(c).as_integer_ratio()


def _zero_piece(d: int) -> Piece:
    return 1, (((0, 0),) * d,)


def _reduced(den: int, cols: tuple[GaussianIntVector, ...]) -> Piece:
    """(D, cols) in lowest terms: the zero columns past the first dropped
    from the end, then D and every integer over their gcd."""
    n = len(cols)
    while n > 1 and not any(x or y for x, y in cols[n - 1]):
        n -= 1
    g = gcd(den, *(t for col in cols[:n] for z in col for t in z))
    if g == 1:
        return den, tuple(cols[:n])
    return den // g, tuple(tuple((x // g, y // g) for x, y in col) for col in cols[:n])


def _scaled_value(cols, x: Fraction) -> GaussianIntVector:
    """v^n·Σ_k cols[k]·x^k at x = u/v, n = len(cols) − 1, by integer Horner:
    for a piece (D, cols) that is D·v^n·piece(x)."""
    u, v, w = x.numerator, x.denominator, 1
    acc = cols[-1]
    for col in reversed(cols[:-1]):
        w *= v
        acc = tuple((a * u + c * w, b * u + e * w) for (a, b), (c, e) in zip(acc, col))
    return acc


def _same_value(a: Piece, b: Piece, x: Fraction) -> bool:
    """a(x) == b(x): each scaled value times the other's scale D·v^n."""
    (da, ca), (db, cb) = a, b
    v = x.denominator
    fa, fb = db * v ** (len(cb) - 1), da * v ** (len(ca) - 1)
    return all(p * fa == u * fb and q * fa == w * fb
               for (p, q), (u, w) in zip(_scaled_value(ca, x), _scaled_value(cb, x)))


def _add_times(cell: tuple[int, list], piece: Piece, scalar: Piece) -> tuple[int, list]:
    """cell + piece·scalar for pieces in column form (D, cols), the scalar
    piece's columns one high: the columns over lcm(D_cell, D_piece·D_scalar),
    not reduced."""
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
        (du, cu), (dv, cv) = u.pieces[i], v.pieces[j]
        cell = (1, [])
        for k in range(u.d):
            conj_u = (du, tuple(((x, -y),) for x, y in (col[k] for col in cu)))
            cell = _add_times(cell, (dv, tuple((col[k],) for col in cv)), conj_u)
        pieces.append(_reduced(*cell))
    return PiecewiseSection._of(1, bps, tuple(pieces))


def bump(lo, hi) -> PiecewiseSection:
    """The quadratic bump (x − lo)(hi − x) on (lo, hi), zero elsewhere: for
    lo = a/b and hi = c/e, the piece (b·e, (−a·c, a·e + b·c, −b·e)) reduced."""
    lo, hi = Fraction(lo), Fraction(hi)
    (a, b), (c, e) = lo.as_integer_ratio(), hi.as_integer_ratio()
    if not (0 <= a and a * e < b * c and c <= e):
        raise ValueError("bump needs 0 ≤ lo < hi ≤ 1")
    piece = _reduced(b * e, (((-a * c, 0),), ((a * e + b * c, 0),), ((-b * e, 0),)))
    bps, pieces = [ZERO, lo, hi, ONE], [_zero_piece(1), piece, _zero_piece(1)]
    if c == e:  # hi = 1: no zero piece after it
        del bps[3], pieces[2]
    if a == 0:  # lo = 0: none before it
        del bps[0], pieces[0]
    return PiecewiseSection._of(1, tuple(bps), tuple(pieces))


def unit_bump(center, radius) -> PiecewiseSection:
    """Bump with peak value exactly 1 at its center, support radius wide on
    each side, clipped inside (0, 1): ((x−a)(b−x)) / radius²."""
    center, radius = Fraction(center), Fraction(radius)
    lo, hi = center - radius, center + radius
    if not ZERO <= lo < hi <= ONE:
        raise ValueError("bump support leaves [0, 1]")
    section = bump(lo, hi)
    return section.scale(1 / (radius * radius))
