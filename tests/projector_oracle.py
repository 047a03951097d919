"""Reference membership test by exact orthogonal projectors.

L = col B is decided by I − P with P = B(B*B)⁻¹B* over the independent
columns of B, the Gram matrix inverted by Gauss-Jordan on [G | I]. This
is independent of the annihilator kernel in `essmod.rationals`, which the
tests check against it; `mat_rank` counts the same Gauss-Jordan pivots.
Matrices here are tuples of row tuples of ComplexRational; a field's
Gaussian-integer basis columns are converted by `matrix_of`. The Fraction
path of the loader (`crat_from_json`, `clear_denominators`) lives here too,
as an oracle for the integer loader, and so does `svd_is_projection`, the
float projection predicate with every norm taken by SVD.

`ComplexRational` is the Gaussian-rational scalar these oracles compute
with; the library itself keeps exact complex scalars as (re, im) pairs.
`value_at` evaluates a section at a point as ComplexRationals,
`zero_section` refines a section by addition, and
`fraction_poly_json` is the per-coefficient Fraction printing that
`serialize._piece_to_json` is checked against. Polynomials here are the
Fraction references of `poly_oracle`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import lcm

import numpy as np

from essmod import serialize
from essmod.linalg import ACCEPT_TOL
from essmod.polynomials import exact_zero_points
from essmod.sections import PiecewiseSection
from poly_oracle import GaussianPoly, int_parts, polys
from essmod.subsets import Interval, SymbolicSubset


@dataclass(frozen=True)
class ComplexRational:
    """Gaussian rational re + im·i with exact Fraction parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "ComplexRational":
        o = other if isinstance(other, ComplexRational) else ComplexRational(other)
        return ComplexRational(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: "ComplexRational") -> "ComplexRational":
        num, d = self * other.conj(), other.re * other.re + other.im * other.im
        return ComplexRational(num.re / d, num.im / d)

    def conj(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


cr = ComplexRational


def vec_is_zero(v) -> bool:
    return all(x.is_zero() for x in v)


def poly_at(p: GaussianPoly, x) -> ComplexRational:
    return ComplexRational(p.re(Fraction(x)), p.im(Fraction(x)))


def value_at(m, x) -> tuple:
    """m(x) as ComplexRationals, from the piece that holds x (the last one at 1)."""
    return tuple(poly_at(p, x) for p in polys(m.pieces[m.piece_index_for_interval(Fraction(x))]))


def zero_section(d: int, inner) -> PiecewiseSection:
    """The zero section with the increasing inner breakpoints `inner`: m plus
    it is m refined there."""
    return PiecewiseSection(d, (Fraction(0), *inner, Fraction(1)), PiecewiseSection.zero(d).pieces * (len(inner) + 1))


def fraction_poly_json(p: GaussianPoly) -> list:
    """The coefficients of p printed one Fraction at a time."""
    pairs = zip_longest(p.re.coeffs, p.im.coeffs, fillvalue=Fraction(0))
    return [[serialize.frac_to_json(re), serialize.frac_to_json(im)] for re, im in pairs]


CR_ZERO = cr(0)
CR_ONE = cr(1)


def mat(rows):
    return tuple(tuple(e if isinstance(e, ComplexRational) else cr(e) for e in row) for row in rows)


def mat_shape(a):
    return (len(a), len(a[0]) if a else 0)


def mat_identity(n):
    return tuple(tuple(CR_ONE if i == j else CR_ZERO for j in range(n)) for i in range(n))


def matrix_of(columns, d):
    """The d×r ComplexRational matrix with these Gaussian-integer columns."""
    return tuple(tuple(cr(*col[i]) for col in columns) for i in range(d))


def crat_from_json(v):
    """An exact complex scalar [re, im] as a ComplexRational of two Fractions."""
    return ComplexRational(*(Fraction(*part) for part in serialize._crat_parts(v)))


def cleared_columns(a):
    """The columns of the matrix a, each cleared of its denominators."""
    return tuple(clear_denominators([row[k] for row in a]) for k in range(mat_shape(a)[1]))


def clear_denominators(v):
    """The Gaussian-integer vector (pairs (re, im)) that is v times the
    least common denominator of its parts."""
    den = lcm(*(x.re.denominator for x in v), *(x.im.denominator for x in v))
    return tuple(
        (x.re.numerator * (den // x.re.denominator), x.im.numerator * (den // x.im.denominator))
        for x in v
    )


def mat_mul(a, b):
    if mat_shape(a)[1] != len(b):
        raise ValueError("matrix shapes do not compose")
    cols = mat_shape(b)[1]
    return tuple(
        tuple(sum((row[l] * b[l][j] for l in range(len(b))), CR_ZERO) for j in range(cols))
        for row in a
    )


def mat_conj_t(a):
    n, m = mat_shape(a)
    return tuple(tuple(a[i][j].conj() for i in range(n)) for j in range(m))


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), CR_ZERO) for row in a)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _gauss_jordan(rows, ncols):
    """Reduce rows in place on their first ncols columns, later columns
    riding along; return the pivot columns."""
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = CR_ONE / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def mat_rank(a):
    """Exact rank: the number of pivots."""
    return len(_gauss_jordan([list(r) for r in a], mat_shape(a)[1]))


def mat_inverse(a):
    """Exact inverse by reducing [A | I]; ValueError on singular input."""
    n, m = mat_shape(a)
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + list(e) for row, e in zip(a, mat_identity(n))]
    if len(_gauss_jordan(aug, n)) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in aug)


def column_basis(a):
    """The pivot columns of a: a basis of its column space."""
    n, m = mat_shape(a)
    pivots = _gauss_jordan([list(r) for r in a], m)
    return tuple(tuple(a[i][j] for j in pivots) for i in range(n))


def orthogonal_projector(basis, d):
    """B(B*B)⁻¹B* onto the column span of the d×r matrix B (r may be 0)."""
    b = column_basis(basis) if mat_shape(basis)[1] else ()
    if mat_shape(b)[1] == 0:
        return tuple(tuple(CR_ZERO for _ in range(d)) for _ in range(d))
    bh = mat_conj_t(b)
    return mat_mul(b, mat_mul(mat_inverse(mat_mul(bh, b)), bh))


def complement(basis, d):
    """I − P: it maps v to the part of v outside col B."""
    return mat_sub(mat_identity(d), orthogonal_projector(basis, d))


def outside(basis, d, v) -> bool:
    return not vec_is_zero(mat_vec(complement(basis, d), v))


def basis_at(field, x):
    return next(matrix_of(p.basis, field.d) for p in field.pieces if p.region.contains(x))


def projector_at(field, x):
    return orthogonal_projector(basis_at(field, x), field.d)


def outside_at(field, x, v) -> bool:
    return outside(basis_at(field, x), field.d, v)


def partition_bounds(field) -> list:
    """0, 1 and every boundary of the field's partition, sorted as Fractions."""
    ends = {Fraction(0), Fraction(1)}
    for p in field.pieces:
        ends |= {*p.region.points, *(x for iv in p.region.intervals for x in (iv.lo, iv.hi))}
    return sorted(ends)


def owner(field, x) -> int:
    """The index of the partition piece that contains x."""
    return next(i for i, p in enumerate(field.pieces) if p.region.contains(x))


def atoms(field, breakpoints) -> list:
    """(lo, hi, owner) for every point (lo == hi) and open gap in order, cut
    at the partition's and the section's boundaries: a point's owner is read
    at the point, a gap's at its midpoint."""
    bounds = sorted({*partition_bounds(field), *breakpoints})
    out = []
    for x, y in zip(bounds, bounds[1:]):
        out += [(x, x, owner(field, x)), (x, y, owner(field, (x + y) / 2))]
    return out + [(bounds[-1], bounds[-1], owner(field, bounds[-1]))]


@cache
def complements(field) -> tuple:
    """I − P for every piece of the field, each computed once per field."""
    return tuple(complement(matrix_of(p.basis, field.d), field.d) for p in field.pieces)


def residual_set(m, field) -> SymbolicSubset:
    """{x : m(x) ∉ L_x} with I − P applied on every atom."""
    comps = complements(field)
    points, intervals = [], []
    for lo, hi, i in atoms(field, m.breakpoints):
        comp = comps[i]
        if lo == hi:
            if not vec_is_zero(mat_vec(comp, value_at(m, lo))):
                points.append(lo)
            continue
        piece = polys(m.pieces[m.piece_index_for_interval(lo)])
        resid = []
        for row in comp:
            acc = GaussianPoly.zero()
            for c, p in zip(row, piece):
                acc = acc + p * GaussianPoly.const(c.re, c.im)
            resid.append(acc)
        if all(p.is_zero() for p in resid):
            continue
        zeros = exact_zero_points(int_parts(resid), lo, hi)
        cuts = [lo, *sorted(z for z in zeros if lo < z < hi), hi]
        intervals.extend(Interval(a, b, False, False) for a, b in zip(cuts, cuts[1:]))
    return SymbolicSubset(points=tuple(points), intervals=tuple(intervals))


def svd_is_projection(p) -> bool:
    """p* = p entrywise and p² = p in norm, within ACCEPT_TOL·(1 + ‖p‖),
    each norm an SVD: the reference for `algebra.is_projection`, which
    decides most inputs from entry bounds without a norm."""
    scale = ACCEPT_TOL * (1.0 + p.norm())
    hermitian = all(np.max(np.abs(b - b.conj().T), initial=0.0) <= scale for b in p.blocks)
    return hermitian and (p * p).distance(p) <= scale
