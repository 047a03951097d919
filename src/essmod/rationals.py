"""Exact Gaussian-rational scalars and small exact matrices.

The continuous-field layer never touches floating point: scalars are
complex numbers with Fraction real and imaginary parts, matrices are plain
nested tuples of them. Sizes stay tiny (fiber dimension ≤ 4), so one naive
Gauss-Jordan kernel, `_rref`, computes the annihilator. An annihilator is
kept in Gaussian integers, pairs (re, im) of ints, so that membership
tests against it need no Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class ComplexRational:
    """Gaussian rational re + im·i with exact Fraction parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, ComplexRational):
            return ComplexRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        f = _frac(other)
        return ComplexRational(self.re * f, self.im * f)

    def __rmul__(self, other) -> "ComplexRational":
        return self * other

    def __truediv__(self, other: "ComplexRational") -> "ComplexRational":
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        num = self * other.conj()
        return ComplexRational(num.re / d, num.im / d)

    def conj(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"({self.re})+({self.im})i"


CR_ZERO = ComplexRational(Fraction(0), Fraction(0))
CR_ONE = ComplexRational(Fraction(1), Fraction(0))


def cr(re, im=0) -> ComplexRational:
    """Shorthand constructor accepting ints, Fractions, or 'p/q' strings."""
    return ComplexRational(_frac(re), _frac(im))


# --- exact matrices as tuples of row tuples --------------------------------

Matrix = tuple[tuple[ComplexRational, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(e if isinstance(e, ComplexRational) else cr(e) for e in row) for row in rows)


def mat_shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(CR_ONE if i == j else CR_ZERO for j in range(n)) for i in range(n))


def _rref(rows: list[list[ComplexRational]]) -> list[int]:
    """Reduce `rows` in place to reduced row echelon form (Gauss-Jordan:
    unit pivots, zeros above and below); return the pivot columns."""
    n = len(rows)
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        if rank == n:
            break
        piv = next((r for r in range(rank, n) if not rows[r][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv_piv = CR_ONE / rows[rank][col]
        rows[rank] = [x * inv_piv for x in rows[rank]]
        for r in range(n):
            if r != rank and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


GaussianIntVector = tuple[tuple[int, int], ...]


def clear_denominators(v) -> GaussianIntVector:
    """The Gaussian-integer vector (pairs (re, im)) that is v times the
    least common denominator of its parts."""
    den = lcm(*(x.re.denominator for x in v), *(x.im.denominator for x in v))
    return tuple(
        (x.re.numerator * (den // x.re.denominator), x.im.numerator * (den // x.im.denominator))
        for x in v
    )


def annihilator(basis: Matrix, d: int) -> tuple[GaussianIntVector, ...]:
    """Gaussian-integer rows a spanning {a : a·B = 0} for the d×r matrix B,
    so that {v : a·v = 0 for every row} is exactly the column span of B.

    Read off the RREF of Bᵀ (transposed, not conjugated: a·v is the plain
    bilinear product): one kernel vector per free column. No columns give
    the identity rows, a basis of rank d gives none."""
    rows = [[basis[i][k] for i in range(d)] for k in range(mat_shape(basis)[1])]
    pivots = _rref(rows)
    out = []
    for f in range(d):
        if f in pivots:
            continue
        vec = [CR_ZERO] * d
        vec[f] = CR_ONE
        for row, p in zip(rows, pivots):
            vec[p] = -row[f]
        out.append(clear_denominators(vec))
    return tuple(out)


def vec_is_zero(v: tuple[ComplexRational, ...]) -> bool:
    return all(x.is_zero() for x in v)
