"""Exact Gaussian-rational scalars and small exact matrices.

The continuous-field layer never touches floating point: scalars are
complex numbers with Fraction real and imaginary parts, matrices are plain
nested tuples of them. Sizes stay tiny (fiber dimension ≤ 4), so one naive
Gauss-Jordan kernel, `_rref`, serves inverse, rank and column basis alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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


def mat_zeros(n: int, m: int) -> Matrix:
    return tuple(tuple(CR_ZERO for _ in range(m)) for _ in range(n))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m = mat_shape(a)
    m2, p = mat_shape(b)
    if m != m2:
        raise ValueError("matrix shapes do not compose")
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = CR_ZERO
            for l in range(m):
                acc = acc + a[i][l] * b[l][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_conj_t(a: Matrix) -> Matrix:
    n, m = mat_shape(a)
    return tuple(tuple(a[i][j].conj() for i in range(n)) for j in range(m))


def mat_vec(a: Matrix, v: tuple[ComplexRational, ...]) -> tuple[ComplexRational, ...]:
    return tuple(sum((a[i][j] * v[j] for j in range(len(v))), CR_ZERO) for i in range(len(a)))


def _rref(rows: list[list[ComplexRational]], ncols: int) -> list[int]:
    """Reduce `rows` in place to reduced row echelon form on their first
    `ncols` columns (Gauss-Jordan: unit pivots, zeros above and below);
    return the pivot columns. Later columns ride along, so an augmented
    block receives the same row operations."""
    n = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
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


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by reducing [A | I]; raises ValueError on singular input."""
    n, m = mat_shape(a)
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + list(ident_row) for row, ident_row in zip(a, mat_identity(n))]
    if len(_rref(aug, n)) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in aug)


def mat_rank(a: Matrix) -> int:
    """Exact rank: the number of pivots."""
    return len(_rref([list(r) for r in a], mat_shape(a)[1]))


def column_basis(a: Matrix) -> Matrix:
    """Subset of columns forming a basis of the column space (exact): the
    pivot columns."""
    n, m = mat_shape(a)
    if m == 0:
        return a
    pivots = _rref([list(r) for r in a], m)
    return tuple(tuple(a[i][j] for j in pivots) for i in range(n))


def orthogonal_projector(basis: Matrix) -> Matrix:
    """Exact orthogonal projector B (B*B)^{-1} B* onto the column span.

    Dependent columns are reduced to a basis first, so B*B is invertible;
    the result satisfies P² = P = P* exactly.
    """
    n, m = mat_shape(basis)
    b = column_basis(basis) if m else basis
    if mat_shape(b)[1] == 0:
        return mat_zeros(n, n)
    bh = mat_conj_t(b)
    gram_inv = mat_inverse(mat_mul(bh, b))
    return mat_mul(b, mat_mul(gram_inv, bh))


def vec_is_zero(v: tuple[ComplexRational, ...]) -> bool:
    return all(x.is_zero() for x in v)
