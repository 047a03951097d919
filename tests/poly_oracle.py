"""Reference polynomials over Q and Q(i), in Fraction arithmetic and
independent of the integer kernels in `essmod.polynomials` and the column
pieces of `essmod.sections`, which the tests check against them.

`RationalPoly` is a Fraction coefficient tuple, ascending with no trailing
zero; `GaussianPoly` is a real and an imaginary one (the variable is
real). `piece` and `polys` convert between a tuple of GaussianPoly and a
section piece (D, cols), `section` builds a PiecewiseSection from rows of
them, and `int_parts` gives the integer coefficient lists the root
kernels take. Also: schoolbook long division, Euclid's gcd over Q, and
the per-part scaled value of a piece, the reference for
`sections._scaled_value`."""

from dataclasses import dataclass
from fractions import Fraction as F
from itertools import zip_longest
from math import lcm

from essmod.sections import PiecewiseSection, from_coeffs


def trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True, init=False)
class RationalPoly:
    """Dense polynomial over Q: `coeffs` ascending Fractions, no trailing zero."""

    coeffs: tuple

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", trim(F(c) for c in coeffs))

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "RationalPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def ints(self) -> list[int]:
        """The coefficients times their least common denominator."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return [int(c * den) for c in self.coeffs]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x) -> F:
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        return RationalPoly(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, RationalPoly):
            return RationalPoly(c * F(other) for c in self.coeffs)
        out = [F(0)] * max(0, len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def monic(self) -> "RationalPoly":
        return self * (1 / self.coeffs[-1]) if self.coeffs else self


@dataclass(frozen=True)
class GaussianPoly:
    """Polynomial with Gaussian-rational coefficients, kept as a real and an
    imaginary rational polynomial."""

    re: RationalPoly
    im: RationalPoly

    @classmethod
    def zero(cls) -> "GaussianPoly":
        return cls(RationalPoly(), RationalPoly())

    @classmethod
    def const(cls, re, im=0) -> "GaussianPoly":
        return cls(RationalPoly.const(re), RationalPoly.const(im))

    @classmethod
    def from_coeffs(cls, coeffs) -> "GaussianPoly":
        """The polynomial with these ascending (re, im) coefficient pairs."""
        cs = list(coeffs)
        return cls(RationalPoly(re for re, _ in cs), RationalPoly(im for _, im in cs))

    @property
    def degree(self) -> int:
        return max(self.re.degree, self.im.degree)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __add__(self, other: "GaussianPoly") -> "GaussianPoly":
        return GaussianPoly(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianPoly") -> "GaussianPoly":
        return GaussianPoly(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianPoly":
        return GaussianPoly(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianPoly):
            return GaussianPoly(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)
        return GaussianPoly(self.re * other, self.im * other)

    __rmul__ = __mul__

    def conj(self) -> "GaussianPoly":
        """Coefficientwise conjugate; evaluates to conj(p(x)) for real x."""
        return GaussianPoly(self.re, -self.im)


def piece(row) -> tuple:
    """The section piece (D, cols) of a tuple of GaussianPoly."""
    return from_coeffs([list(zip_longest(p.re.coeffs, p.im.coeffs, fillvalue=0)) for p in row])


def polys(pc) -> tuple:
    """The tuple of GaussianPoly of a section piece (D, cols)."""
    den, cols = pc
    return tuple(GaussianPoly(*(RationalPoly(F(col[i][t], den) for col in cols) for t in (0, 1)))
                 for i in range(len(cols[0])))


def section(d: int, breakpoints, rows) -> PiecewiseSection:
    """The section with these breakpoints whose pieces are rows of GaussianPoly."""
    return PiecewiseSection(d, tuple(breakpoints), tuple(piece(row) for row in rows))


def scalar(p: GaussianPoly) -> PiecewiseSection:
    """The scalar section p on all of [0, 1]."""
    return section(1, (0, 1), ((p,),))


def int_parts(ps) -> list[list[int]]:
    """The integer coefficient lists of the real and imaginary parts of ps."""
    return [q.ints for p in ps for q in (p.re, p.im)]


def oracle_divmod(a, b):
    """Schoolbook long division of Fraction lists, b without trailing zeros."""
    rem, q = list(a), [F(0)] * max(0, len(a) - len(b) + 1)
    for pos in reversed(range(len(q))):
        q[pos] = rem[pos + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            rem[pos + i] -= q[pos] * c
    return trim(q), trim(rem)


def poly_divmod(a: RationalPoly, b: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Quotient and remainder of a by the nonzero b, through `oracle_divmod`."""
    q, r = oracle_divmod(a.coeffs, b.coeffs)
    return RationalPoly(q), RationalPoly(r)


def oracle_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Monic gcd by Euclid's algorithm over Q, through `poly_divmod`."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return a.monic()


def per_part_scaled_value(row, x: F):
    """D·v^n·(row at x = u/v) in Gaussian integers, one Fraction Horner pass
    per real or imaginary part: n the largest degree, D the parts' common
    denominator."""
    parts = [q for p in row for q in (p.re, p.im)]
    n = max(0, *(q.degree for q in parts))
    den = lcm(*(c.denominator for q in parts for c in q.coeffs))
    vals = [int(q(x) * den * x.denominator ** n) for q in parts]
    return tuple(zip(vals[::2], vals[1::2]))
