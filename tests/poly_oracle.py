"""Reference polynomial division over Q: schoolbook long division of
Fraction coefficient lists, independent of the integer kernels in
`essmod.polynomials`, which the tests check against it. Also the per-part
scaled value of a section piece, the reference for the column kernel of
`essmod.sections`."""

from fractions import Fraction as F
from math import lcm

from essmod.polynomials import RationalPoly, _value


def trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


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


def per_part_scaled_value(piece, x: F):
    """D·v^n·(piece at x = u/v) in Gaussian integers, one integer Horner pass
    per real or imaginary part: n the largest degree, D the parts' common
    denominator."""
    u, v = x.numerator, x.denominator
    parts = [q for p in piece for q in (p.re, p.im)]
    n, den = max(q.degree for q in parts), lcm(*(q.den for q in parts))
    vals = [_value(q.nums, u, v) * v ** (n - q.degree) * (den // q.den) if q.nums else 0 for q in parts]
    return tuple(zip(vals[::2], vals[1::2]))
