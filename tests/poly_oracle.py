"""Reference polynomial division over Q: schoolbook long division of
Fraction coefficient lists, independent of the integer kernels in
`essmod.polynomials`, which the tests check against it."""

from fractions import Fraction as F

from essmod.polynomials import RationalPoly


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
