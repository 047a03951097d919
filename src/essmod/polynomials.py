"""Exact real-root location for univariate polynomials with integer
coefficients. A polynomial is a list of integers, ascending; trailing zeros
are allowed and [] is the zero polynomial. A Gaussian-rational polynomial
reaches these kernels as the integer lists of its real and imaginary parts
over one positive denominator (`sections`), which moves none of its roots.
The root API is `poly_gcd`, `certify_only_rational_roots` and
`exact_zero_points`, which every root question of the exact stack asks.

Real roots are isolated, never enumerated: a Sturm chain of the primitive
integer squarefree part s of p (primitive remainder sequences keep its
coefficients small) splits the interval until each piece holds one root,
and sign bisection narrows that piece below 1/(2·a_n²), a_n the leading
coefficient of s. A rational root u/v has v | a_n, and two such rationals
lie 1/a_n² apart, so the midpoint's best approximation with denominator
≤ |a_n| is the only candidate; if it is not a root, the root is irrational
and the input is rejected with IrrationalRoot. Cost grows with coefficient
bit length, never with magnitude.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import IrrationalRoot


# --- integer kernels: coefficient lists over Z, ascending (the private ones
# take them without trailing zeros; the public ones trim first)

def _trim(cs) -> list[int]:
    """The list cs without its trailing zeros."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _primitive(cs) -> list[int]:
    """The integer list cs over its content (a list of zeros unchanged)."""
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else list(cs)


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lc(b)^(deg a − deg b + 1)·a by b, in Z[x]."""
    r, lb, db = list(a), b[-1], len(b) - 1
    for top in range(len(a) - 1, db - 1, -1):
        f = r[top]
        r = [lb * c for c in r[:top]]
        for i, c in enumerate(b[:-1]):
            r[top - db + i] -= f * c
    while r and r[-1] == 0:
        r.pop()
    return r


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b, −rem(a, b), … down to gcd(a, b), for deg a ≥ deg b ≥ 0, by
    primitive pseudo-remainders; each member is a positive multiple of the
    classical one, so for b = a' with a squarefree it is a Sturm chain."""
    seq = [a, b]
    while r := _primitive(_prem(seq[-2], seq[-1])):
        # prem = lc(b)^(δ+1)·rem: negate unless that factor is negative
        flip = -1 if seq[-1][-1] > 0 or (len(seq[-2]) - len(seq[-1])) % 2 else 1
        seq.append([flip * c for c in r])
    return seq


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[x], for b dividing a there: long division whose every
    leading coefficient is a multiple of lc(b)."""
    r, q = list(a), [0] * (len(a) - len(b) + 1)
    for pos in reversed(range(len(q))):
        f = q[pos] = r[pos + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            r[pos + i] -= f * c
    return q


def _derivative(cs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _sturm_chain(cs: list[int]) -> list[list[int]]:
    """Sturm chain of the squarefree part s = cs / gcd(cs, cs'), which is
    its first member (the division is exact in Z[x] by Gauss's lemma)."""
    chain = _remainder_sequence(cs, _primitive(_derivative(cs))) if len(cs) > 1 else [cs]
    if len(chain[-1]) > 1:
        s = _exact_quotient(cs, chain[-1])
        chain = _remainder_sequence(s, _primitive(_derivative(s)))
    return chain


def _value(cs: list[int], u: int, v: int) -> int:
    """v^deg · p(u/v): an integer with the sign of p(u/v) when v > 0."""
    acc, w = cs[-1], 1
    for c in reversed(cs[:-1]):
        w *= v
        acc = acc * u + c * w
    return acc


def _signs(chain: list[list[int]], x: Fraction) -> tuple[int, list[int]]:
    """Sign variations of the chain at x, and the signs themselves."""
    signs = [(val > 0) - (val < 0) for val in (_value(q, x.numerator, x.denominator) for q in chain)]
    nz = [s for s in signs if s]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b), signs


def poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd over Q[x], primitive with a positive leading coefficient; []
    when both are zero."""
    a, b = _primitive(_trim(a)), _primitive(_trim(b))
    if a and b:
        a, b = sorted((a, b), key=len, reverse=True)
        a = _remainder_sequence(a, b)[-1]
    g = a or b
    return [-c for c in g] if g and g[-1] < 0 else g


def certify_only_rational_roots(p: list[int], lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Rational roots of p in the closed interval [lo, hi] (lo ≤ hi), with a
    proof that no other real root lies there; raises IrrationalRoot otherwise.

    Sturm counts on the squarefree part s split [lo, hi] until each piece
    (a, b) holds one root; `inner` is the sign of s just right of a. A root
    at a split point or an end counts in neither neighbouring piece (with
    zeros dropped, the chain's variations there equal those just right)."""
    p = _trim(p)
    if not p:
        raise ValueError("zero polynomial vanishes everywhere")
    chain = _sturm_chain(_primitive(p))
    (va, sa), (vb, sb) = _signs(chain, lo), _signs(chain, hi)
    roots = sorted({x for x, sx in ((lo, sa), (hi, sb)) if sx[0] == 0})
    stack = [(lo, hi, va, vb + (sb[0] == 0), sa[0] or sa[1])] if lo < hi else []
    while stack:
        a, b, va, vb, inner = stack.pop()
        if va - vb > 1:
            m = (a + b) / 2
            vm, sm = _signs(chain, m)
            if sm[0] == 0:
                roots.append(m)
            stack += [(a, m, va, vm + (sm[0] == 0), inner), (m, b, vm, vb, sm[0] or sm[1])]
        elif va - vb == 1:
            root = _rational_root_in(chain[0], a, b, inner)
            if root is None:
                raise IrrationalRoot(f"polynomial has an irrational real root in [{lo}, {hi}]")
            roots.append(root)
    return sorted(roots)


def _rational_root_in(s: list[int], a: Fraction, b: Fraction, inner: int) -> Fraction | None:
    """The one root of s in (a, b) if it is rational, else None.

    Bisection on the sign of s narrows (a, b) below 1/(2q²), where one
    rational with denominator ≤ q fits at most: the midpoint's best
    approximation. q doubles its bit length up to |a_n|, so a root with a
    small denominator ends the search early."""
    an, q = abs(s[-1]), 1
    while True:
        q = min(an, 2 * q * q)
        while 2 * q * q * (b - a) >= 1:
            m = (a + b) / 2
            sm = _value(s, m.numerator, m.denominator)
            if sm == 0:
                return m
            if (sm > 0) == (inner > 0):
                a = m
            else:
                b = m
        cand = ((a + b) / 2).limit_denominator(q)
        if a < cand < b and _value(s, cand.numerator, cand.denominator) == 0:
            return cand
        if q == an:
            return None


def exact_zero_points(parts, lo: Fraction, hi: Fraction):
    """Common zero set of the integer polynomials `parts` on [lo, hi], such
    as the real and imaginary parts of Gaussian ones: the real roots of
    their gcd, whose scan stops once it is constant.

    Returns None when all of them vanish identically (the zero set is the
    whole interval); otherwise the finite sorted list of rational zeros,
    raising IrrationalRoot if an irrational common zero exists there.
    """
    g: list[int] = []
    for part in parts:
        if len(g := poly_gcd(g, part)) == 1:
            return []
    return None if not g else certify_only_rational_roots(g, lo, hi)
