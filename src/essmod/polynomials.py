"""Univariate polynomials with exact rational coefficients, Gaussian
polynomials as pairs of them, and exact real-root location on intervals.
A rational polynomial is its integer numerators over one positive
denominator, in lowest terms (Knuth, TAOCP vol. 2 §4.6.1), so that
arithmetic, evaluation and the root code below run in integers.

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

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import IrrationalRoot


@dataclass(init=False, unsafe_hash=True, slots=True)
class RationalPoly:
    """Dense polynomial over Q: `nums` ascending, no trailing zero, over `den` > 0, in lowest terms."""

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs=()):
        p = _over_lcm([Fraction(c).as_integer_ratio() for c in coeffs])
        self.nums, self.den = p.nums, p.den

    @classmethod
    def _of(cls, nums: tuple[int, ...], den: int) -> "RationalPoly":
        """An operation's result, already in lowest terms: built unchecked."""
        out = object.__new__(cls)
        out.nums, out.den = nums, den
        return out

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls._of((), 1)

    @classmethod
    def const(cls, c) -> "RationalPoly":
        c = Fraction(c)
        return cls._of((c.numerator,) if c else (), c.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, ascending, as Fractions (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __call__(self, x: Fraction) -> Fraction:
        """p(u/v) from the integer den·v^deg·p(u/v): integer Horner, one division."""
        if not self.nums:
            return Fraction(0)
        return Fraction(_value(self.nums, x.numerator, x.denominator), self.den * x.denominator ** self.degree)

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return _norm([a * sa + b * sb for a, b in zip_longest(self.nums, other.nums, fillvalue=0)], den)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly._of(tuple(-c for c in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, RationalPoly):
            if not self.nums or not other.nums:
                return RationalPoly.zero()
            out = [0] * (len(self.nums) + len(other.nums) - 1)
            for i, a in enumerate(self.nums):
                if a:
                    for j, b in enumerate(other.nums):
                        out[i + j] += a * b
            return _norm(out, self.den * other.den)
        c = Fraction(other)
        return _norm([a * c.numerator for a in self.nums], self.den * c.denominator)

    def __rmul__(self, other) -> "RationalPoly":
        return self * other

    def monic(self) -> "RationalPoly":
        if not self.nums:
            return self
        g, lead = gcd(*self.nums), self.nums[-1]
        s = g if lead > 0 else -g
        return RationalPoly._of(tuple(c // s for c in self.nums), abs(lead) // g)


def _over_lcm(ratios: list[tuple[int, int]]) -> RationalPoly:
    """Σ (p_i/q_i)·x^i, q_i > 0: the numerators over the lcm of the q_i, reduced once."""
    den = lcm(*(q for _, q in ratios))
    return _norm([p * (den // q) for p, q in ratios], den)


def _norm(nums: list[int], den: int) -> RationalPoly:
    """nums/den (den > 0) in lowest terms, trailing zeros dropped."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    return RationalPoly._of(tuple(c // g for c in nums), den // g)


# --- integer kernels: coefficient lists over Z, ascending, no trailing zeros

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


def real_root_count(p: RationalPoly, lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool) -> int:
    """Distinct real roots of the nonzero p between lo < hi, each end counted
    if closed: V(lo) − V(hi) on the Sturm chain of p counts (lo, hi]."""
    chain = _sturm_chain(_primitive(p.nums))
    (va, sa), (vb, sb) = _signs(chain, lo), _signs(chain, hi)
    return va - vb + (lo_closed and sa[0] == 0) - (not hi_closed and sb[0] == 0)


def poly_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Monic gcd over Q[x]."""
    if a.is_zero() or b.is_zero():
        return (a + b).monic()
    a, b = sorted((_primitive(a.nums), _primitive(b.nums)), key=len, reverse=True)
    return RationalPoly._of(tuple(_remainder_sequence(a, b)[-1]), 1).monic()


def certify_only_rational_roots(p: RationalPoly, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Rational roots of p in the closed interval [lo, hi] (lo ≤ hi), with a
    proof that no other real root lies there; raises IrrationalRoot otherwise.

    Sturm counts on the squarefree part s split [lo, hi] until each piece
    (a, b) holds one root; `inner` is the sign of s just right of a. A root
    at a split point or an end counts in neither neighbouring piece (with
    zeros dropped, the chain's variations there equal those just right)."""
    if p.is_zero():
        raise ValueError("zero polynomial vanishes everywhere")
    chain = _sturm_chain(_primitive(p.nums))
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


@dataclass(frozen=True)
class GaussianPoly:
    """Polynomial with Gaussian-rational coefficients, kept as a real and an
    imaginary rational polynomial (the variable is real)."""

    re: RationalPoly
    im: RationalPoly

    @classmethod
    def zero(cls) -> "GaussianPoly":
        return cls(RationalPoly.zero(), RationalPoly.zero())

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

    def is_real(self) -> bool:
        return self.im.is_zero()

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

    def __rmul__(self, other) -> "GaussianPoly":
        return self * other

    def conj(self) -> "GaussianPoly":
        """Coefficientwise conjugate; evaluates to conj(p(x)) for real x."""
        return GaussianPoly(self.re, -self.im)


def common_real_zero_gcd(polys) -> RationalPoly:
    """Monic gcd whose real roots are exactly the common real zeros of all
    given Gaussian polynomials; the zero polynomial means they all vanish
    identically."""
    g = RationalPoly.zero()
    for part in (q for p in polys for q in (p.re, p.im)):
        if (g := poly_gcd(g, part)).degree == 0:
            break
    return g


def exact_zero_points(polys, lo: Fraction, hi: Fraction):
    """Common zero set of the Gaussian polynomials on [lo, hi].

    Returns None when all polynomials vanish identically (the zero set is
    the whole interval); otherwise the finite sorted list of rational zeros,
    raising IrrationalRoot if an irrational common zero exists there.
    """
    g = common_real_zero_gcd(polys)
    if g.is_zero():
        return None
    if g.degree == 0:
        return []
    return certify_only_rational_roots(g, lo, hi)
