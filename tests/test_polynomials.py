import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from poly_oracle import GaussianPoly, RationalPoly, int_parts, oracle_divmod, oracle_gcd, piece, poly_divmod, trim

from projector_oracle import cr, value_at

from essmod.errors import IrrationalRoot
from essmod.sections import PiecewiseSection, _scaled_value, pointwise_inner
from essmod.polynomials import (
    _exact_quotient,
    _primitive,
    _signs,
    _sturm_chain,
    _value,
    certify_only_rational_roots,
    exact_zero_points,
    poly_gcd,
)


def p(*coeffs):
    return RationalPoly(tuple(F(c) for c in coeffs))


def certify(q: RationalPoly, lo: F, hi: F) -> list[F]:
    """The kernel's certified roots of q, from its integer coefficients."""
    return certify_only_rational_roots(q.ints, lo, hi)


def gcd_of(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """The kernel's gcd of a and b, made monic."""
    return RationalPoly(poly_gcd(a.ints, b.ints)).monic()


def squarefree_part(q: RationalPoly) -> RationalPoly:
    """The first member of the kernel's Sturm chain, made monic."""
    return RationalPoly(tuple(_sturm_chain(_primitive(q.ints))[0])).monic()


def count_distinct_real_roots(q: RationalPoly, lo: F, hi: F) -> int:
    """Distinct real roots in (lo, hi], for q(lo) ≠ 0, from the kernel's
    Sturm chain."""
    chain = _sturm_chain(_primitive(q.ints))
    return _signs(chain, lo)[0] - _signs(chain, hi)[0]


# --- reference certifier: the rational root theorem by divisor enumeration,
# plus a Sturm count over Q with Fraction Euclid, independent of the
# integer isolation kernel it checks

def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def oracle_rational_roots(q: RationalPoly) -> list[F]:
    """All rational roots of q (without multiplicity), sorted ascending."""
    cs = list(q.coeffs)
    roots = set()
    while cs[0] == 0:
        roots.add(F(0))
        cs = cs[1:]
    if len(cs) > 1:
        den = math.lcm(*(c.denominator for c in cs))
        ics = [int(c * den) for c in cs]
        for num in _divisors(ics[0]):
            for d in _divisors(ics[-1]):
                for cand in (F(num, d), F(-num, d)):
                    if q(cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def oracle_sturm_count(q: RationalPoly, lo: F, hi: F) -> int:
    """Distinct real roots of q in (lo, hi], for q(lo) ≠ 0."""
    g = oracle_gcd(q, RationalPoly(tuple(c * i for i, c in enumerate(q.coeffs) if i > 0)))
    sf = poly_divmod(q, g)[0]
    seq = [sf, RationalPoly(tuple(c * i for i, c in enumerate(sf.coeffs) if i > 0))]
    while not seq[-1].is_zero():
        seq.append(-poly_divmod(seq[-2], seq[-1])[1])
    seq.pop()

    def variations(x):
        signs = [v > 0 for v in (s(x) for s in seq) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


def oracle_certify(q: RationalPoly, lo: F, hi: F) -> list[F]:
    """The rational roots in [lo, hi]; raises IrrationalRoot when q, with its
    rational roots divided out, keeps a Sturm-counted root in (lo, hi]."""
    roots = oracle_rational_roots(q)
    reduced = q
    for r in roots:
        while True:
            quo, rem = poly_divmod(reduced, p(-r, 1))
            if not rem.is_zero():
                break
            reduced = quo
    if reduced.degree >= 1 and lo < hi and oracle_sturm_count(reduced, lo, hi) > 0:
        raise IrrationalRoot("oracle")
    return [r for r in roots if lo <= r <= hi]


def test_eval_and_degree():
    """The integer kernels read a list with trailing zeros as its trimmed self."""
    q = [1, -2, 1, 0, 0]  # (x-1)^2
    assert _value(q[:3], 1, 1) == 0 and _value(q[:3], 3, 1) == 4
    assert poly_gcd(q, [0]) == [1, -2, 1] and poly_gcd([], [0, 0]) == []
    assert poly_gcd([-2, 4], [3, -6, 0]) == [-1, 2]  # primitive, positive leading coefficient
    assert certify_only_rational_roots(q, F(0), F(2)) == [F(1)]
    with pytest.raises(ValueError):
        certify_only_rational_roots([0, 0], F(0), F(1))


def test_gcd_of_shared_factor():
    shared = p(-1, 2)  # 2x - 1
    a = shared * p(3, 1)
    b = shared * p(-5, 0, 7)
    g = gcd_of(a, b)
    assert g == shared.monic()


def test_squarefree_part_strips_multiplicity():
    q = p(-1, 1) * p(-1, 1) * p(2, 1)
    sf = squarefree_part(q)
    assert sf == (p(-1, 1) * p(2, 1)).monic()


def test_rational_roots_complete():
    # roots 0, 1/2, -3
    q = p(0, 1) * p(-1, 2) * p(3, 1)
    assert certify(q, F(-4), F(4)) == [F(-3), F(0), F(1, 2)]


def test_rational_roots_ignores_irrational():
    q = p(-2, 0, 1)  # x^2 - 2
    assert certify(q, F(0), F(1)) == []
    with pytest.raises(IrrationalRoot):
        certify(q, F(0), F(2))


def test_sturm_counts_distinct_roots():
    q = p(-2, 0, 1)  # roots ±√2
    assert count_distinct_real_roots(q, F(0), F(2)) == 1
    assert count_distinct_real_roots(q, F(-2), F(2)) == 2
    assert count_distinct_real_roots(q, F(2), F(3)) == 0
    # multiple root counted once
    sq = p(-1, 1) * p(-1, 1)
    assert count_distinct_real_roots(sq, F(0), F(2)) == 1


def test_sturm_count_across_a_degree_gap():
    # the chain of x^4 + x + c drops from degree 3 to 1 with a negative
    # leading coefficient, where the pseudo-remainder's sign must be undone
    assert count_distinct_real_roots(p(-1, 1, 0, 0, 1), F(-3), F(3)) == 2
    assert count_distinct_real_roots(p(1, 1, 0, 0, 1), F(-3), F(3)) == 0
    assert certify(p(1, 1, 0, 0, 1), F(-3), F(3)) == []
    with pytest.raises(IrrationalRoot):
        certify(p(-1, 1, 0, 0, 1), F(0), F(1))


def test_certify_returns_rational_roots_in_range():
    q = p(0, 1) * p(-1, 2)
    assert certify(q, F(0), F(1)) == [F(0), F(1, 2)]


def test_certify_raises_on_irrational_root():
    half = p(F(-1, 2), 0, 1)  # x^2 - 1/2, root 1/√2 ≈ 0.707
    with pytest.raises(IrrationalRoot):
        certify(half, F(0), F(1))
    # a rational root alongside an irrational one still raises
    with pytest.raises(IrrationalRoot):
        certify(half * p(-1, 2), F(0), F(1))
    # but outside the interval the irrational root is invisible
    assert certify(half, F(0), F(1, 2)) == []


def test_gaussian_poly_arithmetic_and_conj():
    """(1 + i x)·conj(1 + i x) = 1 + x², on the column pieces of sections."""
    g = GaussianPoly(p(1), p(0, 1))
    m = PiecewiseSection.polynomial([[(1, 0), (0, 1)]])
    m_conj = PiecewiseSection.polynomial([[(1, 0), (0, -1)]])
    assert m.pieces == (piece((g,)),)
    assert m_conj.pieces == (piece((g.conj(),)),)
    assert m.mul_scalar_section(m_conj).pieces == (piece((g * g.conj(),)),) == ((1, (((1, 0),), ((0, 0),), ((1, 0),))),)
    assert (pointwise_inner(m, m) - m_conj.mul_scalar_section(m)).is_zero()
    assert _scaled_value(m.pieces[0][1], F(1, 2)) == ((2, 1),)  # 2·(1 + i/2)


def test_exact_zero_points_common_factor():
    g1 = GaussianPoly(p(0, 1) * p(-1, 1), p(0))  # x(x-1)
    g2 = GaussianPoly(p(0, 1) * p(-2, 1), p(0))  # x(x-2)
    assert exact_zero_points(int_parts([g1, g2]), F(-3), F(3)) == [F(0)]


def test_exact_zero_points_modes():
    # identically zero
    assert exact_zero_points(int_parts([GaussianPoly.zero()]), F(0), F(1)) is None
    assert exact_zero_points([[0, 0], []], F(0), F(1)) is None
    # no zeros: nonzero constant
    assert exact_zero_points(int_parts([GaussianPoly(p(3), p(0))]), F(0), F(1)) == []
    # imaginary and real parts constrain jointly: re has roots {0, 1/2}, im has {1/2}
    g = GaussianPoly(p(0, 1) * p(-1, 2), p(-1, 2))
    assert exact_zero_points(int_parts([g]), F(0), F(1)) == [F(1, 2)]


def test_exact_zero_points_irrational_rejected():
    g = GaussianPoly(p(F(-1, 2), 0, 1), p(0))  # x^2 - 1/2
    with pytest.raises(IrrationalRoot):
        exact_zero_points(int_parts([g]), F(0), F(1))


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=8)
polys = st.lists(small_fracs, min_size=0, max_size=4).map(lambda cs: RationalPoly(tuple(cs)))


@settings(deadline=None, max_examples=200)
@given(polys, polys, small_fracs)
def test_product_evaluates_pointwise(a, b, x):
    """Products and sums of real scalar sections evaluate pointwise."""
    sa, sb = (PiecewiseSection.polynomial([q.coeffs]) for q in (a, b))
    assert value_at(sa.mul_scalar_section(sb), x) == (cr(a(x) * b(x)),)
    assert value_at(sa + sb, x) == (cr(a(x) + b(x)),)


@settings(deadline=None, max_examples=200)
@given(polys, polys)
def test_gcd_divides_both(a, b):
    g = gcd_of(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    for q in (a, b):
        _, r = poly_divmod(q, g)
        assert r.is_zero()


@settings(deadline=None, max_examples=150)
@given(polys)
def test_rational_roots_are_roots(a):
    if a.is_zero():
        return
    # every real root lies within Cauchy's bound
    bound = 1 + max(abs(c / a.coeffs[-1]) for c in a.coeffs)
    try:
        roots = certify(a, -bound, bound)
    except IrrationalRoot:
        with pytest.raises(IrrationalRoot):
            oracle_certify(a, -bound, bound)
        return
    assert roots == oracle_rational_roots(a)
    for r in roots:
        assert a(r) == 0


@st.composite
def factored_polys(draw):
    """A product of rational linear factors, squared factors and quadratics
    (irreducible ones among them), with an interval whose ends are often
    roots, sometimes equal."""
    q, marks = p(draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))), []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["linear", "square", "quadratic"]))
        if kind == "quadratic":
            q = q * p(draw(st.integers(-6, 6)), draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
            continue
        r = F(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
        marks.append(r)
        q = q * p(-r, 1) * (p(-r, 1) if kind == "square" else p(1))
    spans = st.fractions(min_value=-7, max_value=7, max_denominator=6)
    ends = st.one_of(st.sampled_from(marks), spans) if marks else spans
    lo, hi = sorted([draw(ends), draw(ends)])
    if draw(st.integers(0, 4)) == 0:
        hi = lo
    return q, lo, hi


@settings(deadline=None, max_examples=300)
@given(factored_polys())
def test_certify_matches_divisor_enumeration(case):
    q, lo, hi = case
    try:
        expected = oracle_certify(q, lo, hi)
    except IrrationalRoot:
        with pytest.raises(IrrationalRoot):
            certify(q, lo, hi)
        return
    assert certify(q, lo, hi) == expected


@pytest.mark.parametrize("bits", [60, 90, 120])
def test_certify_large_denominators(bits):
    """Six rational roots with `bits`-bit denominators times a quadratic:
    the degree-8 product's coefficients run to about 6·bits bits, far past
    what divisor enumeration can factor."""
    rng = random.Random(bits)
    roots = []
    for _ in range(6):
        v = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        roots.append(F(rng.randrange(1, v // 2), v))
    linear = p(1)
    for r in roots:
        linear = linear * p(-r.numerator, r.denominator)
    # x^2 + 2 has no real root: all six roots are certified
    assert certify(linear * p(2, 0, 1), F(0), F(1)) == sorted(roots)
    # 3x^2 - 1 has the irrational root 1/√3 ≈ 0.577, beyond every planted one
    with pytest.raises(IrrationalRoot):
        certify(linear * p(-1, 0, 3), F(0), F(1))
    assert certify(linear * p(-1, 0, 3), F(0), F(1, 2)) == sorted(roots)
    assert certify(linear * p(-1, 0, 3), roots[0], roots[0]) == [roots[0]]


def fraction_horner(q: RationalPoly, x: F) -> F:
    acc = F(0)
    for c in reversed(q.coeffs):
        acc = acc * x + c
    return acc


wide_fracs = st.builds(F, st.integers(-(2**64), 2**64), st.integers(1, 2**200))
wide_points = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(-7, 3)]),
    wide_fracs,
    st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 2**200)),
)


def kernel_value(q: RationalPoly, x: F) -> F:
    """q(x) from the integer Horner kernel: v^n·L·q(u/v) over L·v^n, L the
    coefficients' common denominator and n the degree."""
    if q.is_zero():
        return F(_value([0], x.numerator, x.denominator))
    den = math.lcm(*(c.denominator for c in q.coeffs))
    return F(_value(q.ints, x.numerator, x.denominator), den * x.denominator ** q.degree)


@settings(deadline=None, max_examples=300)
@given(st.lists(wide_fracs, max_size=8).map(lambda cs: RationalPoly(tuple(cs))), wide_points)
def test_integer_horner_matches_fraction_horner(q, x):
    """Coefficients with 200-bit denominators, the zero and constant
    polynomials among them (trailing zeros are dropped)."""
    assert kernel_value(q, x) == fraction_horner(q, x)


def test_integer_horner_edge_cases():
    assert kernel_value(RationalPoly.zero(), F(5, 3)) == 0
    assert kernel_value(RationalPoly.const(F(-2, 7)), F(10**30, 3)) == F(-2, 7)
    q = p(F(1, 2**200), F(-3, 5), 0, F(7, 2**199 + 1))
    for x in (F(0), F(1), F(-1), F(-5, 2), F(3, 2**200 + 1), F(-2)):
        assert kernel_value(q, x) == fraction_horner(q, x)


# --- the integer representation against a Fraction-list oracle ----------------------

def oracle_add(a, b):
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def oracle_mul(a, b):
    out = [F(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def assert_canonical(m: PiecewiseSection, cs) -> None:
    """The real scalar section m holds the Fraction list cs as one piece of
    integer numerators over one positive denominator, in lowest terms, with
    no zero column past the first."""
    ((den, cols),) = m.pieces
    nums = [x for ((x, y),) in cols]
    assert all(type(n) is int for n in nums) and type(den) is int and not any(y for ((_, y),) in cols)
    assert den > 0 and math.gcd(den, *nums) == 1
    assert len(nums) == 1 or nums[-1] != 0
    assert trim(F(n, den) for n in nums) == trim(cs)


fraction_lists = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), max_size=5)


@settings(deadline=None, max_examples=150)
@given(fraction_lists, fraction_lists, st.fractions(min_value=-4, max_value=4, max_denominator=9), small_fracs)
def test_integer_poly_matches_fraction_list_oracle(a_cs, b_cs, c, x):
    """The section algebra on scalar column pieces, against Fraction lists."""
    a, b = (PiecewiseSection.polynomial([cs]) for cs in (a_cs, b_cs))
    ta, tb = trim(a_cs), trim(b_cs)
    assert_canonical(a, ta)
    assert_canonical(b, tb)
    assert_canonical(a + b, oracle_add(ta, tb))
    assert_canonical(a - b, oracle_add(ta, [-y for y in tb]))
    assert_canonical(-a, [-y for y in ta])
    assert_canonical(a.mul_scalar_section(b), oracle_mul(ta, tb))
    assert_canonical(a.scale(c), [y * c for y in ta])
    assert value_at(a, x) == (cr(sum((y * x**i for i, y in enumerate(ta)), F(0))),)
    # equality and hashing follow the coefficients, not how they were written
    assert (a == b) == (ta == tb) == (a - b).is_zero()
    twin = PiecewiseSection.polynomial([[F(y.numerator * 3, y.denominator * 3) for y in ta] + [0, F(0, 7)]])
    assert twin == a and hash(twin) == hash(a)


int_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=5)


@settings(deadline=None, max_examples=150)
@given(int_lists, int_lists)
def test_exact_quotient_matches_long_division(a, b):
    """Dividing a·b by b in Z[x] gives back a, as Fraction long division does."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return
    prod = [int(c) for c in oracle_mul(a, b)]
    assert _exact_quotient(prod, list(b)) == list(a)
    assert oracle_divmod(prod, b) == (a, ())


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.tuples(fraction_lists, fraction_lists), min_size=1, max_size=4),
    st.fractions(min_value=0, max_value=1, max_denominator=2**20),
)
def test_integer_piece_value_is_a_positive_multiple(parts, x):
    """`_scaled_value` gives a Gaussian-integer vector w = λ·piece(x) with
    one rational λ > 0 for every coordinate and part."""
    row = tuple(GaussianPoly(RationalPoly(re), RationalPoly(im)) for re, im in parts)
    w = _scaled_value(piece(row)[1], x)
    v = [(p.re(x), p.im(x)) for p in row]
    assert len(w) == len(v) and all(type(t) is int for pair in w for t in pair)
    flat_w, flat_v = [t for pair in w for t in pair], [t for pair in v for t in pair]
    nonzero = [i for i, t in enumerate(flat_v) if t != 0]
    if not nonzero:
        assert not any(flat_w)
        return
    lam = flat_w[nonzero[0]] / flat_v[nonzero[0]]
    assert lam > 0
    assert all(tw == lam * tv for tw, tv in zip(flat_w, flat_v))
