import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from poly_oracle import GaussianPoly, RationalPoly, per_part_scaled_value, piece, polys, scalar, section
from projector_oracle import ComplexRational, poly_at, value_at, zero_section

from essmod.errors import DimensionMismatch, IrrationalRoot
from essmod.fields import support_set
from essmod.polynomials import exact_zero_points
from essmod.sections import PiecewiseSection, _scaled_value, bump, pointwise_inner, unit_bump
from essmod.subsets import Interval, SymbolicSubset


def x_section():
    return scalar(GaussianPoly(RationalPoly((0, 1)), RationalPoly.zero()))


def test_constant_section_evaluates():
    m = PiecewiseSection.polynomial([[1], [(0, 1)]])
    assert value_at(m, F(1, 3)) == (ComplexRational(F(1)), ComplexRational(F(0), F(1)))


def test_continuity_enforced():
    zero = GaussianPoly.zero()
    one = GaussianPoly.const(1)
    with pytest.raises(ValueError, match="discontinuity"):
        section(1, (F(0), F(1, 2), F(1)), ((zero,), (one,)))


GAUSSIAN = st.builds(lambda a, b, c, e: (F(a, b), F(c, e)),
                     st.integers(-4, 4), st.integers(1, 6), st.integers(-4, 4), st.integers(1, 6))
POLY = st.lists(GAUSSIAN, max_size=4).map(GaussianPoly.from_coeffs)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.lists(POLY, min_size=d, max_size=d),
                                                     st.lists(POLY, min_size=d, max_size=d),
                                                     st.lists(st.booleans(), min_size=d, max_size=d))),
       st.integers(1, 8).flatmap(lambda q: st.integers(1, 2 * q - 1).map(lambda p: F(p, 2 * q))))
@settings(deadline=None, max_examples=200)
@example(([GaussianPoly.const(0, 1)], [GaussianPoly.zero()], [False]), F(1, 2))  # values differing in the imaginary part alone
def test_continuity_check_matches_exact_values(case, t):
    """Pieces glued or not, coordinate by coordinate, at a breakpoint t: the
    section is refused exactly when some coordinate's two values differ."""
    left, right, glued = case
    gaps = [poly_at(pl, t) - poly_at(pr, t) for pl, pr in zip(left, right)]
    right = [pr + GaussianPoly.const(z.re, z.im) if glue else pr for pr, z, glue in zip(right, gaps, glued)]
    if any(poly_at(pl, t) != poly_at(pr, t) for pl, pr in zip(left, right)):
        with pytest.raises(ValueError, match=f"^discontinuity at breakpoint {t}$"):
            section(len(left), (F(0), t, F(1)), (tuple(left), tuple(right)))
    else:
        section(len(left), (F(0), t, F(1)), (tuple(left), tuple(right)))


# one rational part: numerators over a denominator that may pass 2⁶⁴, possibly zero
PART = st.builds(lambda nums, den: RationalPoly(tuple(F(c, den) for c in nums)),
                 st.lists(st.integers(-2**70, 2**70), max_size=5),
                 st.one_of(st.integers(1, 9), st.integers(2**64, 2**80)))
PIECE = st.lists(st.builds(GaussianPoly, PART, PART), min_size=1, max_size=4).map(tuple)
POINT = st.fractions(min_value=0, max_value=1, max_denominator=2**70)
ZERO_PIECE = (GaussianPoly.zero(), GaussianPoly.zero())
BIG = F(1, 2**64 + 1)


@given(PIECE, POINT)
@example(ZERO_PIECE, F(1, 3))
@example((GaussianPoly(RationalPoly((BIG, 0, BIG)), RationalPoly.zero()), GaussianPoly.const(0, F(3, 2**65))), F(2, 7))
@example((GaussianPoly.zero(), GaussianPoly(RationalPoly.zero(), RationalPoly((1, 2, 3, 4)))), F(0))
@settings(deadline=None, max_examples=300)
def test_column_value_equals_per_part_value(row, x):
    """Horner over the piece's columns gives the same Gaussian integers as one
    Horner pass per part: zero parts, the zero piece, mixed degrees, and
    denominators past 2⁶⁴ included."""
    assert _scaled_value(piece(row)[1], x) == per_part_scaled_value(row, x)


@given(PIECE)
@example(ZERO_PIECE)
@settings(deadline=None, max_examples=200)
def test_columns_are_the_piece_over_its_common_denominator(row):
    """cols[k] is the column of x^k in D·piece, D > 0 the lcm of the parts'
    lowest-terms denominators, up to the largest degree, in integers; the
    section constructor brings any positive multiple of it to that form."""
    den, cols = piece(row)
    parts = [q for p in row for q in (p.re, p.im)]
    assert den == math.lcm(*(c.denominator for q in parts for c in q.coeffs))
    assert len(cols) == max(1, *(q.degree + 1 for q in parts))
    assert all(type(t) is int for col in cols for z in col for t in z)
    assert polys((den, cols)) == row
    # any positive multiple, with zero columns appended, is reduced to the same tuples
    wide = (3 * den, tuple(tuple((3 * x, 3 * y) for x, y in col) for col in cols) + (((0, 0),) * len(row),) * 2)
    m = PiecewiseSection(len(row), (0, 1), (wide,))
    assert m.pieces == ((den, cols),) and hash(m) == hash(PiecewiseSection(len(row), (0, 1), ((den, cols),)))


def hinge_sections(d: int, grid: list):
    """Continuous sections with inner breakpoints from `grid`: from one end,
    each piece is its neighbour plus (x − t)·R, t the breakpoint between
    them and R random, so the two agree at t. The first pieces from that
    end may be zero, and R = 0 repeats a piece; coefficients are complex."""
    hinge = {t: GaussianPoly(RationalPoly((-t, 1)), RationalPoly.zero()) for t in grid}
    zero = (GaussianPoly.zero(),) * d
    row = st.lists(POLY, min_size=d, max_size=d).map(tuple)

    @st.composite
    def draw_section(draw):
        inner = sorted(draw(st.sets(st.sampled_from(grid), max_size=4)))
        zeros, from_right = draw(st.integers(0, len(inner) + 1)), draw(st.booleans())
        piece = zero if zeros else draw(row)
        pieces = [piece]
        for j, t in enumerate(inner[::-1] if from_right else inner, start=1):
            r = zero if j < zeros else draw(row)
            piece = tuple(p + hinge[t] * q for p, q in zip(piece, r))
            pieces.append(piece)
        return section(d, (F(0), *inner, F(1)), pieces[::-1] if from_right else pieces)

    return draw_section()


# inner breakpoints at multiples of 1/12 and of 1/8: shared at 1/4, 1/2, 3/4, interleaved elsewhere
TWELFTHS, EIGHTHS = [F(k, 12) for k in range(1, 12)], [F(k, 8) for k in range(1, 8)]


def probe_points(*sections) -> list:
    """Seven points on every cell of the sections' common refinement, its
    ends among them: enough to tell apart two pieces of degree ≤ 6."""
    bps = sorted({b for m in sections for b in m.breakpoints})
    return sorted({a + (b - a) * F(k, 6) for a, b in zip(bps, bps[1:]) for k in range(7)})


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(hinge_sections(d, TWELFTHS), hinge_sections(d, EIGHTHS),
                                                     hinge_sections(1, EIGHTHS))))
@settings(deadline=None, max_examples=80)
def test_products_sums_and_equality_agree_with_pointwise_values(case):
    """mul_scalar_section, + and equality (a zero difference) on one alignment
    of two sets of breakpoints agree with values taken piece by piece
    (projector_oracle.value_at); their pieces are in lowest terms, as the
    reference polynomials rebuild them."""
    m, n, s = case
    prod, total = m.mul_scalar_section(s), m + n
    assert prod.breakpoints == tuple(sorted({*m.breakpoints, *s.breakpoints}))
    for x in probe_points(m, n, s):
        (c,) = value_at(s, x)
        assert value_at(prod, x) == tuple(v * c for v in value_at(m, x))
        assert value_at(total, x) == tuple(a + b for a, b in zip(value_at(m, x), value_at(n, x)))
    assert all(piece(polys(pc)) == pc for pc in prod.pieces + total.pieces)
    assert (m - n).is_zero() == all(value_at(m, x) == value_at(n, x) for x in probe_points(m, n))
    assert (m - (m + n.scale(0))).is_zero() and (total - (n + m)).is_zero()


def test_breakpoint_validation():
    one = GaussianPoly.const(1)
    with pytest.raises(ValueError):
        section(1, (F(0), F(1, 2)), ((one,),))  # must end at 1
    with pytest.raises(ValueError):
        section(1, (F(0), F(1, 2), F(1, 4), F(1)), ((one,), (one,), (one,)))


def test_refine_preserves_values():
    m = bump(F(1, 4), F(3, 4))
    r = m + zero_section(1, [F(1, 8), F(1, 2)])
    for x in (F(0), F(1, 8), F(1, 3), F(1, 2), F(9, 10)):
        assert value_at(m, x) == value_at(r, x)
    assert F(1, 2) in r.breakpoints


def test_addition_merges_breakpoints():
    a = bump(F(0), F(1, 2))
    b = bump(F(1, 2), F(1))
    s = a + b
    for x in (F(1, 4), F(1, 2), F(3, 4)):
        assert value_at(s, x)[0] == value_at(a, x)[0] + value_at(b, x)[0]


def test_scalar_section_product():
    m = PiecewiseSection.polynomial([[2], [3]])
    c = x_section()
    prod = m.mul_scalar_section(c)
    assert value_at(prod, F(1, 2)) == (ComplexRational(F(1)), ComplexRational(F(3, 2)))
    with pytest.raises(DimensionMismatch):
        m.mul_scalar_section(PiecewiseSection.polynomial([[1], [1]]))


def test_pointwise_inner_conjugates_first_slot():
    u = PiecewiseSection.polynomial([[(0, 1)]])  # i
    v = x_section()
    ip = pointwise_inner(u, v)
    # ⟨i, x⟩ = conj(i)·x = -i x
    assert value_at(ip, F(1, 2))[0] == ComplexRational(F(0), F(-1, 2))
    # hermitian symmetry: ⟨u,v⟩ = conj(⟨v,u⟩)
    assert value_at(pointwise_inner(v, u), F(1, 2))[0] == ComplexRational(F(0), F(1, 2))


def test_zero_and_support_sets():
    m = x_section()
    assert support_set(m) == SymbolicSubset.interval(F(0), F(1), False, True)
    z = PiecewiseSection.zero(2)
    assert support_set(z).is_empty()


def collected_zero_set(m):
    """The zero set as the pieces' zero sets collected, then normalized by the constructor's sweep."""
    points, intervals = [], []
    for (_, cols), lo, hi in zip(m.pieces, m.breakpoints, m.breakpoints[1:]):
        zeros = exact_zero_points(([col[i][t] for col in cols] for i in range(m.d) for t in (0, 1)), lo, hi)
        if zeros is None:
            intervals.append(Interval(lo, hi, True, True))
        else:
            points.extend(zeros)
    return SymbolicSubset(points=tuple(points), intervals=tuple(intervals))


LINEAR = {t: GaussianPoly(RationalPoly((-t, 1)), RationalPoly.zero()) for t in TWELFTHS + [F(0), F(1)]}
ZERO_ROW = (GaussianPoly.zero(),)
# x(x − 1/4) on [0, 1/4], zero on [1/4, 1/2], then (x − 1/2)(x − 3/4): zeros at every breakpoint, inside a piece and at 0
ROOTED = section(1, (F(0), F(1, 4), F(1, 2), F(1)),
                 ((LINEAR[F(0)] * LINEAR[F(3, 12)],), ZERO_ROW, (LINEAR[F(6, 12)] * LINEAR[F(9, 12)],)))


# products of up to three linear factors with roots on the twelfths (0 and 1 among them) or the fifths
ROOTS = st.lists(st.sampled_from(sorted(LINEAR) + [F(k, 5) for k in range(1, 5)]), max_size=3)


def with_roots(m, roots):
    """m times the scalar Π (x − s) over the roots s: it vanishes at each of them too."""
    factor = GaussianPoly.const(1)
    for t in roots:
        factor = factor * GaussianPoly(RationalPoly((-t, 1)), RationalPoly.zero())
    return m.mul_scalar_section(scalar(factor))


@given(st.integers(1, 3).flatmap(lambda d: st.builds(with_roots, hinge_sections(d, TWELFTHS), ROOTS)))
@settings(deadline=None, max_examples=150)
@example(ROOTED)
@example(section(2, (F(0), F(1, 3), F(1)), (ZERO_ROW * 2, (LINEAR[F(4, 12)], GaussianPoly.zero()))))
@example(PiecewiseSection.zero(2))
def test_zero_and_support_sets_equal_the_collected_construction(m):
    """support_set, the residual set over the zero field, equals the complement
    of the pieces' zero sets collected and normalized; zero pieces and roots
    at breakpoints are common in the hinge sections, and the factor adds
    zeros inside pieces and at breakpoints. An irrational zero is refused
    by both routes."""
    try:
        expected = collected_zero_set(m)
    except IrrationalRoot:
        with pytest.raises(IrrationalRoot):
            support_set(m)
        return
    assert support_set(m) == SymbolicSubset.interval(0, 1).difference(expected)


def test_bump_shape():
    a = bump(F(1, 4), F(1, 2))
    assert value_at(a, F(1, 4))[0].is_zero() and value_at(a, F(1, 2))[0].is_zero()
    assert value_at(a, F(3, 8))[0] == ComplexRational(F(1, 64))  # (1/8)^2
    assert value_at(a, F(3, 4))[0].is_zero()
    assert support_set(a) == SymbolicSubset.interval(F(1, 4), F(1, 2), False, False)


def test_unit_bump_peaks_at_one():
    a = unit_bump(F(1, 2), F(1, 8))
    assert value_at(a, F(1, 2))[0] == ComplexRational(F(1))
    assert value_at(a, F(3, 8))[0].is_zero()
    assert support_set(a) == SymbolicSubset.interval(F(3, 8), F(5, 8), False, False)


def test_equality_across_refinements():
    a = bump(F(1, 4), F(1, 2))
    b = a + zero_section(1, [F(1, 3), F(2, 5)])
    assert (a - b).is_zero() and (b - a).is_zero()
    assert not (a - bump(F(1, 4), F(3, 4))).is_zero()
