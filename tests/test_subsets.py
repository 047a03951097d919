import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from essmod.errors import OutOfRange
from essmod.subsets import Interval, SymbolicSubset, _order

# [0, 1]: a set's complement is FULL.difference(s).
FULL = SymbolicSubset.interval(0, 1)


def iv(lo, hi, lc=True, hc=True):
    return SymbolicSubset.interval(F(lo), F(hi), lc, hc)


def joined(*sets):
    """The union of the sets, through the constructor: their parts combined."""
    return SymbolicSubset(points=tuple(p for s in sets for p in s.points),
                          intervals=tuple(i for s in sets for i in s.intervals))


# --- normalization ------------------------------------------------------------

def test_point_absorbed_into_touching_interval():
    s = SymbolicSubset(points=(F(1, 2),), intervals=(Interval(F(0), F(1, 2), False, True),))
    assert s == iv(0, F(1, 2), False, True)
    assert not s.points


def test_point_closes_open_endpoint():
    s = SymbolicSubset(points=(F(1, 2),), intervals=(Interval(F(0), F(1, 2), False, False),))
    assert s == iv(0, F(1, 2), False, True)


def test_overlapping_intervals_merge():
    s = SymbolicSubset(
        intervals=(Interval(F(0), F(1, 2), True, True), Interval(F(1, 4), F(3, 4), True, True))
    )
    assert s == iv(0, F(3, 4))


def test_adjacent_intervals_merge_across_shared_endpoint():
    s = SymbolicSubset(
        intervals=(Interval(F(0), F(1, 2), True, True), Interval(F(1, 2), F(1), False, True))
    )
    assert s == FULL


def test_open_adjacent_intervals_stay_separate():
    s = SymbolicSubset(
        intervals=(Interval(F(0), F(1, 2), True, False), Interval(F(1, 2), F(1), False, True))
    )
    assert len(s.intervals) == 2
    assert not s.contains(F(1, 2))


def test_degenerate_intervals():
    assert SymbolicSubset(intervals=(Interval(F(1, 3), F(1, 3), True, True),)) == SymbolicSubset(points=(F(1, 3),))
    assert SymbolicSubset(intervals=(Interval(F(1, 3), F(1, 3), True, False),)).is_empty()


def test_out_of_range_rejected():
    with pytest.raises(OutOfRange):
        SymbolicSubset.interval(F(1, 2), F(3, 2))
    with pytest.raises(OutOfRange):
        SymbolicSubset.interval(F(-1, 2), F(1, 2))
    with pytest.raises(OutOfRange):
        SymbolicSubset(points=(F(2),))


def test_subset_constructor_normalizes_raw_tuples():
    s = SymbolicSubset(
        points=(F(1, 2),),
        intervals=((F(0), F(1, 2), True, False), (F(1, 4), F(3, 4), True, True)),
    )
    assert s == iv(0, F(3, 4))
    assert s.contains(F(1, 2)) and not s.contains(F(7, 8))


# --- set operations --------------------------------------------------------------

def test_complement_of_open_interval():
    s = FULL.difference(iv(F(1, 3), F(2, 3), False, False))
    assert s == SymbolicSubset(intervals=(Interval(F(0), F(1, 3), True, True), Interval(F(2, 3), F(1), True, True)))


def test_complement_involution_and_demorgan():
    a = SymbolicSubset(points=(F(1, 2),), intervals=(Interval(F(0), F(1, 4), True, True),))
    b = iv(F(1, 8), F(3, 4), False, False)
    assert FULL.difference(FULL.difference(a)) == a
    # the complement of a ∪ b is the complement of a, less b
    assert FULL.difference(joined(a, b)) == FULL.difference(a).difference(b)


def test_difference_and_membership():
    s = FULL.difference(SymbolicSubset(points=(F(1, 2),)))
    assert not s.contains(F(1, 2))
    assert s.contains(F(1, 3))
    assert len(s.intervals) == 2


def test_interval_minus_points_splits():
    s = iv(0, 1).difference(SymbolicSubset(points=(F(1, 4), F(1, 2))))
    assert len(s.intervals) == 3
    assert not s.contains(F(1, 4)) and s.contains(F(3, 8))


# --- topology ------------------------------------------------------------------------

def test_closure_closes_endpoints():
    s = iv(F(1, 4), F(1, 2), False, False).closure()
    assert s == iv(F(1, 4), F(1, 2), True, True)


def test_interior_is_relative_to_unit_interval():
    # [0, 1/2) is relatively open at 0 inside [0, 1]
    s = iv(0, F(1, 2), True, False)
    assert s.interior() == s
    t = iv(F(1, 4), F(1, 2), True, True)
    assert t.interior() == iv(F(1, 4), F(1, 2), False, False)


def test_interior_drops_isolated_points():
    s = SymbolicSubset(points=(F(1, 3), F(2, 3)))
    assert s.interior().is_empty()


def test_nowhere_dense_examples():
    assert SymbolicSubset().is_nowhere_dense()
    assert SymbolicSubset(points=(F(1, 4), F(1, 2), F(3, 4))).is_nowhere_dense()
    assert not iv(F(3, 10), F(2, 5)).is_nowhere_dense()
    assert not SymbolicSubset(points=(F(1, 8),), intervals=(Interval(F(1, 2), F(5, 8), False, False),)).is_nowhere_dense()


# --- randomized laws ----------------------------------------------------------------

frac01 = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def subsets(draw):
    pts = draw(st.lists(frac01, max_size=3))
    n_ivs = draw(st.integers(0, 3))
    ivs = []
    for _ in range(n_ivs):
        a, b = sorted([draw(frac01), draw(frac01)])
        ivs.append(Interval(a, b, draw(st.booleans()), draw(st.booleans())))
    return SymbolicSubset(points=tuple(pts), intervals=tuple(ivs))


@settings(deadline=None, max_examples=200)
@given(subsets())
def test_interior_subset_closure(s):
    assert s.interior().difference(s).is_empty()
    assert s.difference(s.closure()).is_empty()
    assert s.closure().closure() == s.closure()
    assert s.interior().interior() == s.interior()
    # normal form: every interval has positive length
    assert all(iv.lo < iv.hi for t in (s, s.closure(), s.interior()) for iv in t.intervals)


EIGHTHS = st.integers(0, 8).map(lambda k: F(k, 8))


def swept_closure(s):
    """The closure through the constructor's sweep: the points, and every interval closed."""
    return SymbolicSubset(points=s.points, intervals=tuple(Interval(iv.lo, iv.hi, True, True) for iv in s.intervals))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(EIGHTHS, EIGHTHS, st.booleans(), st.booleans()), max_size=5), st.lists(EIGHTHS, max_size=3))
@example([(F(0), F(1, 2), True, False), (F(1, 2), F(1), False, True)], [])  # touching at 1/2, closed at 0 and 1
@example([(F(0), F(1, 4), False, True), (F(1, 4), F(1, 2), False, False), (F(1, 2), F(1), False, False)], [F(1, 8)])
@example([(F(1, 4), F(3, 4), True, True)], [F(0), F(1)])
def test_closure_and_interior_equal_the_sweep_formulas(ends, points):
    """closure() and interior(), read off the normal form, equal the sweep
    formulas: the points with every interval closed, and the complement of
    that closure of the complement. Ends on the eighths make touching
    intervals and ends at 0 and 1 common; both results are in normal form."""
    s = SymbolicSubset(points=tuple(points), intervals=tuple(Interval(min(a, b), max(a, b), lc, hc) for a, b, lc, hc in ends))
    closure, interior = s.closure(), s.interior()
    assert closure == swept_closure(s)
    assert interior == FULL.difference(swept_closure(FULL.difference(s)))
    for t in (closure, interior):
        assert SymbolicSubset(points=t.points, intervals=t.intervals) == t


@settings(deadline=None, max_examples=200)
@given(subsets())
def test_nowhere_dense_two_routes_agree(s):
    assert s.is_nowhere_dense() == s.closure().interior().is_empty()


@settings(deadline=None, max_examples=100)
@given(subsets(), subsets())
def test_union_intersection_laws(a, b):
    meet = a.difference(a.difference(b))  # a ∩ b
    assert joined(a, b) == joined(b, a)
    assert meet == b.difference(b.difference(a))
    assert meet.difference(a).is_empty()
    assert a.difference(joined(a, b)).is_empty()
    assert meet.difference(b).is_empty()
    assert joined(a.difference(b), meet) == a


@settings(deadline=None, max_examples=100)
@given(subsets(), frac01)
def test_membership_consistency(s, x):
    assert s.contains(x) == (not FULL.difference(s).contains(x))


@st.composite
def raw_parts(draw, fracs=frac01):
    """Unnormalized (points, intervals): unsorted, overlapping, degenerate."""
    pts = draw(st.lists(fracs, max_size=3))
    ivs = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted([draw(fracs), draw(fracs)])
        ivs.append(Interval(a, b, draw(st.booleans()), draw(st.booleans())))
    return pts, ivs


def raw_member(parts, x):
    pts, ivs = parts
    return x in pts or any(
        i.contains(x) and (i.lo < i.hi or (i.lo_closed and i.hi_closed)) for i in ivs
    )


@settings(deadline=None, max_examples=100)
@given(raw_parts(), raw_parts())
def test_sweep_matches_pointwise_membership(pa, pb):
    """The constructor on a's raw parts and on a's and b's together (the
    union), difference, a ∩ b as a minus (a minus b) and the complement as
    [0, 1] minus a agree with membership of the raw operands at each
    boundary and each gap midpoint, and return the normal form."""
    assert_sweep_matches_membership(pa, pb)


def assert_sweep_matches_membership(pa, pb):
    a = SymbolicSubset(points=tuple(pa[0]), intervals=tuple(pa[1]))
    b = SymbolicSubset(points=tuple(pb[0]), intervals=tuple(pb[1]))
    ends = sorted(
        {F(0), F(1), *pa[0], *pb[0], *(e for i in pa[1] + pb[1] for e in (i.lo, i.hi))}
    )
    union = SymbolicSubset(points=(*pa[0], *pb[0]), intervals=(*pa[1], *pb[1]))
    meet, minus, complement = a.difference(a.difference(b)), a.difference(b), FULL.difference(a)
    for x in ends + [(u + v) / 2 for u, v in zip(ends, ends[1:])]:
        in_a, in_b = raw_member(pa, x), raw_member(pb, x)
        assert a.contains(x) == in_a
        assert union.contains(x) == (in_a or in_b)
        assert meet.contains(x) == (in_a and in_b)
        assert minus.contains(x) == (in_a and not in_b)
        assert complement.contains(x) == (not in_a)
    for s in (a, union, meet, minus, complement):
        assert list(s.points) == sorted(set(s.points))
        for i, j in zip(s.intervals, s.intervals[1:]):
            assert i.hi < j.lo or (i.hi == j.lo and not i.hi_closed and not j.lo_closed)
        for p in s.points:
            assert all(p < iv.lo or p > iv.hi for iv in s.intervals)


# --- the ordering kernel ---------------------------------------------------------------

def near(k, width=2):
    """Rationals in [k, k + width)/2⁶⁴ with denominators above 2³²: any two
    in [k, k + 1)/2⁶⁴ share the sort key floor(x·2⁶⁴)."""
    return st.builds(
        lambda j, q, r: F((k + j) * q + r % q, q << 64),
        st.integers(0, width - 1), st.integers(2 ** 32 + 1, 2 ** 40), st.integers(0, 2 ** 40),
    ).filter(lambda x: x.denominator > 2 ** 32)


keys64 = st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 2]) | st.integers(0, 2 ** 64 - 2)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_order_breaks_near_ties_exactly(data):
    k = data.draw(keys64)
    tied = data.draw(st.lists(near(k, 1), min_size=2, max_size=6, unique=True))
    xs = tied + data.draw(st.lists(near(k), max_size=6))
    bounds, slot = _order(xs + xs[:2])
    assert bounds == sorted(set(xs))
    assert slot == {x.as_integer_ratio(): 2 * i for i, x in enumerate(bounds)}


@st.composite
def near_tie_operands(draw):
    fracs = near(draw(keys64))
    return draw(raw_parts(fracs)), draw(raw_parts(fracs))


@settings(deadline=None, max_examples=100)
@given(near_tie_operands())
def test_sweep_matches_pointwise_membership_near_ties(operands):
    """The same as test_sweep_matches_pointwise_membership on boundaries
    closer than 2⁻⁶⁴, where the integer sort keys tie."""
    assert_sweep_matches_membership(*operands)


def test_order_cost_grows_with_bit_length_not_denominator_product():
    """400 points with unrelated 1000-digit denominators: over one common
    denominator each key would carry 400,000 digits."""
    rng = random.Random(5)
    xs = [F(rng.randrange(q), q) for q in (rng.randrange(10 ** 999, 10 ** 1000) for _ in range(400))]
    t0 = time.perf_counter()
    s = SymbolicSubset(points=tuple(xs))
    assert time.perf_counter() - t0 < 1.0
    assert list(s.points) == sorted(set(xs))
