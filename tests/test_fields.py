import random
import time
from fractions import Fraction as F
from itertools import combinations, permutations

import projector_oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from field_docs import full_field
from poly_oracle import GaussianPoly, RationalPoly, oracle_gcd, piece, poly_divmod, polys, scalar
from projector_oracle import CR_ZERO, clear_denominators, cleared_columns, cr, mat, mat_conj_t, mat_mul, mat_rank

from essmod import fields, sections, subsets
from essmod.errors import DimensionMismatch, GeneratorsNotSpanning, IrrationalRoot, OutOfRange, SchemaError
from essmod.fields import (
    FieldModuleSpec,
    FieldPiece,
    SubspaceField,
    _outside,
    analyze_field,
    check_generator_spanning,
    commutative_limit_identity,
    is_essential_field,
    residual_set,
)
from essmod.generate import gen_field
from essmod.rationals import annihilator, identity_columns
from essmod.serialize import field_spec_from_json, section_to_json, subset_to_json
from essmod.sections import PiecewiseSection, bump
from essmod.subsets import Interval, SymbolicSubset


def x_poly():
    return GaussianPoly(RationalPoly((0, 1)), RationalPoly.zero())


def two_zone_field():
    """L = {0} on [0, 1/2], full on (1/2, 1]."""
    return SubspaceField(
        1,
        (
            FieldPiece(SymbolicSubset.interval(0, F(1, 2), True, True), ()),
            FieldPiece(SymbolicSubset.interval(F(1, 2), 1, False, True), (((1, 0),),)),
        ),
    )


def test_partition_must_cover_and_not_overlap():
    def field(*regions):
        return SubspaceField(1, tuple(FieldPiece(r, (((1, 0),),)) for r in regions))

    half = F(1, 2)
    with pytest.raises(ValueError, match="cover"):
        field(SymbolicSubset.interval(0, half))
    with pytest.raises(ValueError, match="cover"):  # only the point 1/2 is missing
        field(SymbolicSubset.interval(0, half, True, False), SymbolicSubset.interval(half, 1, False, True))
    with pytest.raises(ValueError, match="cover"):
        field()
    with pytest.raises(ValueError, match="overlap"):
        field(SymbolicSubset.interval(0, F(3, 4)), SymbolicSubset.interval(half, 1, False, True))
    with pytest.raises(ValueError, match="overlap"):  # only the point 1/2 is shared
        field(SymbolicSubset.interval(0, half), SymbolicSubset.interval(half, 1))
    with pytest.raises(ValueError, match="overlap"):  # overlap wins over a gap
        field(SymbolicSubset(points=(0,)), SymbolicSubset(points=(0,)))
    point = SymbolicSubset(points=(half,))
    assert len(field(point, SymbolicSubset.interval(0, 1).difference(point)).pieces) == 2


def test_basis_columns_must_have_the_fiber_dimension():
    with pytest.raises(DimensionMismatch, match="fiber dimension"):
        SubspaceField(2, (FieldPiece(SymbolicSubset.interval(0, 1), (((1, 0),),)),))
    assert SubspaceField(2, (FieldPiece(SymbolicSubset.interval(0, 1), ()),)).rows == [identity_columns(2)] * 3


def test_annihilator_at_refuses_points_outside_the_unit_interval():
    """A point off [0, 1] let a bare StopIteration escape the scan of the
    partition regions; a lookup in the owner table would give some piece."""
    field = full_field(2)
    for x in (F(3, 2), F(-1, 2), 2):
        with pytest.raises(OutOfRange):
            field.annihilator_at(x)
    assert field.annihilator_at(F(1)) == field.annihilator_at(0) == ()  # the full fiber: no rows


@pytest.mark.parametrize("defect", ["points", "interval"])
def test_annihilator_at_reads_the_owning_piece(defect):
    """At every partition bound and inside every gap, the runs of one L give
    the annihilator of the piece whose region holds the point."""
    field = field_spec_from_json(gen_field(3, 12, 4, defect, 7)["payload"]).subfield
    bounds = projector_oracle.partition_bounds(field)
    for x in bounds + [a + (b - a) * F(k, 5) for a, b in zip(bounds, bounds[1:]) for k in (1, 4)]:
        assert field.annihilator_at(x) == annihilator(field.pieces[projector_oracle.owner(field, x)].basis, 3)


def test_projectors_are_exact_idempotents():
    field = SubspaceField(
        2,
        (
            FieldPiece(SymbolicSubset.interval(0, F(1, 2), True, False), (((1, 0), (1, 0)),)),
            FieldPiece(SymbolicSubset.interval(F(1, 2), 1, True, True), identity_columns(2)),
        ),
    )
    p = projector_oracle.projector_at(field, F(1, 4))
    assert mat_mul(p, p) == p
    assert mat_conj_t(p) == p
    assert p[0][0] == cr(F(1, 2))  # projector onto span(1,1)
    assert field.annihilator_at(F(1, 4)) == (((-1, 0), (1, 0)),)


def test_residual_set_full_fiber_is_empty():
    m = scalar(x_poly())
    assert residual_set(m, full_field(1)).is_empty()


def test_residual_set_half_line_example():
    m = scalar(x_poly())
    y = residual_set(m, two_zone_field())
    assert y == SymbolicSubset.interval(0, F(1, 2), False, True)


def test_residual_set_isolated_root_example():
    # L = span(e1), m = (x, x - 1/2): defect everywhere except x = 1/2
    field = SubspaceField(2, (FieldPiece(SymbolicSubset.interval(0, 1), (((1, 0), (0, 0)),)),))
    m = PiecewiseSection(
        2,
        (F(0), F(1)),
        (piece((x_poly(), GaussianPoly(RationalPoly((F(-1, 2), F(1))), RationalPoly.zero()))),),
    )
    y = residual_set(m, field)
    assert y == SymbolicSubset.interval(0, 1).difference(SymbolicSubset(points=(F(1, 2),)))


def test_residual_set_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        residual_set(PiecewiseSection.polynomial([[1], [0]]), full_field(1))


def test_residual_set_irrational_boundary_rejected():
    # (I - P)m has coordinate x^2 - 1/2 on the defective piece
    field = SubspaceField(
        1,
        (
            FieldPiece(SymbolicSubset.interval(0, 1, True, True), ()),
        ),
    )
    poly = GaussianPoly(RationalPoly((F(-1, 2), F(0), F(1))), RationalPoly.zero())
    m = scalar(poly)
    with pytest.raises(IrrationalRoot):
        residual_set(m, field)


def test_total_defect_standard_basis_full_field():
    spec = FieldModuleSpec(
        2,
        (PiecewiseSection.polynomial([[1], [0]]), PiecewiseSection.polynomial([[0], [1]])),
        full_field(2),
    )
    assert analyze_field(spec).total.is_empty()
    assert is_essential_field(spec).essential


def test_total_defect_single_generator_half_line():
    spec = FieldModuleSpec(
        1, (scalar(x_poly()),), two_zone_field()
    )
    assert analyze_field(spec).total == SymbolicSubset.interval(0, F(1, 2), False, True)


def test_total_defect_union_of_disjoint_defects():
    # generator 1 defective on (1/8, 1/4), generator 2 on (5/8, 3/4)
    field = SubspaceField(
        2,
        (
            FieldPiece(SymbolicSubset.interval(F(1, 8), F(1, 4), False, False), (((0, 0), (1, 0)),)),
            FieldPiece(SymbolicSubset.interval(F(5, 8), F(3, 4), False, False), (((1, 0), (0, 0)),)),
            FieldPiece(
                SymbolicSubset.interval(0, 1)
                .difference(SymbolicSubset.interval(F(1, 8), F(1, 4), False, False))
                .difference(SymbolicSubset.interval(F(5, 8), F(3, 4), False, False)),
                identity_columns(2),
            ),
        ),
    )
    e1 = PiecewiseSection.polynomial([[1], [0]])
    e2 = PiecewiseSection.polynomial([[0], [1]])
    spec = FieldModuleSpec(2, (e1, e2), field)
    expected = SymbolicSubset(intervals=(Interval(F(1, 8), F(1, 4), False, False), Interval(F(5, 8), F(3, 4), False, False)))
    analysis = analyze_field(spec)
    assert analysis.total == expected
    assert analysis.defects == (residual_set(e1, field), residual_set(e2, field))
    assert residual_set(e1, field) == SymbolicSubset.interval(F(1, 8), F(1, 4), False, False)


def test_essential_field_point_defects():
    pts = [F(1, 4), F(1, 2), F(3, 4)]
    pieces = [FieldPiece(SymbolicSubset(points=(x,)), ()) for x in pts]
    rest = SymbolicSubset.interval(0, 1)
    for x in pts:
        rest = rest.difference(SymbolicSubset(points=(x,)))
    pieces.append(FieldPiece(rest, identity_columns(2)))
    spec = FieldModuleSpec(
        2,
        (PiecewiseSection.polynomial([[1], [0]]), PiecewiseSection.polynomial([[0], [1]])),
        SubspaceField(2, tuple(pieces)),
    )
    decision = is_essential_field(spec)
    assert decision.essential
    assert decision.analysis.total == SymbolicSubset(points=tuple(pts))


def test_non_essential_field_interval_defect():
    field = SubspaceField(
        2,
        (
            FieldPiece(SymbolicSubset.interval(F(3, 10), F(2, 5), False, False), (((0, 0), (1, 0)),)),
            FieldPiece(
                SymbolicSubset.interval(0, 1).difference(SymbolicSubset.interval(F(3, 10), F(2, 5), False, False)),
                identity_columns(2),
            ),
        ),
    )
    spec = FieldModuleSpec(
        2, (PiecewiseSection.polynomial([[1], [0]]), PiecewiseSection.polynomial([[0], [1]])), field
    )
    decision = is_essential_field(spec)
    assert not decision.essential
    assert decision.analysis.total == SymbolicSubset.interval(F(3, 10), F(2, 5), False, False)


def test_generators_not_spanning_raises():
    # single generator e1 cannot span C^2 off the (empty) defect set
    spec = FieldModuleSpec(2, (PiecewiseSection.polynomial([[1], [0]]),), full_field(2))
    with pytest.raises(GeneratorsNotSpanning):
        is_essential_field(spec)


def test_residual_with_breakpoint_on_point_defect():
    # generator breakpoint coincides with an isolated defective point
    field = SubspaceField(
        1,
        (
            FieldPiece(SymbolicSubset(points=(F(1, 2),)), ()),
            FieldPiece(SymbolicSubset.interval(0, 1).difference(SymbolicSubset(points=(F(1, 2),))), (((1, 0),),)),
        ),
    )
    # m kinks at 1/2: x on the left, 1 - x on the right; m(1/2) = 1/2 ≠ 0
    left = GaussianPoly(RationalPoly((0, 1)), RationalPoly.zero())
    right = GaussianPoly(RationalPoly((F(1), F(-1))), RationalPoly.zero())
    m = PiecewiseSection(1, (F(0), F(1, 2), F(1)), (piece((left,)), piece((right,))))
    assert residual_set(m, field) == SymbolicSubset(points=(F(1, 2),))
    # a kink that vanishes exactly at the defective point is never defective
    left2 = GaussianPoly(RationalPoly((F(-1, 2), F(1))), RationalPoly.zero())
    right2 = GaussianPoly(RationalPoly((F(1, 2), F(-1))), RationalPoly.zero())
    m2 = PiecewiseSection(1, (F(0), F(1, 2), F(1)), (piece((left2,)), piece((right2,))))
    assert residual_set(m2, field).is_empty()


def test_combination_defects_stay_inside_total_defect():
    """Exact subset check for module combinations of the generators."""
    from essmod.generate import SplitMix64, gen_field
    from essmod.serialize import field_spec_from_json

    rng = SplitMix64(81)
    checked = 0
    spec_pool = []
    for seed in range(6):
        defect = ("none", "points", "interval")[seed % 3]
        doc = gen_field(2, 4, 3, defect, 500 + seed)
        spec_pool.append(field_spec_from_json(doc["payload"]))
    while checked < 200:
        spec = spec_pool[rng.randint(0, len(spec_pool) - 1)]
        total = analyze_field(spec).total
        m = PiecewiseSection.zero(spec.d)
        for g in spec.generators:
            coeffs = [(rng.dyadic(3, 1), rng.dyadic(3, 1)) for _ in range(2)]
            c = PiecewiseSection.polynomial([coeffs])
            m = m + g.mul_scalar_section(c)
        if m.is_zero():
            continue
        try:
            y_m = residual_set(m, spec.subfield)
        except IrrationalRoot:
            continue
        assert y_m.difference(total).is_empty()
        checked += 1


# --- commutative limit identity ---------------------------------------------------

def test_identity_with_n_equal_m():
    m = PiecewiseSection.polynomial([[1], [(2, 1)]])
    assert commutative_limit_identity(m, m)


def test_identity_with_scalar_multiple():
    m = PiecewiseSection.polynomial([[1], [(0, 1)]])
    c = scalar(GaussianPoly(RationalPoly((0, 1)), RationalPoly((F(1, 3),))))
    n = m.mul_scalar_section(c)
    assert commutative_limit_identity(m, n)


def test_identity_fails_for_orthogonal_sections():
    # n ⊥ m pointwise and n outside the closure of m·A: precondition necessary
    m = PiecewiseSection.polynomial([[1], [0]])
    n = PiecewiseSection.polynomial([[0], [1]])
    assert not commutative_limit_identity(m, n)


def test_identity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        commutative_limit_identity(
            PiecewiseSection.polynomial([[1]]), PiecewiseSection.polynomial([[1], [0]])
        )


# --- annihilators against the projector oracle ------------------------------------

gaussian_rationals = st.builds(
    cr,
    st.builds(F, st.integers(-6, 6), st.integers(1, 2**40)),
    st.builds(F, st.integers(-6, 6), st.integers(1, 2**40)),
)


@st.composite
def bases_and_vectors(draw):
    """A d×r Gaussian-rational basis, some columns combinations of earlier
    ones, and v = B·c, sometimes perturbed in one coordinate."""
    d = draw(st.integers(1, 4))
    cols = []
    for _ in range(draw(st.integers(0, d + 1))):
        if cols and draw(st.booleans()):
            i, j = (draw(st.integers(0, len(cols) - 1)) for _ in range(2))
            a, b = draw(gaussian_rationals), draw(gaussian_rationals)
            cols.append(tuple(a * x + b * y for x, y in zip(cols[i], cols[j])))
        else:
            cols.append(tuple(draw(gaussian_rationals) for _ in range(d)))
    basis = tuple(tuple(col[i] for col in cols) for i in range(d))
    coeffs = [draw(gaussian_rationals) for _ in cols]
    v = [sum((c * col[i] for c, col in zip(coeffs, cols)), CR_ZERO) for i in range(d)]
    if draw(st.booleans()):
        k = draw(st.integers(0, d - 1))
        v[k] = v[k] + draw(gaussian_rationals.filter(lambda z: not z.is_zero()))
    return d, basis, tuple(v)


@settings(deadline=None, max_examples=300)
@given(bases_and_vectors())
# complex basis, v inside: an annihilator of conj(B) would put v outside
@example((2, mat([[1], [cr(0, 1)]]), (cr(1), cr(0, 1))))
# one free column: dropping it would put every v inside
@example((2, mat([[1], [cr(0, 1)]]), (cr(1), cr(0))))
def test_outside_agrees_with_projector_oracle(case):
    d, basis, v = case
    ann = annihilator(cleared_columns(basis), d)
    assert len(ann) == d - mat_rank(basis)
    assert _outside(ann, clear_denominators(v)) == projector_oracle.outside(basis, d, v)


def multi_piece_sections(g: PiecewiseSection, field: SubspaceField, rng: random.Random):
    """g refined at points inside partition gaps and at partition bounds, and
    g times bumps (as the witnesses build m·a) whose ends sit at partition
    bounds or inside gaps: sections whose breakpoints the field's atoms must
    merge."""
    bounds = projector_oracle.partition_bounds(field)
    mids = [a + (b - a) * F(rng.randint(1, 7), 8) for a, b in zip(bounds, bounds[1:])]
    cuts = mids + bounds[1:-1]
    out = [g + projector_oracle.zero_section(g.d, sorted(rng.sample(cuts, min(4, len(cuts)))))]
    for ends in (bounds, mids, bounds + mids):
        lo, hi = sorted(rng.sample(ends, 2))
        out.append(g.mul_scalar_section(bump(lo, hi)))
    return out


@pytest.mark.parametrize("defect", ["none", "points", "interval"])
@settings(deadline=None, max_examples=12)
@given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_residual_sets_agree_with_projector_oracle(defect, d, seed):
    """One-piece generators, and multi-piece sections made from them, against
    the oracle's own atoms and orthogonal projectors."""
    spec = field_spec_from_json(gen_field(d, 6, d + 2, defect, seed)["payload"])
    rng = random.Random(seed)
    for g in spec.generators:
        for m in (g, *multi_piece_sections(g, spec.subfield, rng)):
            got = residual_set(m, spec.subfield)
            assert got == projector_oracle.residual_set(m, spec.subfield)
            # built in normal form: normalizing it again changes nothing
            assert SymbolicSubset(points=got.points, intervals=got.intervals) == got


@st.composite
def planted_zeros(draw, irrational=False):
    """A field with a proper subspace L on one interval J of the partition,
    full elsewhere, and a generator q·v with v ∉ L, cut at a breakpoint t
    inside J: q·v on [0, t], q·(1 + k·(x − t))·v on [t, 1]. The rational
    roots of q are drawn from a point strictly inside each atom of J, J's
    ends and t; with `irrational`, q also gets the root s·√2 strictly
    inside the atom before t."""
    d = draw(st.integers(1, 3))
    lo, z1, t, z2, hi = (F(k, 24) for k in sorted(draw(st.lists(st.integers(1, 23), min_size=5, max_size=5,
                                                                     unique=True))))
    j = SymbolicSubset.interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
    kept = sorted(draw(st.sets(st.integers(0, d - 1), max_size=d - 1)))
    field = SubspaceField(d, (FieldPiece(j, tuple(identity_columns(d)[i] for i in kept)),
                              FieldPiece(SymbolicSubset.interval(0, 1).difference(j), identity_columns(d))))
    v = [GaussianPoly.const(*draw(small_pair)) for _ in range(d)]
    assume(any(not v[i].is_zero() for i in range(d) if i not in kept))
    q = real_poly(draw(st.sampled_from([1, -2, F(1, 3)])))
    for r in draw(st.sets(st.sampled_from([z1, lo, t, z2, hi]), min_size=1)):
        q = q * real_poly(-r, 1)
    if irrational:
        s = F((z1 + t) / 2 / F(1.4142135623730951)).limit_denominator(64)
        assume(z1 * z1 < 2 * s * s < t * t)
        q = q * real_poly(-2 * s * s, 0, 1)
    k = draw(st.sampled_from([0, 1, -3, 12]))
    right = q * real_poly(1 - k * t, k)
    m = PiecewiseSection(d, (F(0), t, F(1)), (piece(tuple(q * c for c in v)), piece(tuple(right * c for c in v))))
    return m, field


@settings(deadline=None, max_examples=60)
@given(planted_zeros())
def test_planted_residual_zeros_agree_with_projector_oracle(case):
    """Zeros of the residual strictly inside an atom, at its ends and at a
    generator breakpoint are points outside the defect set."""
    m, field = case
    assert residual_set(m, field) == projector_oracle.residual_set(m, field)


@settings(deadline=None, max_examples=20)
@given(planted_zeros(irrational=True))
def test_planted_irrational_residual_zero_is_refused(case):
    m, field = case
    with pytest.raises(IrrationalRoot):
        residual_set(m, field)


def test_spanning_certificate_sees_isolated_rank_drop():
    """g(x) = x − 1/3 spans C off {1/3} only: the certificate must show the
    rank drop at 1/3, in the defect set or by refusing."""
    g = scalar(GaussianPoly(RationalPoly((F(-1, 3), F(1))), RationalPoly.zero()))
    assert projector_oracle.value_at(g, F(1, 3)) == (CR_ZERO,)
    spec = FieldModuleSpec(1, (g,), full_field(1))
    try:
        decision = is_essential_field(spec)
    except GeneratorsNotSpanning:
        return
    assert decision.analysis.total.contains(F(1, 3))


def real_poly(*cs):
    return GaussianPoly(RationalPoly(tuple(F(c) for c in cs)), RationalPoly.zero())


# (1, 0) and (0, x² − 1/8) drop rank at 1/√8 only, inside QUARTER_TO_HALF
DROP_AT_ROOT_EIGHTH = (
    PiecewiseSection.polynomial([[1], [0]]),
    PiecewiseSection(2, (F(0), F(1)), (piece((GaussianPoly.zero(), real_poly(F(-1, 8), 0, 1))),)),
)
QUARTER_TO_HALF = SymbolicSubset.interval(F(1, 4), F(1, 2), False, False)


def test_rank_drop_inside_the_defect_set_is_allowed():
    """L = span(e2) on (1/4, 1/2) leaves (1, 0) out there, so the drop at
    1/√8 lies in the defect set and the generators still span off it."""
    field = SubspaceField(
        2,
        (
            FieldPiece(QUARTER_TO_HALF, (((0, 0), (1, 0)),)),
            FieldPiece(SymbolicSubset.interval(0, 1).difference(QUARTER_TO_HALF), identity_columns(2)),
        ),
    )
    decision = is_essential_field(FieldModuleSpec(2, DROP_AT_ROOT_EIGHTH, field))
    assert decision.analysis.total == QUARTER_TO_HALF
    assert not decision.essential and decision.spanning_cells == 1


def test_shared_minor_factor_in_the_defect_set_stops_early():
    """16 generators of C^4 whose first row is c_j·(x − 1/2): every 4×4
    minor shares the factor x − 1/2, whose root is the defect point. The
    scan ends once a second minor leaves the gcd unchanged, instead of
    building all C(16, 4) = 1820 minors."""
    rows = [(real_poly(-F(j + 1, 2), j + 1), real_poly(j), real_poly(j**2), real_poly(j**3)) for j in range(16)]
    gens = tuple(PiecewiseSection(4, (F(0), F(1)), (piece(row),)) for row in rows)
    spec = FieldModuleSpec(4, gens, full_field(4))
    t0 = time.perf_counter()
    assert check_generator_spanning(spec, SymbolicSubset(points=(F(1, 2),))) == 1
    assert time.perf_counter() - t0 < 0.3
    with pytest.raises(GeneratorsNotSpanning):  # off the defect set the drop at 1/2 fails
        check_generator_spanning(spec, SymbolicSubset())


# --- the spanning certificate against eager minors --------------------------------

def leibniz_det(m):
    """det of a square matrix of Gaussian polynomials, over all permutations."""
    n, total = len(m), GaussianPoly.zero()
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = GaussianPoly.const(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


def derivative(p):
    return RationalPoly(tuple(i * c for i, c in enumerate(p.coeffs))[1:])


def roots_in_open(h, lo, hi):
    """Distinct roots of h in (lo, hi): classical Sturm chain of the
    squarefree part by Euclidean remainders over Q; a root at hi counts in
    V(lo) − V(hi), hence the correction."""
    p = poly_divmod(h, oracle_gcd(h, derivative(h)))[0]
    chain = [p, derivative(p)]
    while not chain[-1].is_zero():
        chain.append(-poly_divmod(chain[-2], chain[-1])[1])

    def variations(x):
        signs = [q(x) > 0 for q in chain if q(x) != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi) - (p(hi) == 0)


def spans_off_defect_oracle(gens, d, defect):
    """Every d×d minor on every generator cell, their gcd h, and the roots
    of h in the part of the cell outside the defect set."""
    cuts = sorted({b for g in gens for b in g.breakpoints})
    for a, b in zip(cuts, cuts[1:]):
        rest = SymbolicSubset.interval(a, b).difference(defect)
        if rest.is_empty():
            continue
        cols = [polys(g.pieces[g.piece_index_for_interval(a)]) for g in gens]
        h = RationalPoly.zero()
        for s in combinations(range(len(gens)), d):
            minor = leibniz_det([[cols[j][i] for j in s] for i in range(d)])
            h = oracle_gcd(oracle_gcd(h, minor.re), minor.im)
        if h.is_zero():
            return False
        ends = [iv.lo for iv in rest.intervals if iv.lo_closed] + [iv.hi for iv in rest.intervals if iv.hi_closed]
        if any(h(x) == 0 for x in (*rest.points, *ends)):
            return False
        if any(roots_in_open(h, iv.lo, iv.hi) for iv in rest.intervals):
            return False
    return True


# drop factors: roots at the cell ends 0 and 1, at the cuts, and irrational
DROPS = [(0, 1), (-1, 1), (F(-1, 4), 1), (F(-1, 3), 1), (F(-1, 2), 1), (F(-1, 2), 0, 1), (F(-1, 8), 0, 1)]
GRID = [F(k, 8) for k in range(9)] + [F(1, 3)]
small_pair = st.tuples(st.integers(-2, 2), st.integers(-1, 1))
small_gaussian = small_pair.map(lambda z: GaussianPoly.const(*z))


def section(d, cut, first, bend):
    """Polynomial vector `first` on [0, cut] and first + (x − cut)·bend on
    [cut, 1] (continuous at the cut), or `first` on [0, 1] without one."""
    if cut is None:
        return PiecewiseSection(d, (F(0), F(1)), (piece(first),))
    kink = real_poly(-cut, 1)
    second = tuple(p + kink * c for p, c in zip(first, bend))
    return PiecewiseSection(d, (F(0), cut, F(1)), (piece(first), piece(second)))


@st.composite
def spanning_cases(draw):
    """Generators of degree ≤ 2: generic linear entries; or a first row that
    is one drop factor times constants (every minor shares its roots); or
    multiples of one vector (every minor vanishes). Plus a random defect set
    with ends on a grid through the rational drops and cuts."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, d + 2))
    cut = draw(st.sampled_from([None, F(1, 4), F(1, 3), F(1, 2)]))
    mode = draw(st.sampled_from(["generic", "shared", "rank_one"]))
    drop = real_poly(*draw(st.sampled_from(DROPS)))
    vec = [draw(small_gaussian) for _ in range(d)]
    gens = []
    for _ in range(n):
        line = [GaussianPoly.from_coeffs([draw(small_pair), draw(small_pair)]) for _ in range(d)]
        bend = [draw(small_gaussian) for _ in range(d)]
        if mode == "shared":
            line[0], bend[0] = drop * draw(small_gaussian), GaussianPoly.zero()
        elif mode == "rank_one":
            line, bend = [line[0] * c for c in vec], [bend[0] * c for c in vec]
        g = section(d, cut, line, bend)
        assume(not g.is_zero())
        gens.append(g)
    points = draw(st.lists(st.sampled_from(GRID), max_size=3))
    intervals = []
    for _ in range(draw(st.integers(0, 3))):
        lo, hi = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
        intervals.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return d, tuple(gens), SymbolicSubset(points=tuple(points), intervals=tuple(intervals))


def scalar_case(poly, defect=SymbolicSubset()):
    return 1, (scalar(real_poly(*poly)),), defect


@settings(deadline=None, max_examples=200)
@given(spanning_cases())
@example(scalar_case((F(-1, 3), 1), SymbolicSubset(points=(F(1, 3),))))  # the drop is a defect point
@example(scalar_case((0, 1)))  # a drop at the cell end 0
@example(scalar_case((F(-1, 2), 0, 1)))  # an irrational drop
@example((2, (PiecewiseSection.polynomial([[1], [0]]), PiecewiseSection.polynomial([[2], [0]])), SymbolicSubset()))  # h = 0
@example((2, DROP_AT_ROOT_EIGHTH, QUARTER_TO_HALF))  # an irrational drop inside the defect set
# det = 1 − x² drops rank at 1, where the permanent 1 + x² has no real root
@example((2, (PiecewiseSection.polynomial([[1], [0, 1]]), PiecewiseSection.polynomial([[0, 1], [1]])), SymbolicSubset()))
def test_spanning_certificate_matches_all_minors_oracle(case):
    d, gens, defect = case
    spec = FieldModuleSpec(d, gens, full_field(d))
    try:
        check_generator_spanning(spec, defect)
    except GeneratorsNotSpanning:
        assert not spans_off_defect_oracle(gens, d, defect)
    else:
        assert spans_off_defect_oracle(gens, d, defect)


# a cell [1/4, 3/4] and one defect interval on it, each end open or closed
QUARTERS = (F(1, 4), F(3, 4))


@st.composite
def cells_and_defects(draw):
    """A cell [a, b] and a defect set whose points and interval ends lie on
    the grid of eighths, so that they often meet a or b exactly."""
    grid = [F(k, 8) for k in range(9)]
    a, b = sorted(draw(st.lists(st.sampled_from(grid), min_size=2, max_size=2, unique=True)))
    points = draw(st.lists(st.sampled_from(grid), max_size=3))
    intervals = []
    for _ in range(draw(st.integers(0, 3))):
        lo, hi = sorted(draw(st.lists(st.sampled_from(grid), min_size=2, max_size=2)))
        intervals.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return a, b, SymbolicSubset(points=tuple(points), intervals=tuple(intervals))


@settings(deadline=None, max_examples=300)
@given(cells_and_defects())
@example((*QUARTERS, SymbolicSubset.interval(*QUARTERS, True, True)))
@example((*QUARTERS, SymbolicSubset.interval(*QUARTERS, False, True)))
@example((*QUARTERS, SymbolicSubset.interval(*QUARTERS, True, False)))
@example((*QUARTERS, SymbolicSubset.interval(*QUARTERS, False, False)))
@example((*QUARTERS, SymbolicSubset(points=QUARTERS, intervals=(Interval(*QUARTERS, False, False),))))
@example((*QUARTERS, SymbolicSubset.interval(0, F(3, 4), True, False)))
@example((*QUARTERS, SymbolicSubset.interval(F(1, 4), 1, False, True)))
def test_cover_scan_matches_the_rest_of_the_cell(case):
    """A cell is skipped iff the rest [a, b] minus the defect set is empty:
    one covering interval of the normal form decides it, ends included."""
    a, b, defect = case
    assert fields._covers(defect, a, b) == SymbolicSubset.interval(a, b).difference(defect).is_empty()


@pytest.mark.parametrize("defect", ["none", "points", "interval"])
@settings(deadline=None, max_examples=10)
@given(d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_emptiness_walk_matches_the_residual_set(defect, d, seed):
    """The witnesses' emptiness test, against the residual set it stands for,
    on generated fields: the generators, sections refined and bumped at the
    partition's bounds, and a multiple of each generator or the zero
    section. A unit generator leaves a `points` field only at planted
    points."""
    spec = field_spec_from_json(gen_field(d, 6, d + 2, defect, seed)["payload"])
    rng = random.Random(seed)
    found_points_only = False
    for g in spec.generators:
        for m in (g, *multi_piece_sections(g, spec.subfield, rng), g.scale(rng.randint(1, 3)) - g.scale(2)):
            try:
                want = residual_set(m, spec.subfield)
            except IrrationalRoot:
                continue
            assert fields._residual_empty(m, spec.subfield) == want.is_empty()
            found_points_only |= bool(want.points) and not want.intervals
    assert found_points_only or defect != "points"


# --- the loader orders a written partition once -----------------------------

def written_interval(lo, hi, lo_closed, hi_closed) -> dict:
    return {"lo": str(lo), "hi": str(hi), "lo_closed": lo_closed, "hi_closed": hi_closed}


def field_payload(d, partition, bases) -> dict:
    """A field document with these written regions and bases, generated by the constant unit sections."""
    return {"d": d, "partition": partition, "subspace_bases": bases,
            "generators": [section_to_json(PiecewiseSection.polynomial([[int(i == j)] for i in range(d)])) for j in range(d)]}


# written bases per fiber dimension: none, unit columns, a complex column, texts not in lowest terms
WRITTEN_BASES = {
    1: [[], [[["1", "0"]]], [[["2/4", "-3/6"]]]],
    2: [[], [[["1", "0"], ["0", "0"]]], [[["0", "0"], ["2/2", "0"]]], [[["1", "0"], ["1/2", "1"]]],
        [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]],
}


@st.composite
def written_partitions(draw):
    """(d, partition, bases): a partition of [0, 1] by grid bounds k/12, each
    region owned by one of up to 4 pieces and written un-normalized: a point
    as itself, twice, or as a closed [a, a]; a gap whole, as two halves
    overlapping or abutting at its midpoint, or twice; an empty (a, a] or
    [a, a) added; each piece's parts shuffled."""
    d = draw(st.sampled_from(sorted(WRITTEN_BASES)))
    bounds = [F(0), *sorted(draw(st.sets(st.integers(1, 11).map(lambda k: F(k, 12)), max_size=4))), F(1)]
    n = draw(st.integers(1, 4))
    parts = [([], []) for _ in range(n)]
    for r, i in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=2 * len(bounds) - 1, max_size=2 * len(bounds) - 1))):
        points, intervals = parts[i]
        if r % 2 == 0:
            b = bounds[r // 2]
            how = draw(st.sampled_from(["point", "twice", "closed"]))
            points += [b] * {"point": 1, "twice": 2, "closed": 0}[how]
            intervals += [(b, b, True, True)] if how == "closed" else []
        else:
            a, b = bounds[r // 2], bounds[r // 2 + 1]
            m = (a + b) / 2
            intervals += draw(st.sampled_from([[(a, b, False, False)], [(a, m, False, True), (m, b, True, False)],
                                               [(a, m, False, False), (m, m, True, True), (m, b, False, False)],
                                               [(a, b, False, False), (a, m, False, True)]]))
    for points, intervals in parts:
        if draw(st.booleans()):
            x = draw(st.sampled_from(bounds[:-1])) + F(1, 24)
            intervals.append((x, x, draw(st.booleans()), False) if draw(st.booleans()) else (x, x, False, True))
    partition = [{"points": [str(x) for x in draw(st.permutations(points))],
                  "intervals": [written_interval(*iv) for iv in draw(st.permutations(intervals))]}
                 for points, intervals in parts]
    return d, partition, [draw(st.sampled_from(WRITTEN_BASES[d])) for _ in range(n)]


def region_of(doc) -> SymbolicSubset:
    """The written region through the public constructor, which normalizes."""
    return SymbolicSubset(points=tuple(F(x) for x in doc["points"]),
                          intervals=tuple(Interval(F(iv["lo"]), F(iv["hi"]), iv["lo_closed"], iv["hi_closed"])
                                          for iv in doc["intervals"]))


def loading_error(payload):
    with pytest.raises((SchemaError, OutOfRange)) as err:
        field_spec_from_json(payload)
    return type(err.value), str(err.value)


X, O = True, False  # closed and open interval ends in the examples below


@settings(deadline=None, max_examples=150)
@given(written_partitions())
@example((1, [{"points": ["1/2", "1/2"], "intervals": [written_interval("3/4", "1", O, X), written_interval("0", "1/2", X, O)]},
              {"points": [], "intervals": [written_interval("3/4", "3/4", X, X), written_interval("1/2", "3/4", O, O)]}],
          [WRITTEN_BASES[1][1], []]))  # parts out of order, a point written twice, a point written as [a, a]
@example((1, [{"points": [], "intervals": [written_interval("0", "1/3", X, X), written_interval("1/4", "1/2", X, O),
                                           written_interval("1/2", "2/3", X, O), written_interval("1/5", "1/5", O, X)]},
              {"points": [], "intervals": [written_interval("2/3", "1", X, X)]}],
          [[], WRITTEN_BASES[1][2]]))  # a piece's own intervals overlapping and abutting, an empty (a, a]
@example((2, [{"points": ["1/3"], "intervals": [written_interval("0", "1/3", X, O)]},
              {"points": [], "intervals": [written_interval("1/3", "2/3", O, X), written_interval("1/2", "2/3", O, O)]},
              {"points": ["1"], "intervals": [written_interval("2/3", "1", O, O)]}],
          [WRITTEN_BASES[2][1], WRITTEN_BASES[2][2], WRITTEN_BASES[2][1]]))  # a gap covered twice by its piece
def test_written_partition_loads_as_its_normal_form(case):
    """A partition written un-normalized loads to the regions and runs of
    one L of its normal form: each piece's region what the set constructor
    makes of its parts, and the annihilator of the owning piece's columns
    at every bound and in every gap, with a cut exactly where it changes.
    A fault gives the message of per-region normalization: an overlap
    between pieces, a gap, lo > hi, a value outside [0, 1]."""
    d, partition, bases = case
    field = field_spec_from_json(field_payload(d, partition, bases)).subfield
    regions = [region_of(doc) for doc in partition]
    assert tuple(p.region for p in field.pieces) == tuple(regions)
    ends = sorted({x for s in regions for x in (*s.points, *(e for iv in s.intervals for e in (iv.lo, iv.hi)))}
                  | {F(0), F(1)})
    probes = [x for a, b in zip(ends, ends[1:]) for x in (a, (a + b) / 2)] + [F(1)]
    owned = [annihilator(field.pieces[next(i for i, s in enumerate(regions) if s.contains(x))].basis, d) for x in probes]
    assert [field.annihilator_at(x) for x in probes] == owned
    assert set(field.cuts) <= set(ends)
    rows = field.rows
    assert all(not rows[2 * k - 1] == rows[2 * k] == rows[2 * k + 1] for k in range(1, len(field.cuts) - 1))
    normal = field_spec_from_json(field_payload(d, [subset_to_json(s) for s in regions], bases)).subfield
    assert (normal.cuts, normal.rows) == (field.cuts, field.rows)

    owner, doc = next((i, doc) for i, doc in enumerate(partition) if not regions[i].is_empty())
    faults = [
        ([{"points": [], "intervals": []} if i == owner else r for i, r in enumerate(partition)],
         (SchemaError, "partition pieces do not cover [0, 1]")),
        ([{**r, "intervals": [*r["intervals"], written_interval("1/2", "1/3", X, O)]} if i == owner else r
          for i, r in enumerate(partition)], (SchemaError, "interval with lo > hi: [1/2, 1/3)")),
        ([{**r, "points": [*r["points"], "13/12"]} if i == owner else r for i, r in enumerate(partition)],
         (OutOfRange, "value 13/12 outside [0, 1]")),
    ]
    if len(partition) > 1:  # the owning piece's parts written into a second piece too
        faults.append(([*partition, doc], (SchemaError, "partition pieces overlap")))
    for written, error in faults:
        assert loading_error(field_payload(d, written, [*bases, []][:len(written)])) == error


# the 24 generated documents the loader tests share: every fiber dimension and defect, small and at the gen caps
LOADED_DOCUMENTS = [gen_field(d, pieces, max(gens, d), defect, 7)
                    for d in (1, 2, 3, 4) for defect in ("none", "points", "interval") for pieces, gens in ((2, 1), (16, 8))]


def test_loading_sweeps_nothing_and_eliminates_each_basis_once(monkeypatch):
    """Loading a document normalizes no region by itself (no `_sweep`), runs
    one elimination per distinct basis, which every piece with that basis
    reads, and reduces each section piece once, in the section constructor."""
    counts = {"_sweep": 0, "annihilator": 0, "_reduced": 0}

    def counted(module, name):
        function = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(subsets, "_sweep")
    counted(fields, "annihilator")
    counted(sections, "_reduced")
    shared = 0
    for doc in LOADED_DOCUMENTS:
        counts.update(dict.fromkeys(counts, 0))
        payload = doc["payload"]
        field = field_spec_from_json(payload).subfield
        distinct = len({p.basis for p in field.pieces})
        assert counts == {"_sweep": 0, "annihilator": distinct,
                          "_reduced": sum(len(g["pieces"]) for g in payload["generators"])}
        bounds = projector_oracle.partition_bounds(field)
        for x in bounds + [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]:
            assert field.annihilator_at(x) == annihilator(field.pieces[projector_oracle.owner(field, x)].basis, field.d)
        shared += len(field.pieces) - distinct
    assert shared > 0  # some documents repeat a basis, so the count tells sharing from none
