from fractions import Fraction as F

import projector_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from projector_oracle import mat_conj_t, mat_mul

from essmod.errors import DimensionMismatch, GeneratorsNotSpanning, IrrationalRoot
from essmod.fields import (
    FieldModuleSpec,
    FieldPiece,
    SubspaceField,
    _outside,
    analyze_field,
    commutative_limit_identity,
    is_essential_field,
    residual_set,
)
from essmod.generate import gen_field
from essmod.polynomials import GaussianPoly, RationalPoly
from essmod.rationals import CR_ZERO, annihilator, cr, mat, mat_identity, mat_rank
from essmod.serialize import field_spec_from_json
from essmod.sections import PiecewiseSection
from essmod.subsets import SymbolicSubset


def zero_basis(d):
    return tuple(() for _ in range(d))


def x_poly():
    return GaussianPoly(RationalPoly.x(), RationalPoly.zero())


def two_zone_field():
    """L = {0} on [0, 1/2], full on (1/2, 1]."""
    return SubspaceField(
        1,
        (
            FieldPiece(SymbolicSubset.interval(0, F(1, 2), True, True), zero_basis(1)),
            FieldPiece(SymbolicSubset.interval(F(1, 2), 1, False, True), mat([[1]])),
        ),
    )


def test_partition_must_cover_and_not_overlap():
    with pytest.raises(ValueError, match="cover"):
        SubspaceField(1, (FieldPiece(SymbolicSubset.interval(0, F(1, 2)), mat([[1]])),))
    with pytest.raises(ValueError, match="overlap"):
        SubspaceField(
            1,
            (
                FieldPiece(SymbolicSubset.interval(0, F(3, 4)), mat([[1]])),
                FieldPiece(SymbolicSubset.interval(F(1, 2), 1, False, True), mat([[1]])),
            ),
        )


def test_projectors_are_exact_idempotents():
    field = SubspaceField(
        2,
        (
            FieldPiece(SymbolicSubset.interval(0, F(1, 2), True, False), mat([[1], [1]])),
            FieldPiece(SymbolicSubset.interval(F(1, 2), 1, True, True), mat_identity(2)),
        ),
    )
    p = projector_oracle.projector_at(field, F(1, 4))
    assert mat_mul(p, p) == p
    assert mat_conj_t(p) == p
    assert p[0][0] == cr(F(1, 2))  # projector onto span(1,1)
    assert field.annihilator_at(F(1, 4)) == (((-1, 0), (1, 0)),)


def test_residual_set_full_fiber_is_empty():
    m = PiecewiseSection.scalar_poly(x_poly())
    assert residual_set(m, SubspaceField.full(1)).is_empty()


def test_residual_set_half_line_example():
    m = PiecewiseSection.scalar_poly(x_poly())
    y = residual_set(m, two_zone_field())
    assert y == SymbolicSubset.interval(0, F(1, 2), False, True)


def test_residual_set_isolated_root_example():
    # L = span(e1), m = (x, x - 1/2): defect everywhere except x = 1/2
    field = SubspaceField(2, (FieldPiece(SymbolicSubset.full(), mat([[1], [0]])),))
    m = PiecewiseSection(
        2,
        (F(0), F(1)),
        ((x_poly(), GaussianPoly(RationalPoly((F(-1, 2), F(1))), RationalPoly.zero())),),
    )
    y = residual_set(m, field)
    assert y == SymbolicSubset.full() - SymbolicSubset.point(F(1, 2))


def test_residual_set_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        residual_set(PiecewiseSection.constant([1, 0]), SubspaceField.full(1))


def test_residual_set_irrational_boundary_rejected():
    # (I - P)m has coordinate x^2 - 1/2 on the defective piece
    field = SubspaceField(
        1,
        (
            FieldPiece(SymbolicSubset.interval(0, 1, True, True), zero_basis(1)),
        ),
    )
    poly = GaussianPoly(RationalPoly((F(-1, 2), F(0), F(1))), RationalPoly.zero())
    m = PiecewiseSection.scalar_poly(poly)
    with pytest.raises(IrrationalRoot):
        residual_set(m, field)


def test_total_defect_standard_basis_full_field():
    spec = FieldModuleSpec(
        2,
        (PiecewiseSection.constant([1, 0]), PiecewiseSection.constant([0, 1])),
        SubspaceField.full(2),
    )
    assert analyze_field(spec).total.is_empty()
    assert is_essential_field(spec).essential


def test_total_defect_single_generator_half_line():
    spec = FieldModuleSpec(
        1, (PiecewiseSection.scalar_poly(x_poly()),), two_zone_field()
    )
    assert analyze_field(spec).total == SymbolicSubset.interval(0, F(1, 2), False, True)


def test_total_defect_union_of_disjoint_defects():
    # generator 1 defective on (1/8, 1/4), generator 2 on (5/8, 3/4)
    field = SubspaceField(
        2,
        (
            FieldPiece(SymbolicSubset.interval(F(1, 8), F(1, 4), False, False), mat([[0], [1]])),
            FieldPiece(SymbolicSubset.interval(F(5, 8), F(3, 4), False, False), mat([[1], [0]])),
            FieldPiece(
                SymbolicSubset.full()
                - SymbolicSubset.interval(F(1, 8), F(1, 4), False, False)
                - SymbolicSubset.interval(F(5, 8), F(3, 4), False, False),
                mat_identity(2),
            ),
        ),
    )
    e1 = PiecewiseSection.constant([1, 0])
    e2 = PiecewiseSection.constant([0, 1])
    spec = FieldModuleSpec(2, (e1, e2), field)
    expected = SymbolicSubset.interval(F(1, 8), F(1, 4), False, False) | SymbolicSubset.interval(
        F(5, 8), F(3, 4), False, False
    )
    analysis = analyze_field(spec)
    assert analysis.total == expected
    assert analysis.defects == (residual_set(e1, field), residual_set(e2, field))
    assert residual_set(e1, field) == SymbolicSubset.interval(F(1, 8), F(1, 4), False, False)


def test_essential_field_point_defects():
    pts = [F(1, 4), F(1, 2), F(3, 4)]
    pieces = [FieldPiece(SymbolicSubset.point(x), zero_basis(2)) for x in pts]
    rest = SymbolicSubset.full()
    for x in pts:
        rest = rest - SymbolicSubset.point(x)
    pieces.append(FieldPiece(rest, mat_identity(2)))
    spec = FieldModuleSpec(
        2,
        (PiecewiseSection.constant([1, 0]), PiecewiseSection.constant([0, 1])),
        SubspaceField(2, tuple(pieces)),
    )
    decision = is_essential_field(spec)
    assert decision.essential
    assert decision.analysis.total == SymbolicSubset.from_points(pts)


def test_non_essential_field_interval_defect():
    field = SubspaceField(
        2,
        (
            FieldPiece(SymbolicSubset.interval(F(3, 10), F(2, 5), False, False), mat([[0], [1]])),
            FieldPiece(
                SymbolicSubset.full() - SymbolicSubset.interval(F(3, 10), F(2, 5), False, False),
                mat_identity(2),
            ),
        ),
    )
    spec = FieldModuleSpec(
        2, (PiecewiseSection.constant([1, 0]), PiecewiseSection.constant([0, 1])), field
    )
    decision = is_essential_field(spec)
    assert not decision.essential
    assert decision.analysis.total == SymbolicSubset.interval(F(3, 10), F(2, 5), False, False)


def test_generators_not_spanning_raises():
    # single generator e1 cannot span C^2 off the (empty) defect set
    spec = FieldModuleSpec(2, (PiecewiseSection.constant([1, 0]),), SubspaceField.full(2))
    with pytest.raises(GeneratorsNotSpanning):
        is_essential_field(spec)


def test_residual_with_breakpoint_on_point_defect():
    # generator breakpoint coincides with an isolated defective point
    field = SubspaceField(
        1,
        (
            FieldPiece(SymbolicSubset.point(F(1, 2)), zero_basis(1)),
            FieldPiece(SymbolicSubset.full() - SymbolicSubset.point(F(1, 2)), mat([[1]])),
        ),
    )
    # m kinks at 1/2: x on the left, 1 - x on the right; m(1/2) = 1/2 ≠ 0
    left = GaussianPoly(RationalPoly.x(), RationalPoly.zero())
    right = GaussianPoly(RationalPoly((F(1), F(-1))), RationalPoly.zero())
    m = PiecewiseSection(1, (F(0), F(1, 2), F(1)), ((left,), (right,)))
    assert residual_set(m, field) == SymbolicSubset.point(F(1, 2))
    # a kink that vanishes exactly at the defective point is never defective
    left2 = GaussianPoly(RationalPoly((F(-1, 2), F(1))), RationalPoly.zero())
    right2 = GaussianPoly(RationalPoly((F(1, 2), F(-1))), RationalPoly.zero())
    m2 = PiecewiseSection(1, (F(0), F(1, 2), F(1)), ((left2,), (right2,)))
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
            coeffs = [cr(rng.dyadic(3, 1), rng.dyadic(3, 1)) for _ in range(2)]
            c = PiecewiseSection.scalar_poly(GaussianPoly.from_coeffs(coeffs))
            m = m + g.mul_scalar_section(c)
        if m.is_zero():
            continue
        try:
            y_m = residual_set(m, spec.subfield)
        except IrrationalRoot:
            continue
        assert y_m.is_subset_of(total)
        checked += 1


# --- commutative limit identity ---------------------------------------------------

def test_identity_with_n_equal_m():
    m = PiecewiseSection.constant([1, cr(2, 1)])
    assert commutative_limit_identity(m, m)


def test_identity_with_scalar_multiple():
    m = PiecewiseSection.constant([1, cr(0, 1)])
    c = PiecewiseSection.scalar_poly(GaussianPoly(RationalPoly.x(), RationalPoly((F(1, 3),))))
    n = m.mul_scalar_section(c)
    assert commutative_limit_identity(m, n)


def test_identity_fails_for_orthogonal_sections():
    # n ⊥ m pointwise and n outside the closure of m·A: precondition necessary
    m = PiecewiseSection.constant([1, 0])
    n = PiecewiseSection.constant([0, 1])
    assert not commutative_limit_identity(m, n)


def test_identity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        commutative_limit_identity(
            PiecewiseSection.constant([1]), PiecewiseSection.constant([1, 0])
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
    ann = annihilator(basis, d)
    assert len(ann) == d - mat_rank(basis)
    assert _outside(ann, v) == projector_oracle.outside(basis, d, v)


@pytest.mark.parametrize("defect", ["none", "points", "interval"])
@settings(deadline=None, max_examples=12)
@given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_residual_sets_agree_with_projector_oracle(defect, d, seed):
    spec = field_spec_from_json(gen_field(d, 6, d + 2, defect, seed)["payload"])
    for g in spec.generators:
        assert residual_set(g, spec.subfield) == projector_oracle.residual_set(g, spec.subfield)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: point probes miss isolated rank drops")
def test_spanning_certificate_sees_isolated_rank_drop():
    """g(x) = x − 1/3 spans C off {1/3} only: the certificate must show the
    rank drop at 1/3, in the defect set, a probe, or by refusing."""
    g = PiecewiseSection.scalar_poly(GaussianPoly(RationalPoly((F(-1, 3), F(1))), RationalPoly.zero()))
    assert g(F(1, 3)) == (CR_ZERO,)
    spec = FieldModuleSpec(1, (g,), SubspaceField.full(1))
    try:
        decision = is_essential_field(spec)
    except GeneratorsNotSpanning:
        return
    assert decision.analysis.total.contains(F(1, 3)) or any(
        p.x == F(1, 3) and not p.full for p in decision.probes
    )
