import dataclasses
import random
from fractions import Fraction as F

import projector_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from field_docs import full_field
from projector_oracle import value_at
from poly_oracle import GaussianPoly, RationalPoly, piece

from essmod import fields, rationals
from essmod.errors import NoGeneratorDefect, NoRoom, PreconditionFailed, SampleNotInDefect, ZeroInput
from essmod.fields import (
    FieldModuleSpec,
    FieldPiece,
    SubspaceField,
    _pick_interval,
    analyze_field,
    essential_witness,
    inductive_witness_section,
    is_essential_field,
    non_essential_witness,
    residual_set,
    witness_samples,
)
from essmod.generate import gen_field
from essmod.rationals import identity_columns
from essmod.runner import run_check, run_witness
from essmod.sections import PiecewiseSection, unit_bump
from essmod.serialize import field_spec_from_json
from essmod.subsets import SymbolicSubset


def field_with_regions(d, *pairs):
    """Build a field from (region, basis) pairs plus a full-fiber remainder."""
    pieces = []
    rest = SymbolicSubset.interval(0, 1)
    for region, basis in pairs:
        pieces.append(FieldPiece(region, basis))
        rest = rest.difference(region)
    if not rest.is_empty():
        pieces.append(FieldPiece(rest, identity_columns(d)))
    return SubspaceField(d, tuple(pieces))


# --- essential witness ------------------------------------------------------------

def test_essential_witness_full_field():
    m = PiecewiseSection.polynomial([[1], [0]])
    field = full_field(2)
    w = essential_witness(m, field, residual_set(m, field))
    assert w.verified
    assert not w.ma.is_zero()


def test_essential_witness_avoids_point_defect():
    field = field_with_regions(1, (SymbolicSubset(points=(F(1, 2),)), ()))
    m = PiecewiseSection.polynomial([[1]])
    w = essential_witness(m, field, residual_set(m, field))
    assert w.verified
    lo, hi = w.support
    assert not (lo <= F(1, 2) <= hi)
    assert residual_set(w.ma, field).is_empty()


def test_essential_witness_support_follows_the_section_support():
    # m vanishes on [0, 1/2]; the defect lives in (0, 1/4); a must sit in (1/2, 1)
    rise = GaussianPoly(
        (RationalPoly((0, 1)) - RationalPoly.const(F(1, 2))) * (RationalPoly((0, 1)) - RationalPoly.const(F(1, 2))),
        RationalPoly.zero(),
    )
    m = PiecewiseSection(1, (F(0), F(1, 2), F(1)), (piece((GaussianPoly.zero(),)), piece((rise,))))
    field = field_with_regions(
        1, (SymbolicSubset.interval(F(0), F(1, 4), False, False), ())
    )
    w = essential_witness(m, field, residual_set(m, field))
    assert w.verified
    lo, hi = w.support
    assert F(1, 2) < lo < hi < F(1)


def test_essential_witness_rejects_zero_section():
    with pytest.raises(ZeroInput):
        essential_witness(PiecewiseSection.zero(1), full_field(1), SymbolicSubset())


def test_essential_witness_precondition():
    field = field_with_regions(
        1, (SymbolicSubset.interval(F(1, 4), F(1, 2), False, False), ())
    )
    m = PiecewiseSection.polynomial([[1]])
    with pytest.raises(PreconditionFailed):
        essential_witness(m, field, residual_set(m, field))


def test_pick_interval_requires_an_interval():
    with pytest.raises(NoRoom):
        _pick_interval(SymbolicSubset(points=(F(1, 2),)))


# --- non-essential witness ----------------------------------------------------------

def test_non_essential_witness_interval_defect():
    field = field_with_regions(
        2, (SymbolicSubset.interval(F(3, 10), F(2, 5), False, False), (((0, 0), (1, 0)),))
    )
    m = PiecewiseSection.polynomial([[1], [0]])
    w = non_essential_witness(m, field, residual_set(m, field))
    assert w.closure_equal and w.ma_nonzero and w.verified
    lo, hi = w.support
    assert F(3, 10) <= lo < hi <= F(2, 5)
    # the probes show b compressing m·a into the submodule kills it
    assert all(p.implication_holds for p in w.probes)
    assert any(not p.residual_empty for p in w.probes)


def test_non_essential_witness_polynomial_defect():
    # m = (x, 0) against L = span(e2) on (0, 1): defect dense in the support
    field = field_with_regions(2, (SymbolicSubset.interval(F(0), F(1), False, False), (((0, 0), (1, 0)),)))
    m = PiecewiseSection(
        2,
        (F(0), F(1)),
        (piece((GaussianPoly(RationalPoly((0, 1)), RationalPoly.zero()), GaussianPoly.zero())),),
    )
    w = non_essential_witness(m, field, residual_set(m, field))
    assert w.closure_equal and w.ma_nonzero


def test_non_essential_witness_precondition_failure():
    field = field_with_regions(1, (SymbolicSubset(points=(F(1, 2),)), ()))
    m = PiecewiseSection.polynomial([[1]])
    with pytest.raises(PreconditionFailed):
        non_essential_witness(m, field, residual_set(m, field))


def fail_a_direct_probe(monkeypatch):
    """Patch `fields.non_essential_witness` to add a probe whose implication
    fails: m·a·b lies in L everywhere and is not zero, a right multiple of
    m·a inside the submodule."""
    original = fields.non_essential_witness

    def with_a_failing_probe(m, field, defect):
        w = original(m, field, defect)
        return dataclasses.replace(w, probes=(*w.probes, fields.ProbeReport(residual_empty=True, product_zero=False)))

    monkeypatch.setattr(fields, "non_essential_witness", with_a_failing_probe)


# --- where the non-essential witnesses go -------------------------------------------

@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), pieces=st.integers(2, 16), extra=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1), count=st.integers(1, 64))
def test_witness_samples_are_defect_points_of_the_middle_half(d, pieces, extra, seed, count):
    """The policy `essmod witness` and the suite share: `count` increasing
    points, each outside L for some generator (the projector oracle), inside
    the middle half of the widest interval of closure(total)'s interior, and
    the inductive witness on them verifies."""
    spec = field_spec_from_json(gen_field(d, pieces, d + extra, "interval", seed)["payload"])
    total = analyze_field(spec).total
    (lo, hi), xs = witness_samples(total, count)
    widest = max(total.closure().interior().intervals, key=lambda iv: iv.hi - iv.lo)
    width = widest.hi - widest.lo
    assert (lo, hi) == (widest.lo + width / 4, widest.hi - width / 4)
    assert len(xs) == count and all(a < b for a, b in zip(xs, xs[1:]))
    assert lo < xs[0] and xs[-1] < hi
    assert all(any(projector_oracle.outside_at(spec.subfield, x, value_at(g, x)) for g in spec.generators) for x in xs)
    assert inductive_witness_section(spec, (lo, hi), xs, total).verified


# --- inductive witness section --------------------------------------------------------

def planted_interval_spec():
    field = field_with_regions(
        2, (SymbolicSubset.interval(F(3, 10), F(2, 5), False, False), (((0, 0), (1, 0)),))
    )
    return FieldModuleSpec(
        2, (PiecewiseSection.polynomial([[1], [0]]), PiecewiseSection.polynomial([[0], [1]])), field
    )


def test_inductive_witness_base_case():
    spec = planted_interval_spec()
    w = inductive_witness_section(spec, (F(3, 10), F(2, 5)), [F(1, 3)], analyze_field(spec).total)
    assert w.sample_defects_verified
    assert w.lambdas == (F(1, 2),)
    # m = λ1 g_{k1} a1 exactly: value at the sample is λ1·g(x1)
    val = value_at(w.m, F(1, 3))
    g_val = value_at(spec.generators[w.picks[0]], F(1, 3))
    assert all(v == g * w.lambdas[0] for v, g in zip(val, g_val))


def test_inductive_witness_shared_generator_keeps_default_lambdas():
    spec = planted_interval_spec()
    xs = [F(3, 10) + F(i, 100) for i in range(1, 9)]
    w = inductive_witness_section(spec, (F(3, 10), F(2, 5)), xs, analyze_field(spec).total)
    assert w.sample_defects_verified
    assert w.picks == (0,) * 8
    assert w.lambdas == tuple(F(1, 2 ** j) for j in range(1, 9))


ADVERSARIAL_SAMPLES = [F(1, 2), F(1, 8), F(5, 32)]


def adversarial_lambda_spec(gens=None):
    """A crafted instance where λ3 = 1/8 lands the partial sum exactly in the
    subspace at x3, forcing the fallback λ3 = 1/16."""
    x1, x2, x3 = ADVERSARIAL_SAMPLES
    field = field_with_regions(
        2,
        (SymbolicSubset(points=(x1,)), (((1, 0), (0, 0)),)),          # span(e1)
        (SymbolicSubset(points=(x2,)), (((1, 0), (1, 0)),)),          # span(e1 + e2)
        (SymbolicSubset(points=(x3,)), (((1, 0), (0, 0)),)),          # span(e1)
    )
    g1 = PiecewiseSection.polynomial([[1], [1]])
    g2 = PiecewiseSection.polynomial([[1], [F(-2, 3)]])
    return FieldModuleSpec(2, gens or (g1, g2), field)


def test_inductive_witness_adversarial_lambda_adjustment():
    spec = adversarial_lambda_spec()
    w = inductive_witness_section(spec, (F(1, 16), F(3, 4)), ADVERSARIAL_SAMPLES, analyze_field(spec).total)
    assert w.picks == (0, 1, 0)
    assert w.lambdas == (F(1, 2), F(1, 4), F(1, 16))
    assert w.sample_defects_verified


def test_inductive_witness_rejects_sample_outside_defect():
    spec = planted_interval_spec()
    with pytest.raises(SampleNotInDefect):
        inductive_witness_section(spec, (F(1, 10), F(2, 5)), [F(1, 10)], analyze_field(spec).total)


def test_inductive_witness_refuses_a_defect_set_the_generators_contradict():
    """On the full field over C² with generators e₁ and e₂, no generator
    leaves L at 1/2: a defect set [1/4, 3/4] there disagrees with them."""
    spec = FieldModuleSpec(2, (PiecewiseSection.polynomial([[1], [0]]), PiecewiseSection.polynomial([[0], [1]])),
                           full_field(2))
    with pytest.raises(NoGeneratorDefect, match="at sample 1/2"):
        inductive_witness_section(spec, (F(1, 4), F(3, 4)), [F(1, 2)], SymbolicSubset.interval(F(1, 4), F(3, 4)))


def test_inductive_witness_refuses_no_samples():
    """With no samples m would be the zero section, which lies in every
    submodule: a certificate that proves nothing."""
    spec = planted_interval_spec()
    with pytest.raises(ValueError, match="at least one sample"):
        inductive_witness_section(spec, (F(3, 10), F(2, 5)), [], analyze_field(spec).total)


def test_inductive_witness_lambda_bounds_and_membership():
    spec = planted_interval_spec()
    xs = [F(3, 10) + F(i, 50) for i in range(1, 5)]
    w = inductive_witness_section(spec, (F(3, 10), F(2, 5)), xs, analyze_field(spec).total)
    for j, lam in enumerate(w.lambdas, start=1):
        assert F(0) < lam <= F(1, 2 ** j)
    assert w.verified
    assert not dataclasses.replace(w, lambdas=(F(1, 2) + w.lambdas[0], *w.lambdas[1:])).verified
    assert not dataclasses.replace(w, sample_defects_verified=False).verified
    # exact postcondition: m(x_j) outside L at every sample
    for x in w.samples:
        assert projector_oracle.outside_at(spec.subfield, x, value_at(w.m, x))


def test_inductive_witness_defect_set_not_nowhere_dense():
    """The built section has a defect set containing the sampled region's
    closure points, so with dense sampling its closure gains interior."""
    spec = planted_interval_spec()
    decision = is_essential_field(spec)
    assert not decision.essential
    xs = [F(3, 10) + F(i, 100) for i in range(1, 9)]
    w = inductive_witness_section(spec, (F(3, 10), F(2, 5)), xs, analyze_field(spec).total)
    y_m = residual_set(w.m, spec.subfield)
    for x in xs:
        assert y_m.contains(x)


# --- the one-pass inductive sum against J refine-and-add passes -------------------------

def positive_tent(rng, cuts):
    """Continuous piecewise-linear scalar section, positive on [0, 1], with
    breakpoints at `cuts`: multiplying a generator by it changes neither
    its zero set nor its defect set, only its pieces."""
    bps = (F(0), *cuts, F(1))
    vals = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in bps]
    pieces = []
    for a, b, va, vb in zip(bps, bps[1:], vals, vals[1:]):
        slope = (vb - va) / (b - a)
        pieces.append(piece((GaussianPoly(RationalPoly((va - slope * a, slope)), RationalPoly.zero()),)))
    return PiecewiseSection(1, bps, tuple(pieces))


def refine_and_add_sum(spec, xs, lambdas, picks):
    """Σ λ_j·g_{k_j}·unit_bump(x_j, r_j) by one refine-and-add pass per term,
    r_j half the distance from x_j to the nearest earlier sample or to the
    ends of [0, 1]. Checks on the way that k_j is the first generator
    leaving L at x_j and λ_j = 2^-j unless that puts the partial sum in L."""
    field, total = spec.subfield, PiecewiseSection.zero(spec.d)
    for j, (x, lam, k) in enumerate(zip(xs, lambdas, picks), start=1):
        outside = [projector_oracle.outside_at(field, x, value_at(g, x)) for g in spec.generators]
        assert k == outside.index(True)
        partial, g_x = value_at(total, x), value_at(spec.generators[k], x)
        default = tuple(s + g * F(1, 2**j) for s, g in zip(partial, g_x))
        assert lam == (F(1, 2**j) if projector_oracle.outside_at(field, x, default) else F(1, 2 ** (j + 1)))
        radius = min([abs(x - y) for y in xs[: j - 1]] + [x, 1 - x]) / 2
        total = total + spec.generators[k].mul_scalar_section(unit_bump(x, radius)).scale(lam)
    return total


def planted_multi_piece(d, pieces, seed, count):
    """A planted interval spec whose generators are made multi-piece; the
    samples fill the defect interval in shuffled order, so later bumps sit
    inside earlier ones."""
    rng = random.Random(seed)
    spec = field_spec_from_json(gen_field(d, pieces, d + 2, "interval", seed)["payload"])
    gens = tuple(
        g.mul_scalar_section(positive_tent(rng, sorted({F(rng.randint(1, 63), 64) for _ in range(3)})))
        for g in spec.generators
    )
    spec = FieldModuleSpec(d, gens, spec.subfield)
    total = analyze_field(spec).total
    iv = max(total.closure().interior().intervals, key=lambda i: i.hi - i.lo)
    xs = [iv.lo + (iv.hi - iv.lo) * F(i, count + 1) for i in range(1, count + 1)]
    rng.shuffle(xs)
    return spec, (iv.lo, iv.hi), xs


def tented_adversarial_lambda():
    """The adversarial λ spec with its generators times a positive tent that
    breaks at x3: a positive factor moves no membership, so λ3 still falls
    back, and x3 now sits on a generator breakpoint."""
    tent = positive_tent(random.Random(0), [ADVERSARIAL_SAMPLES[2]])
    spec = adversarial_lambda_spec(tuple(g.mul_scalar_section(tent) for g in adversarial_lambda_spec().generators))
    return spec, (F(1, 16), F(3, 4)), ADVERSARIAL_SAMPLES


PLANTED = [(1, 6, 1, 8), (2, 16, 2, 64), (3, 10, 3, 24), (4, 16, 4, 64), (4, 4, 5, 1)]


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda c=c: planted_multi_piece(*c), id="-".join(map(str, c))) for c in PLANTED]
    + [pytest.param(tented_adversarial_lambda, id="adversarial-lambda")],
)
def test_one_pass_inductive_sum_equals_refine_and_add(make):
    """The one-pass sum against J refine-and-add passes: pieces and
    breakpoints must agree exactly."""
    spec, interval, xs = make()
    w = inductive_witness_section(spec, interval, xs, analyze_field(spec).total)
    expected = refine_and_add_sum(spec, xs, w.lambdas, w.picks)
    assert w.m.breakpoints == expected.breakpoints
    assert w.m.pieces == expected.pieces
    assert w.sample_defects_verified


def test_field_membership_runs_without_gaussian_rational_arithmetic(monkeypatch):
    """Checks and witnesses decide membership on the integer kernel
    (`_scaled_value` and `_outside`): the library has no Gaussian-rational
    type, and with the test oracle's arithmetic disabled they still run, the
    λ fallback included."""
    assert not hasattr(rationals, "ComplexRational") and not hasattr(rationals, "cr")
    docs = [gen_field(d, 4, d + 1, "interval", d) for d in (1, 2, 3)]
    spec = adversarial_lambda_spec()

    def refuse(*_):
        raise AssertionError("ComplexRational arithmetic")

    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(projector_oracle.ComplexRational, name, refuse)
    with pytest.raises(AssertionError):
        projector_oracle.cr(1) + projector_oracle.cr(1)
    for doc in docs:
        assert run_check(doc)["decision"] is False
        assert run_witness(doc, samples=64)["checks_ok"] is True
    w = inductive_witness_section(spec, (F(1, 16), F(3, 4)), ADVERSARIAL_SAMPLES, analyze_field(spec).total)
    assert w.lambdas == (F(1, 2), F(1, 4), F(1, 16)) and w.sample_defects_verified
