import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from essmod import linalg
from essmod.linalg import ACCEPT_TOL
from essmod.algebra import (
    AlgebraElement,
    AlgebraShape,
    RightIdeal,
    closed_subideal,
    ideal_support_projection,
    is_essential_right_ideal,
    is_projection,
)
from essmod.errors import EigenvalueAtThreshold, EssmodError, NonFinite, NotProjection, ZeroInput
from essmod.generate import SplitMix64, rand_algebra_element, rand_matrix, rand_projection
from float_oracle import calculus, in_ideal, intersection_dim, lower_approximants, matrix_units, rand_hermitian
from projector_oracle import svd_is_projection

M2 = AlgebraShape((2,))
M3 = AlgebraShape((3,))
MIXED = AlgebraShape((2, 3))


def diag_elem(*vals):
    return AlgebraElement(AlgebraShape((len(vals),)), (np.diag([complex(v) for v in vals]),))


def e11_m2():
    return AlgebraElement(M2, (np.array([[1, 0], [0, 0]], dtype=complex),))


# --- the tests' eigh functional calculus ------------------------------------------
#
# The oracle that the spectral tests below, and acceptance criterion 1, hold
# the witness's p against.

def test_calculus_sqrt_on_diagonal():
    a = diag_elem(0, 1, 4)
    r = calculus(a, math.sqrt)
    assert r.distance(diag_elem(0, 1, 2)) <= 1e-10


def test_calculus_constant_one_gives_identity():
    rng = SplitMix64(1)
    a = rand_hermitian(rng, MIXED)
    r = calculus(a, lambda t: 1.0)
    assert r.distance(AlgebraElement.identity(MIXED)) <= 1e-10


def test_calculus_identity_function_recovers_input():
    rng = SplitMix64(2)
    a = rand_hermitian(rng, MIXED)
    assert calculus(a, lambda t: t).distance(a) <= 1e-10 * (1 + a.norm())


def test_calculus_cube_matches_matrix_power():
    rng = SplitMix64(3)
    for _ in range(10):
        a = rand_hermitian(rng, M3)
        cubed = calculus(a, lambda t: t ** 3)
        assert cubed.distance(a * a * a) <= 1e-9 * (1 + a.norm() ** 3)


# --- spectral projections ------------------------------------------------------
#
# closed_subideal's p = χ_(eps,∞)(a) for a = x·x*, at the eps it chooses.

def test_spectral_projection_diagonal():
    """a = diag(1e-10, 2): the σ² below the keep line 2e-8 is cut, eps ≈ 1."""
    w = closed_subideal(diag_elem(1e-5, np.sqrt(2.0)))
    assert w.eps == pytest.approx(1.0)
    assert w.p.distance(diag_elem(0, 1)) <= 1e-10


def test_spectral_projection_commutes_and_cuts():
    rng = SplitMix64(4)
    for _ in range(10):
        x = rand_algebra_element(rng, MIXED)
        if rng.randint(0, 1):
            x = rand_projection(rng, MIXED) * x
        w = closed_subideal(x)
        a, p = w.a, w.p
        assert (p * a).distance(a * p) <= 1e-9 * (1 + a.norm())
        cut = np.concatenate([np.linalg.eigvalsh(b) for b in (p * a * p).blocks])
        assert all(lam <= 1e-8 or lam > w.eps for lam in cut)


def test_spectral_projection_is_limit_of_lower_approximants():
    rng = SplitMix64(5)
    for _ in range(5):
        w = closed_subideal(rand_algebra_element(rng, M3))
        if np.min(np.abs(np.linalg.eigvalsh(w.a.blocks[0]) - w.eps)) < 1e-6:
            continue
        g = lower_approximants(w.a, w.eps, 10 ** 6)
        assert (w.p - g).norm() <= 1e-8


# --- lower approximants -----------------------------------------------------------
#
# The oracle's g_n, as criterion 1 and the limit test above read them.

def test_lower_approximant_above_knee_is_one():
    # eigenvalue 2 >= eps + 1/n with eps = 1, n = 1
    a = diag_elem(2.0)
    g = lower_approximants(a, 1.0, 1)
    assert g.distance(diag_elem(1.0)) <= 1e-12


def test_lower_approximant_below_threshold_is_zero():
    eps = 0.8
    a = diag_elem(eps / 2)
    for n in (1, 5, 100):
        assert lower_approximants(a, eps, n).is_zero()


def test_lower_approximants_increase_in_psd_order():
    rng = SplitMix64(6)
    a = rand_hermitian(rng, MIXED)
    eps = a.norm() / 2
    prev = lower_approximants(a, eps, 1)
    for n in range(2, 51):
        cur = lower_approximants(a, eps, n)
        diff = cur - prev
        assert all(np.linalg.eigvalsh(b)[0] >= -1e-12 for b in diff.blocks)
        prev = cur


# --- right ideals ---------------------------------------------------------------------

def test_ideal_from_projection_rejects_non_projection():
    with pytest.raises(NotProjection):
        RightIdeal(diag_elem(0.5, 1.0))


@pytest.mark.parametrize("delta, accepted", [(0.1 * ACCEPT_TOL, True), (10 * ACCEPT_TOL, False)])
def test_projection_acceptance_boundary(delta, accepted):
    """e11 + δ·e22 misses p² = p by about δ, against a cut of ACCEPT_TOL·(1 + ‖p‖)."""
    p = e11_m2() + delta * diag_elem(0, 1)
    if accepted:
        assert RightIdeal(p).support_projection is p
    else:
        with pytest.raises(NotProjection):
            RightIdeal(p)


@st.composite
def near_projections(draw):
    """Random projections, some blocks zero, each block left exact,
    perturbed by a hermitian, anti-hermitian or general matrix with largest
    entry 1e-10 to 1e-6, or given one entry near 1e308."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for n in dims:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        q = q[:, :draw(st.integers(0, n))]
        b = q @ q.conj().T
        kind = draw(st.sampled_from(["exact", "hermitian", "anti-hermitian", "general", "huge"]))
        if kind == "huge":
            b[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = (
                draw(st.sampled_from([1e307, 1e308, -1e308, 1.7e308])) * draw(st.sampled_from([1, 1j, 1 + 1j])))
        elif kind != "exact":
            e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            e = {"hermitian": e + e.conj().T, "anti-hermitian": e - e.conj().T, "general": e}[kind]
            b = b + 10 ** draw(st.floats(-10, -6)) * e / np.abs(e).max()
        blocks.append(b)
    return AlgebraShape(tuple(dims)), tuple(blocks)


def projection_outcome(predicate, shape, blocks):
    """The predicate's answer on a fresh element, or the type of the error it raised."""
    with np.errstate(all="ignore"):
        try:
            return predicate(AlgebraElement(shape, blocks))
        except EssmodError as exc:
            return type(exc)


@given(near_projections())
@settings(deadline=None, max_examples=300)
def test_is_projection_matches_svd_oracle(case):
    assert projection_outcome(is_projection, *case) == projection_outcome(svd_is_projection, *case)


def test_support_projection_of_identity():
    ideal = ideal_support_projection([AlgebraElement.identity(MIXED)])
    assert ideal.support_projection.distance(AlgebraElement.identity(MIXED)) <= 1e-10


def test_support_projection_of_rank_one_is_range_projector():
    rng = SplitMix64(11)
    v = np.array([[1.0], [2.0]]) / np.sqrt(5)
    x = AlgebraElement(M2, ((v @ np.array([[1.0, 1.0]])),))  # rank one
    ideal = ideal_support_projection([x])
    expected = v @ v.conj().T  # SVD-range oracle for a rank-one column space
    assert linalg.op_norm(ideal.support_projection.blocks[0] - expected) <= 1e-10


def test_support_projection_blockwise_independence():
    gens = [
        AlgebraElement(MIXED, (np.eye(2, dtype=complex), np.zeros((3, 3), dtype=complex)))
    ]
    ideal = ideal_support_projection(gens)
    assert linalg.op_norm(ideal.support_projection.blocks[0] - np.eye(2)) <= 1e-10
    assert linalg.op_norm(ideal.support_projection.blocks[1]) <= 1e-10


def test_ideal_roundtrip_random_projections():
    rng = SplitMix64(12)
    for _ in range(20):
        p = rand_projection(rng, MIXED)
        back = ideal_support_projection([p * e for e in matrix_units(MIXED)])
        assert back.support_projection.distance(p) <= 1e-8


# --- the closed-subideal pipeline ------------------------------------------------------

def test_closed_subideal_on_e11():
    w = closed_subideal(e11_m2())
    assert w.a.distance(e11_m2()) <= 1e-12
    assert w.eps == pytest.approx(0.5)
    assert w.p.distance(e11_m2()) <= 1e-10
    assert w.fa_p_error <= 1e-12
    assert all(e <= 1e-10 for e in w.probe_errors)
    assert all(e <= 1e-10 for e in w.membership_errors)
    # K is exactly e11·M2
    assert in_ideal(w.ideal, AlgebraElement(M2, (np.array([[5, 1], [0, 0]], dtype=complex),)))
    assert not in_ideal(w.ideal, AlgebraElement(M2, (np.array([[5, 1], [1, 0]], dtype=complex),)))


def test_closed_subideal_on_unitary_gives_whole_algebra():
    u = AlgebraElement(M2, (np.array([[0, 1], [1, 0]], dtype=complex),))
    w = closed_subideal(u)
    assert w.p.distance(AlgebraElement.identity(M2)) <= 1e-10
    assert w.ideal.rank() == 2


def test_closed_subideal_rank_matches_svd_oracle():
    rng = SplitMix64(13)
    for _ in range(20):
        x = rand_algebra_element(rng, MIXED)
        if rng.randint(0, 1):
            x = rand_projection(rng, MIXED) * x
        if x.is_zero(1e-8):
            continue
        w = closed_subideal(x)
        rank_oracle = sum(linalg.matrix_rank(b) for b in x.blocks)
        assert w.ideal.rank() == rank_oracle
        assert not w.p.is_zero(1e-8)
        assert w.verified


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e3])
@pytest.mark.parametrize("s", [1e-2, 1e-3, 3e-5, 1.2e-5, 1e-6])
def test_closed_subideal_threshold_is_scale_free(c, s):
    """x = c·u·diag(1, 1/2, s)·v: xA does not depend on c, and neither may
    the subideal. The threshold counted an eigenvalue of x·x* as nonzero
    above 1e-9·(1 + ‖x·x*‖), so every x with c = 1e-6 was refused as too
    small. Cutting at DEFAULT_TOL·‖x·x*‖ instead lets s = 1.2e-5 put eps
    within the spectral cut, and s = 1e-5 through with residuals past
    ACCEPT_TOL. Above ACCEPT_TOL·‖x·x*‖, s² decides the rank alone."""
    rng = SplitMix64(3)
    u, v = (np.linalg.qr(rand_matrix(rng, 3, 3))[0] for _ in range(2))
    w = closed_subideal(AlgebraElement(M3, (c * u @ np.diag([1.0, 0.5, s]) @ v,)))
    assert w.verified
    assert w.ideal.rank() == (3 if s * s > ACCEPT_TOL else 2)


def closed_subideal_probe_oracle(x, w):
    """The per-unit probe loop: each probe b = p·E over the matrix units as an
    algebra element, checked by two element distances: f(a)p·b against b,
    and x·(y·b) against b for x's own SVD factor y = V_r Σ_r⁻¹ U_r*, r = {σ² > eps}."""
    factor = []
    for x_b in x.blocks:
        u, s, vh = np.linalg.svd(x_b)
        r = s * s > w.eps
        factor.append(vh[r].conj().T @ (u[:, r].conj().T / s[r, None]))
    y = AlgebraElement(x.shape, tuple(factor))
    probe_errors, membership_errors = [], []
    for b in (w.p * e for e in matrix_units(x.shape)):
        bscale = 1.0 + b.norm()
        probe_errors.append((w.fa * (w.p * b)).distance(b) / bscale)
        membership_errors.append((x * (y * b)).distance(b) / bscale)
    return probe_errors, membership_errors


def test_closed_subideal_probes_match_per_unit_oracle():
    """The witness takes each probe's norms as column 2-norms, the oracle as
    largest singular values: they agree to the last ulps, within 1e-14.
    Besides random x, x = u·diag(1, 1e-2, 10^−3.5)·v, whose membership
    residual, at about κ(x) = 10^3.5 ulps, tells columns from rows."""
    rng = SplitMix64(14)
    xs = []
    for shape in (M2, M3, MIXED, AlgebraShape((1, 2, 3))):
        for _ in range(5):
            x = rand_algebra_element(rng, shape)
            if rng.randint(0, 1):
                x = rand_projection(rng, shape) * x
            xs.append(x)
    for _ in range(3):
        u, v = (np.linalg.qr(rand_matrix(rng, 3, 3))[0] for _ in range(2))
        xs.append(AlgebraElement(M3, (u @ np.diag([1.0, 1e-2, 10 ** -3.5]) @ v,)))
    for x in xs:
        if x.is_zero(1e-8):
            continue
        w = closed_subideal(x)
        expected = closed_subideal_probe_oracle(x, w)
        assert np.allclose((w.probe_errors, w.membership_errors), expected, rtol=0.0, atol=1e-14)


def test_closed_subideal_rejects_zero():
    with pytest.raises(ZeroInput):
        closed_subideal(AlgebraElement.zeros(M2))


def test_closed_subideal_refuses_a_threshold_by_the_spectral_cut():
    """closed_subideal refuses an eigenvalue of a within the spectral cut
    DEFAULT_TOL·‖a‖ of eps. eps is the middle of the gap around the keep
    line ACCEPT_TOL·‖a‖, so it refuses exactly when that gap is at most two
    cuts wide. Here a = x·x* has the eigenvalues 1 and 1.00005e-8, which are
    kept, and 0.99995e-8, which is not: a gap of 1e-12, so eps = 1e-8 lies
    5e-13 from both."""
    x = diag_elem(*np.sqrt([1.0, 1.00005e-8, 0.99995e-8]))
    with pytest.raises(EigenvalueAtThreshold, match="^eigenvalue within 1e-10 of threshold ") as info:
        closed_subideal(x)
    assert float(str(info.value).rsplit(" ", 1)[1]) == pytest.approx(1e-8, rel=1e-12)


def test_closed_subideal_reads_zero_off_its_own_svd():
    """x is zero when its largest singular value is at most DEFAULT_TOL."""
    with pytest.raises(ZeroInput):
        closed_subideal(AlgebraElement(MIXED, (5e-11 * np.eye(2), np.zeros((3, 3)))))
    assert closed_subideal(AlgebraElement(MIXED, (2e-10 * np.eye(2), np.zeros((3, 3))))).ideal.rank() == 2


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_closed_subideal_refuses_a_non_finite_x(bad):
    """The finiteness test runs before LAPACK: NonFinite, not LinAlgError."""
    x = np.eye(2, dtype=complex)
    x[0, 1] = bad
    with pytest.raises(NonFinite):
        closed_subideal(AlgebraElement(M2, (x,)))


# --- essentiality ----------------------------------------------------------------------

def test_whole_algebra_is_essential():
    dec, cert = is_essential_right_ideal(RightIdeal(AlgebraElement.identity(MIXED)))
    assert dec and cert.essential
    assert cert.identity_error <= 1e-12


def test_e11_ideal_is_not_essential():
    dec, cert = is_essential_right_ideal(RightIdeal(e11_m2()))
    assert not dec
    v = np.array(cert.vector)
    # certificate vector is e2 up to phase
    assert abs(abs(v[1]) - 1.0) <= 1e-10 and abs(v[0]) <= 1e-10
    assert cert.intersection_dim == 0
    # brute-force oracle: columns of pA lie in span(e1), of qA in span(e2);
    # q = vv* in the certificate's block
    assert cert.block == 0
    q = np.outer(v, v.conj())
    assert intersection_dim(e11_m2().blocks[0], q) == 0


def test_zero_ideal_is_not_essential():
    dec, cert = is_essential_right_ideal(RightIdeal(AlgebraElement.zeros(MIXED)))
    assert not dec
    assert cert.intersection_dim == 0


def all_blocks_eigh_rule(J: RightIdeal) -> tuple:
    """The decider as it was before it read traces: every block of p
    eigendecomposed, the first whose least eigenvalue is at most 1/2 taken,
    and the intersection through bases re-orthonormalised by SVD."""
    p = J.support_projection
    eig = [linalg.herm_eig(pb) for pb in p.blocks]
    b = next((b for b, (eigs, _) in enumerate(eig) if eigs[0] <= 0.5), None)
    if b is None:
        return True, max(linalg.op_norm(pb - np.eye(len(pb))) for pb in p.blocks), None, None, None
    eigs, u = eig[b]
    v = u[:, 0]
    return False, None, b, tuple(complex(z) for z in v), intersection_dim(u[:, eigs > 0.5], v[:, None])


@st.composite
def near_projections(draw) -> list:
    """1 to 3 blocks of size 1 to 4: per block, the projector onto the first
    r columns of a random unitary, r from 0 to n, plus a Hermitian
    perturbation of operator norm up to 5e-9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for n in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0][:, :draw(st.integers(0, n))]
        e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        e = e + e.conj().T
        blocks.append(q @ q.conj().T + draw(st.floats(0.0, 5e-9)) / np.linalg.norm(e, 2) * e)
    return blocks


@given(near_projections())
@example([np.diag([0.999999995, 1.0])])
@example([np.diag([1.0, 1.5e-8])])
@example([np.eye(1), np.array([[0.0, 1.5e-8], [0.0, 0.0]])])
@settings(deadline=None)
def test_trace_rule_matches_the_all_blocks_eigh_rule(blocks):
    """The first block with trace at most n_b − 1/2 is the first whose least
    eigenvalue is at most 1/2, for every projection RightIdeal accepts, and
    one rank SVD gives the intersection: decision, identity error, block,
    vector and intersection_dim all agree, bit for bit."""
    try:
        J = RightIdeal(AlgebraElement(AlgebraShape(tuple(len(b) for b in blocks)), tuple(blocks)))
    except NotProjection:
        assume(False)
    decision, cert = is_essential_right_ideal(J)
    got = (decision, cert.identity_error, cert.block, cert.vector, cert.intersection_dim)
    assert got == all_blocks_eigh_rule(J)


def test_essentiality_matches_rank_one_falsification_oracle():
    """Random ideals against the randomized intersection oracle."""
    rng = SplitMix64(14)
    for trial in range(1000):
        shape = (M2, M3, MIXED)[rng.randint(0, 2)]
        p = (
            AlgebraElement.identity(shape)
            if rng.randint(0, 3) == 0
            else rand_projection(rng, shape)
        )
        decision, _ = is_essential_right_ideal(RightIdeal(p))
        falsified = False
        for b, n in enumerate(shape.block_dims):
            for _ in range(6):
                v = rand_matrix(rng, n, 1)
                if linalg.op_norm(v) < 1e-6:
                    continue
                if intersection_dim(p.blocks[b], v) == 0:
                    falsified = True
        assert decision == (not falsified), f"trial {trial}"
