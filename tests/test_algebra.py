import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essmod import linalg
from essmod.linalg import ACCEPT_TOL
from essmod.algebra import (
    AlgebraElement,
    AlgebraShape,
    RightIdeal,
    all_eigenvalues,
    calculus,
    closed_subideal,
    ideal_support_projection,
    is_essential_right_ideal,
    is_projection,
    lower_approximants,
    spectral_projection,
)
from essmod.errors import (
    DomainError,
    EigenvalueAtThreshold,
    EssmodError,
    NotHermitian,
    NotProjection,
    ZeroInput,
)
from essmod.generate import SplitMix64, rand_algebra_element, rand_hermitian, rand_matrix, rand_projection
from projector_oracle import svd_is_projection

M2 = AlgebraShape((2,))
M3 = AlgebraShape((3,))
MIXED = AlgebraShape((2, 3))


def diag_elem(*vals):
    return AlgebraElement(AlgebraShape((len(vals),)), (np.diag([complex(v) for v in vals]),))


def e11_m2():
    return AlgebraElement(M2, (np.array([[1, 0], [0, 0]], dtype=complex),))


# --- functional calculus ------------------------------------------------------

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


def test_calculus_requires_hermitian():
    a = AlgebraElement(M2, (np.array([[0, 1], [0, 0]], dtype=complex),))
    with pytest.raises(NotHermitian):
        calculus(a, lambda t: t)


def test_calculus_domain_error():
    a = diag_elem(-1.0, 1.0)
    with pytest.raises(DomainError):
        calculus(a, math.sqrt)


# --- spectral projections ------------------------------------------------------

def test_spectral_projection_diagonal():
    a = diag_elem(0.5, 2.0)
    p = spectral_projection(a, 1.0)
    assert p.distance(diag_elem(0, 1)) <= 1e-10


def test_spectral_projection_of_zero():
    a = AlgebraElement.zeros(M3)
    assert spectral_projection(a, 1.0).is_zero()


def test_spectral_projection_threshold_error():
    with pytest.raises(EigenvalueAtThreshold):
        spectral_projection(diag_elem(1.0, 2.0), 1.0)


def test_spectral_projection_commutes_and_cuts():
    rng = SplitMix64(4)
    for _ in range(10):
        a = rand_hermitian(rng, MIXED)
        eps = a.norm() / 2
        eigs = all_eigenvalues(a)
        if a.norm() < 1e-3 or np.min(np.abs(eigs - eps)) < 1e-6:
            continue
        p = spectral_projection(a, eps)
        assert (p * a).distance(a * p) <= 1e-9 * (1 + a.norm())
        cut = all_eigenvalues(a * p)
        assert all(lam <= 1e-8 or lam > eps for lam in cut)


def test_spectral_projection_is_limit_of_lower_approximants():
    rng = SplitMix64(5)
    for _ in range(5):
        a = rand_hermitian(rng, M3)
        eps = a.norm() / 2
        if a.norm() < 1e-3 or np.min(np.abs(all_eigenvalues(a) - eps)) < 1e-6:
            continue
        p = spectral_projection(a, eps)
        g = lower_approximants(a, eps, 10 ** 6)
        assert (p - g).norm() <= 1e-8


# --- lower approximants -----------------------------------------------------------

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
        assert all(linalg.is_psd(b, 1e-12) for b in diff.blocks)
        prev = cur


# --- right ideals ---------------------------------------------------------------------

def test_ideal_from_identity_contains_everything():
    rng = SplitMix64(9)
    ideal = RightIdeal(AlgebraElement.identity(MIXED))
    for _ in range(5):
        assert ideal.contains(rand_algebra_element(rng, MIXED))


def test_ideal_from_zero_contains_only_zero():
    rng = SplitMix64(10)
    ideal = RightIdeal(AlgebraElement.zeros(M2))
    assert ideal.contains(AlgebraElement.zeros(M2))
    b = rand_algebra_element(rng, M2)
    if not b.is_zero(1e-6):
        assert not ideal.contains(b)


def test_ideal_membership_e11_means_second_row_zero():
    ideal = RightIdeal(e11_m2())
    top_row = AlgebraElement(M2, (np.array([[2, 3j], [0, 0]], dtype=complex),))
    bottom = AlgebraElement(M2, (np.array([[2, 3j], [1, 0]], dtype=complex),))
    assert ideal.contains(top_row)
    assert not ideal.contains(bottom)


def test_ideal_from_projection_rejects_non_projection():
    with pytest.raises(NotProjection):
        RightIdeal(diag_elem(0.5, 1.0))


@pytest.mark.parametrize("delta, accepted", [(0.1 * ACCEPT_TOL, True), (10 * ACCEPT_TOL, False)])
def test_projection_acceptance_boundary(delta, accepted):
    """e11 + δ·e22 misses p² = p by about δ, against a cut of ACCEPT_TOL·(1 + ‖p‖)."""
    p = e11_m2() + delta * AlgebraElement.matrix_unit(M2, 0, 1, 1)
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
        back = ideal_support_projection(RightIdeal(p).spanning_set())
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
    assert w.ideal.contains(AlgebraElement(M2, (np.array([[5, 1], [0, 0]], dtype=complex),)))


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
    """The per-unit probe loop: each probe p·E of the spanning set as an
    algebra element, checked by two element distances."""
    p, fa, ga, xadj = w.p, w.fa, w.ga, x.adjoint()
    probe_errors, membership_errors = [], []
    for b in w.ideal.spanning_set():
        bscale = 1.0 + b.norm()
        probe_errors.append((fa * (p * b)).distance(b) / bscale)
        membership_errors.append((x * (xadj * (ga * (p * b)))).distance(b) / bscale)
    return tuple(probe_errors), tuple(membership_errors)


def test_closed_subideal_probes_match_per_unit_oracle():
    rng = SplitMix64(14)
    for shape in (M2, M3, MIXED, AlgebraShape((1, 2, 3))):
        for _ in range(5):
            x = rand_algebra_element(rng, shape)
            if rng.randint(0, 1):
                x = rand_projection(rng, shape) * x
            if x.is_zero(1e-8):
                continue
            w = closed_subideal(x)
            assert (w.probe_errors, w.membership_errors) == closed_subideal_probe_oracle(x, w)


def test_closed_subideal_rejects_zero():
    with pytest.raises(ZeroInput):
        closed_subideal(AlgebraElement.zeros(M2))


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
    assert linalg.subspace_intersection_dim(e11_m2().blocks[0], q) == 0


def test_zero_ideal_is_not_essential():
    dec, cert = is_essential_right_ideal(RightIdeal(AlgebraElement.zeros(MIXED)))
    assert not dec
    assert cert.intersection_dim == 0


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
                if linalg.subspace_intersection_dim(p.blocks[b], v) == 0:
                    falsified = True
        assert decision == (not falsified), f"trial {trial}"
