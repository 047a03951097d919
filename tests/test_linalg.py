import numpy as np
import pytest

from essmod import linalg
from essmod.errors import NonFinite
from essmod.generate import SplitMix64, rand_matrix
from float_oracle import intersection_dim


def rand_hermitian(rng, n):
    m = rand_matrix(rng, n, n)
    return (m + m.conj().T) / 2.0


def test_herm_eig_diagonal_is_sorted():
    eigs, u = linalg.herm_eig(np.diag([2.0, 1.0]))
    assert np.allclose(eigs, [1.0, 2.0])
    # eigenvectors form a permutation matrix up to phase
    assert np.allclose(np.abs(u), [[0, 1], [1, 0]])


def test_herm_eig_zero_matrix():
    eigs, u = linalg.herm_eig(np.zeros((3, 3)))
    assert np.allclose(eigs, 0.0)
    assert np.allclose(u @ u.conj().T, np.eye(3))


def test_zero_matrix_norm_and_basis_take_no_lapack(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("an SVD of a zero matrix"))
    assert linalg.op_norm(np.zeros((3, 2))) == 0.0
    assert linalg.op_norm(np.zeros((0, 2))) == 0.0
    assert linalg.orthonormal_column_basis(np.zeros((3, 2))).shape == (3, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_zero_matrix_with_one_non_finite_entry_is_refused(bad):
    m = np.zeros((3, 3), dtype=complex)
    m[1, 2] = bad
    for call in (linalg.op_norm, linalg.svd):
        with pytest.raises(NonFinite):
            call(m)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 2), (2, 4)])
def test_zero_matrix_gets_lapacks_own_decompositions(shape):
    """The kernel's answer for a zero matrix is LAPACK's, bit for bit."""
    z = np.zeros(shape, dtype=complex)
    got = (*linalg.svd(z), linalg.svd(z, compute_uv=False))
    want = (*np.linalg.svd(z), np.linalg.svd(z, compute_uv=False))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    if shape[0] == shape[1]:
        eigs, u = linalg.herm_eig(z)
        want_eigs, want_u = np.linalg.eigh(z)
        assert np.array_equal(eigs, want_eigs) and np.array_equal(u, want_u)


def test_herm_eig_reconstruction_random():
    rng = SplitMix64(101)
    for _ in range(20):
        h = rand_hermitian(rng, 5)
        eigs, u = linalg.herm_eig(h)
        assert sorted(eigs) == list(eigs)
        err = linalg.op_norm(u @ np.diag(eigs) @ u.conj().T - h)
        assert err <= 1e-10 * (1 + linalg.op_norm(h))


def test_herm_eig_deterministic_across_calls():
    rng = SplitMix64(7)
    h = rand_hermitian(rng, 4)
    e1, u1 = linalg.herm_eig(h)
    e2, u2 = linalg.herm_eig(h.copy())
    assert np.array_equal(e1, e2)
    assert np.array_equal(u1, u2)


def column_loop_phases(u):
    """The reference: each column scaled, one by one, so that its first
    entry of largest modulus becomes positive real."""
    v = u.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        piv = col[int(np.argmax(np.abs(col)))]
        if abs(piv) > 0:
            v[:, j] = col * (piv.conjugate() / abs(piv))
    return v


def test_canonical_phases_match_the_column_loop():
    """Eigenvectors reach report bytes, so the vectorized phase fix must
    equal the column loop bit for bit, on projectors and on random and
    dyadic hermitian matrices up to the amplified cap 24."""
    rng = np.random.default_rng(3)
    for trial in range(600):
        n = int(rng.integers(1, 25))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if trial % 3 == 0:
            m = np.round(m * 8) / 8
        h = (m + m.conj().T) / 2
        if trial % 3 == 1:
            h = linalg.column_space_projector(m[:, : n // 2 + 1])
        u = np.linalg.eigh(h)[1]
        assert linalg._canonical_phases(u).tobytes() == column_loop_phases(u).tobytes(), trial
    assert linalg._canonical_phases(np.zeros((0, 0), dtype=complex)).shape == (0, 0)


def test_op_norm_identity_and_diag():
    assert linalg.op_norm(np.eye(4)) == pytest.approx(1.0)
    assert linalg.op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


def test_op_norm_matches_gram_eigenvalue():
    rng = SplitMix64(55)
    for _ in range(10):
        m = rand_matrix(rng, 4, 3)
        eigs, _ = linalg.herm_eig(m.conj().T @ m)
        assert linalg.op_norm(m) ** 2 == pytest.approx(eigs[-1], abs=1e-10)


def test_op_norm_adjoint_and_square():
    rng = SplitMix64(56)
    m = rand_matrix(rng, 4, 4)
    assert linalg.op_norm(m.conj().T) == pytest.approx(linalg.op_norm(m), abs=1e-10)
    assert linalg.op_norm(m.conj().T @ m) == pytest.approx(
        linalg.op_norm(m) ** 2, rel=1e-10
    )


def test_op_norm_submultiplicative():
    rng = SplitMix64(57)
    for _ in range(25):
        a = rand_matrix(rng, 3, 4)
        b = rand_matrix(rng, 4, 2)
        assert linalg.op_norm(a @ b) <= linalg.op_norm(a) * linalg.op_norm(b) + 1e-10


# PSD by the herm_eig spectrum: its least eigenvalue is at least −tol.

def test_is_psd_gram_matrices():
    rng = SplitMix64(58)
    for _ in range(10):
        x = rand_matrix(rng, 3, 3)
        assert linalg.herm_eig(x @ x.conj().T)[0][0] >= -1e-10


def test_is_psd_rejects_small_negative_eigenvalue():
    assert linalg.herm_eig(np.diag([1.0, -1e-3]))[0][0] < -1e-10


def test_psd_both_signs_forces_tiny_norm():
    rng = SplitMix64(59)
    h = rand_hermitian(rng, 3)
    tiny = h * (1e-11 / (1 + linalg.op_norm(h)))
    tol = 1e-10
    eigs, _ = linalg.herm_eig(tiny)
    assert eigs[0] >= -tol and eigs[-1] <= tol
    assert linalg.op_norm(tiny) <= 2 * tol


def test_rank_and_projector():
    rng = SplitMix64(60)
    x = rand_matrix(rng, 4, 2)
    p = linalg.column_space_projector(x)
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.allclose(p, p.conj().T, atol=1e-10)
    assert np.allclose(p @ x, x, atol=1e-10)
    assert linalg.matrix_rank(p) == linalg.matrix_rank(x)


def test_adjoint_is_an_involution():
    rng = SplitMix64(61)
    m = rand_matrix(rng, 3, 5)
    assert np.array_equal(m.conj().T.conj().T, m)


def test_subspace_intersection_dim():
    """The tests' intersection oracle, which the ideal tests read."""
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    both = np.eye(2)
    assert intersection_dim(e1, e2) == 0
    assert intersection_dim(e1, both) == 1
    assert intersection_dim(both, both) == 2
    assert intersection_dim(np.zeros((2, 1)), both) == 0
