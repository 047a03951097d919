import numpy as np
import pytest

from essmod import linalg
from essmod.errors import NotHermitian
from essmod.generate import SplitMix64, rand_matrix


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


def test_herm_eig_reconstruction_random():
    rng = SplitMix64(101)
    for _ in range(20):
        h = rand_hermitian(rng, 5)
        eigs, u = linalg.herm_eig(h)
        assert sorted(eigs) == list(eigs)
        err = linalg.op_norm(u @ np.diag(eigs) @ u.conj().T - h)
        assert err <= 1e-10 * (1 + linalg.op_norm(h))


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        linalg.herm_eig(np.ones((2, 3)))


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


def test_is_psd_gram_matrices():
    rng = SplitMix64(58)
    for _ in range(10):
        x = rand_matrix(rng, 3, 3)
        assert linalg.is_psd(x @ x.conj().T)


def test_is_psd_rejects_small_negative_eigenvalue():
    assert not linalg.is_psd(np.diag([1.0, -1e-3]), tol=1e-10)


def test_psd_both_signs_forces_tiny_norm():
    rng = SplitMix64(59)
    h = rand_hermitian(rng, 3)
    tiny = h * (1e-11 / (1 + linalg.op_norm(h)))
    tol = 1e-10
    assert linalg.is_psd(tiny, tol) and linalg.is_psd(-tiny, tol)
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
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    both = np.eye(2)
    assert linalg.subspace_intersection_dim(e1, e2) == 0
    assert linalg.subspace_intersection_dim(e1, both) == 1
    assert linalg.subspace_intersection_dim(both, both) == 2
