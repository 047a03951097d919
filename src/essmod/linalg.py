"""Dense complex linear algebra kernel.

Matrices are plain ``numpy.ndarray`` values of dtype complex128; every
function here is pure. Two tolerances cover the float stack. DEFAULT_TOL is
absolute and gets scaled by (1 + norm) of the input where a relative notion
makes sense: all intended instances are well-conditioned matrices of size
at most 16. ACCEPT_TOL is looser: it decides whether a projection or a
certificate computed in floats is accepted.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NonFinite, NotHermitian

DEFAULT_TOL = 1e-10
ACCEPT_TOL = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - m.conj().T), initial=0.0) <= tol)


def op_norm(a) -> float:
    """Largest singular value. Every float check reads a norm first, so
    this is where an overflowed (inf or NaN) matrix is stopped, before
    LAPACK sees it."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    if not np.isfinite(m).all():
        raise NonFinite("a matrix entry is inf or NaN: float input too large")
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _canonical_phases(u: np.ndarray) -> np.ndarray:
    """Fix each eigenvector's phase so the entry of largest modulus (the
    first, on a tie) is positive real. Eigendecompositions are then
    reproducible run to run."""
    if not u.size:
        return u
    piv = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return u * np.array([z.conjugate() / abs(z) if abs(z) > 0 else 1.0 for z in piv], dtype=np.complex128)


def herm_eig(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a hermitian matrix.

    Returns ``(eigenvalues, u)`` with eigenvalues ascending and ``u`` unitary
    such that ``u @ diag(eigenvalues) @ u*`` reconstructs the input.
    Raises NotHermitian if ``‖a - a*‖ > tol``, NoConvergence if LAPACK fails.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotHermitian("matrix is not square")
    asym = np.max(np.abs(m - m.conj().T), initial=0.0)
    if asym > tol and asym > tol * (1.0 + op_norm(m)):  # scale ≥ 1: no SVD when asym ≤ tol
        raise NotHermitian(f"matrix is not hermitian within tol={tol}")
    h = (m + m.conj().T) / 2.0
    try:
        eigs, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return eigs.real, _canonical_phases(u)


def is_psd(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff the hermitian input has min eigenvalue >= -tol."""
    eigs, _ = herm_eig(a, tol=max(tol, DEFAULT_TOL))
    if eigs.size == 0:
        return True
    return bool(eigs[0] >= -tol)


def _numerical_rank(s: np.ndarray, tol: float) -> int:
    """The one rank rule: singular values above tol·max(1, s[0])."""
    return int(np.sum(s > tol * max(1.0, s[0])))


def matrix_rank(a) -> int:
    """Numerical rank at the acceptance tolerance."""
    m = as_matrix(a)
    if m.size == 0:
        return 0
    return _numerical_rank(np.linalg.svd(m, compute_uv=False), ACCEPT_TOL)


def orthonormal_column_basis(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space, as matrix columns."""
    m = as_matrix(a)
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :_numerical_rank(s, tol)]


def column_space_projector(a) -> np.ndarray:
    """Orthogonal projector onto the column space of ``a``."""
    q = orthonormal_column_basis(a)
    return q @ q.conj().T


def subspace_intersection_dim(u, v) -> int:
    """dim(col(u) ∩ col(v)) via the rank formula, at the acceptance tolerance."""
    bu = orthonormal_column_basis(u, tol=ACCEPT_TOL)
    bv = orthonormal_column_basis(v, tol=ACCEPT_TOL)
    if bu.shape[1] == 0 or bv.shape[1] == 0:
        return 0
    return bu.shape[1] + bv.shape[1] - matrix_rank(np.hstack([bu, bv]))
