"""Dense complex linear algebra kernel.

Matrices are plain ``numpy.ndarray`` values of dtype complex128; every
function here is pure. Two tolerances cover the float stack. DEFAULT_TOL is
absolute and gets scaled by (1 + norm) of the input where a relative notion
makes sense: all intended instances are well-conditioned matrices of size
at most 16. ACCEPT_TOL is looser: it decides whether a projection or a
certificate computed in floats is accepted.

``svd`` and ``herm_eig`` are the package's only LAPACK entries, so each
guard and shortcut in front of LAPACK is written once. The one rank rule
reads an empty spectrum, that of an m×0 matrix, as rank 0.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NonFinite

DEFAULT_TOL = 1e-10
ACCEPT_TOL = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def svd(a, compute_uv: bool = True):
    """np.linalg.svd of a finite matrix; an inf or NaN entry raises NonFinite.
    An all-zero matrix gets LAPACK's own answer, σ = 0 and U = I = V*,
    without LAPACK."""
    m = as_matrix(a)
    if not np.isfinite(m).all():
        raise NonFinite("a matrix entry is inf or NaN: float input too large")
    if m.any():
        return np.linalg.svd(m, compute_uv=compute_uv)
    s = np.zeros(min(m.shape))
    return (np.eye(len(m), dtype=np.complex128), s, np.eye(m.shape[1], dtype=np.complex128)) if compute_uv else s


def op_norm(a) -> float:
    """Largest singular value, 0.0 for an empty or zero matrix. Every float
    check reads a norm first, so this is where an overflowed (inf or NaN)
    matrix is stopped, before LAPACK sees it."""
    s = svd(a, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def _canonical_phases(u: np.ndarray) -> np.ndarray:
    """Fix each eigenvector's phase so the entry of largest modulus (the
    first, on a tie) is positive real. Eigendecompositions are then
    reproducible run to run."""
    if not u.size:
        return u
    piv = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return u * np.array([z.conjugate() / abs(z) if abs(z) > 0 else 1.0 for z in piv], dtype=np.complex128)


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the hermitian part (a + a*)/2 of a square matrix.

    Returns ``(eigenvalues, u)`` with eigenvalues ascending and ``u`` unitary
    such that ``u @ diag(eigenvalues) @ u*`` reconstructs that hermitian part,
    which is ``a`` itself for a hermitian ``a``. Raises NoConvergence if
    LAPACK fails.
    """
    m = as_matrix(a)
    h = (m + m.conj().T) / 2.0
    if not h.any():  # LAPACK's own answer for the zero matrix, without LAPACK
        return np.zeros(len(h)), np.eye(len(h), dtype=np.complex128)
    try:
        eigs, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return eigs.real, _canonical_phases(u)


def _numerical_rank(s: np.ndarray, tol: float) -> int:
    """The one rank rule: singular values above tol·max(1, σ₁); an empty
    spectrum, that of an m×0 matrix, has rank 0."""
    return int(np.sum(s > tol * s.max(initial=1.0)))


def matrix_rank(a) -> int:
    """Numerical rank at the acceptance tolerance."""
    return _numerical_rank(svd(a, compute_uv=False), ACCEPT_TOL)


def column_space_projector(a) -> np.ndarray:
    """Orthogonal projector q·q* onto the column space of ``a``, q its left
    singular vectors above DEFAULT_TOL (none for a zero matrix)."""
    u, s, _ = svd(a)
    q = u[:, :_numerical_rank(s, DEFAULT_TOL)]
    return q @ q.conj().T
