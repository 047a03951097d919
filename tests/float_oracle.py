"""Float-stack oracles that the library does not carry: matrix units,
membership in a right ideal, spans compared by their projectors, subspace
intersections by the rank formula, and an eigh functional calculus for the
spectral tests.

The calculus decomposes each block with its own `np.linalg.eigh`, apart
from the SVD of x that `closed_subideal` reads, so a test can hold the
witness's p = χ_(eps,∞)(x·x*) against the lower approximants g_n(x·x*).
"""

import numpy as np

from essmod import linalg
from essmod.algebra import AlgebraElement
from essmod.generate import rand_algebra_element
from essmod.linalg import ACCEPT_TOL, DEFAULT_TOL


def matrix_unit(shape, block, row, col) -> AlgebraElement:
    blocks = [np.zeros((n, n), dtype=complex) for n in shape.block_dims]
    blocks[block][row, col] = 1.0
    return AlgebraElement(shape, tuple(blocks))


def matrix_units(shape) -> list:
    """The matrix-unit basis E_rc of every block."""
    return [matrix_unit(shape, b, r, c) for b, n in enumerate(shape.block_dims) for r in range(n) for c in range(n)]


def in_ideal(ideal, b) -> bool:
    """b ∈ pA ⟺ p·b = b, within DEFAULT_TOL·(1 + ‖b‖)."""
    return (ideal.support_projection * b).distance(b) <= DEFAULT_TOL * (1.0 + b.norm())


def same_span(n, other) -> bool:
    """Two submodules are equal when their block projectors agree within ACCEPT_TOL."""
    return max(linalg.op_norm(p - q) for p, q in zip(n.block_projectors, other.block_projectors)) <= ACCEPT_TOL


def _basis(m) -> np.ndarray:
    """Orthonormal columns spanning col(m), at the acceptance tolerance."""
    m = linalg.as_matrix(m)
    if not m.any():
        return np.zeros((len(m), 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :int(np.sum(s > ACCEPT_TOL * max(1.0, s[0])))]


def intersection_dim(u, v) -> int:
    """dim(col(u) ∩ col(v)) by the rank formula over orthonormal bases."""
    bu, bv = _basis(u), _basis(v)
    if bu.shape[1] == 0 or bv.shape[1] == 0:
        return 0
    return bu.shape[1] + bv.shape[1] - linalg.matrix_rank(np.hstack([bu, bv]))


def rand_hermitian(rng, shape) -> AlgebraElement:
    """(x + x*)/2 for x drawn by rand_algebra_element."""
    x = rand_algebra_element(rng, shape)
    return AlgebraElement(shape, tuple((b + b.conj().T) / 2.0 for b in x.blocks))


def calculus(a: AlgebraElement, f) -> AlgebraElement:
    """f(a) = U·diag(f(λ))·U* per block, for hermitian a and scalar f."""
    out = []
    for b in a.blocks:
        eigs, u = np.linalg.eigh(b)
        out.append((u * np.array([f(float(t)) for t in eigs])) @ u.conj().T)
    return AlgebraElement(a.shape, tuple(out))


def lower_approximants(a: AlgebraElement, eps: float, n: int) -> AlgebraElement:
    """g_n(a) for the lower approximants of χ_(eps,∞): g_n(t) = 0 for
    t ≤ eps, n(t − eps) on (eps, eps + 1/n), 1 beyond. They increase to the
    spectral projection as n grows."""
    return calculus(a, lambda t: 0.0 if t <= eps else min(1.0, n * (t - eps)))
