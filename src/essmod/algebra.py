"""Finite-dimensional C*-algebras A = ⊕_i M_{n_i}.

An algebra element is a tuple of complex blocks, one square matrix per
summand. The algebra acts on ⊕_i C^{n_i} in its defining representation,
where its bicommutant is itself: every projection is open and every closed
right ideal is of the form pA for a projection p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from . import linalg
from .errors import (
    DomainError,
    EigenvalueAtThreshold,
    NotHermitian,
    NotProjection,
    ShapeMismatch,
    ZeroInput,
)
from .linalg import ACCEPT_TOL, DEFAULT_TOL


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (n_1, ..., n_r) of A = ⊕ M_{n_i}."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if not dims or any(n < 1 for n in dims):
            raise ValueError("block_dims must be a nonempty tuple of positive ints")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    def matrix_units(self) -> Iterable[tuple[int, int, int]]:
        """All (block, row, col) index triples of the matrix-unit basis."""
        for b, n in enumerate(self.block_dims):
            for r in range(n):
                for c in range(n):
                    yield b, r, c


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AlgebraElement:
    """Element of ⊕ M_{n_i}, stored blockwise.

    The blocks are read-only arrays, so an element never changes: its
    C*-norm and the eigendecomposition of each block are computed once, on
    first use, and every later norm, hermiticity check and functional
    calculus reads them.
    """

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) != self.shape.num_blocks:
            raise ShapeMismatch("block count does not match shape")
        frozen = []
        for n, blk in zip(self.shape.block_dims, self.blocks):
            m = linalg.as_matrix(blk)
            if m.shape != (n, n):
                raise ShapeMismatch(f"block of shape {m.shape}, expected ({n}, {n})")
            frozen.append(_frozen(m))
        object.__setattr__(self, "blocks", tuple(frozen))

    @classmethod
    def _of(cls, shape: AlgebraShape, blocks: tuple[np.ndarray, ...]) -> "AlgebraElement":
        """Complex arrays of the right shape that no one writes to later
        (an operation's result, checked loader input): built unchecked and
        uncopied, only marked read-only."""
        for blk in blocks:
            blk.setflags(write=False)
        out = cls.__new__(cls)
        out.__dict__.update(shape=shape, blocks=blocks)
        return out

    @classmethod
    def zeros(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, tuple(np.zeros((n, n)) for n in shape.block_dims))

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, tuple(np.eye(n) for n in shape.block_dims))

    @classmethod
    def matrix_unit(cls, shape: AlgebraShape, block: int, row: int, col: int) -> "AlgebraElement":
        blocks = [np.zeros((n, n), dtype=np.complex128) for n in shape.block_dims]
        blocks[block][row, col] = 1.0
        return cls(shape, tuple(blocks))

    def _check_same(self, other: "AlgebraElement"):
        if self.shape != other.shape:
            raise ShapeMismatch("algebra elements over different shapes")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement._of(self.shape, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement._of(self.shape, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._of(self.shape, tuple(-a for a in self.blocks))

    def __mul__(self, other):
        """Algebra product, or scaling by a complex number."""
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return AlgebraElement._of(self.shape, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))
        return AlgebraElement._of(self.shape, tuple(a * complex(other) for a in self.blocks))

    def __rmul__(self, other) -> "AlgebraElement":
        return AlgebraElement._of(self.shape, tuple(complex(other) * a for a in self.blocks))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement._of(self.shape, tuple(a.T.conj() for a in self.blocks))

    @cached_property
    def _norm(self) -> float:
        return max(linalg.op_norm(b) for b in self.blocks)

    @cached_property
    def _eig(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        # Read only after the element passed a hermiticity test at its own
        # scale (1 + ‖a‖), so herm_eig's per-block test is skipped.
        return tuple(linalg.herm_eig(b, tol=np.inf) for b in self.blocks)

    def norm(self) -> float:
        """C*-norm: max of block operator norms."""
        return self._norm

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        scale = 1.0 + self.norm()
        return all(linalg.is_hermitian(b, tol=tol * scale) for b in self.blocks)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return self.norm() <= tol

    def distance(self, other: "AlgebraElement") -> float:
        return (self - other).norm()


def _eig_blocks(a: AlgebraElement) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    if not a.is_hermitian():
        raise NotHermitian("algebra element is not hermitian within tolerance")
    return a._eig


def all_eigenvalues(a: AlgebraElement) -> np.ndarray:
    """Sorted spectrum of a hermitian element across all blocks."""
    eigs = np.concatenate([e for e, _ in _eig_blocks(a)])
    return np.sort(eigs)


def calculus(a: AlgebraElement, f: Callable[[float], float]) -> AlgebraElement:
    """Continuous functional calculus f(a) for hermitian a.

    Applies f to the spectrum blockwise: u diag(f(λ)) u*. callable errors
    (ValueError / ZeroDivisionError) are surfaced as DomainError.
    """
    out = []
    for eigs, u in _eig_blocks(a):
        try:
            vals = np.array([float(f(float(t))) for t in eigs])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"function undefined on spectrum: {exc}") from exc
        out.append(u @ np.diag(vals) @ u.conj().T)
    return AlgebraElement._of(a.shape, tuple(out))


def spectral_projection(a: AlgebraElement, eps: float) -> AlgebraElement:
    """χ_(eps, ∞)(a): the spectral projection onto eigenvalues above eps.

    Raises EigenvalueAtThreshold when some eigenvalue lies within
    DEFAULT_TOL·‖a‖ of eps — the projection is discontinuous there. The cut
    scales with a, as the projection of ca is that of a at c·eps.
    """
    cut = DEFAULT_TOL * a.norm()
    if np.any(np.abs(all_eigenvalues(a) - eps) <= cut):
        raise EigenvalueAtThreshold(f"eigenvalue within {cut:.3g} of threshold {eps}")
    return calculus(a, lambda t: 1.0 if t > eps else 0.0)


def lower_approximants(a: AlgebraElement, eps: float, n: int) -> AlgebraElement:
    """g_n(a) for the piecewise-linear lower approximants of χ_(eps, ∞):

        g_n(t) = 0 for t ≤ eps, n(t - eps) on (eps, eps + 1/n), 1 beyond.

    The sequence increases to the spectral projection as n grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def g(t: float) -> float:
        if t <= eps:
            return 0.0
        if t < eps + 1.0 / n:
            return n * (t - eps)
        return 1.0

    return calculus(a, g)


def is_projection(p: AlgebraElement) -> bool:
    """p* = p = p² within the acceptance tolerance, scaled by 1 + ‖p‖ ≥ 1.
    As ‖·‖₂ ≤ ‖·‖_F, p passes without a norm when every block b has each
    entry of b − b* and ‖b² − b‖_F within the bare tolerance. A NaN fails
    these bounds and reaches the norms, which refuse it."""
    if all(np.max(np.abs(b - b.conj().T)) <= ACCEPT_TOL and np.linalg.norm(b @ b - b) <= ACCEPT_TOL
           for b in p.blocks):
        return True
    return p.is_hermitian(ACCEPT_TOL) and (p * p).distance(p) <= ACCEPT_TOL * (1.0 + p.norm())


@dataclass(frozen=True)
class RightIdeal:
    """Closed right ideal pA, carried by its support projection p alone:
    `RightIdeal(p)` raises NotProjection unless p is a projection, and the
    ideal's shape is p's."""

    support_projection: AlgebraElement

    def __post_init__(self):
        if not is_projection(self.support_projection):
            raise NotProjection("support projection fails p*p = p = p^*")

    @property
    def shape(self) -> AlgebraShape:
        return self.support_projection.shape

    def contains(self, b: AlgebraElement) -> bool:
        """Membership b ∈ pA  ⟺  p b = b."""
        p = self.support_projection
        return (p * b).distance(b) <= DEFAULT_TOL * (1.0 + b.norm())

    def spanning_set(self) -> list[AlgebraElement]:
        """Complex spanning set {p E} over the matrix-unit basis."""
        p = self.support_projection
        return [p * AlgebraElement.matrix_unit(self.shape, b, r, c)
                for b, r, c in self.shape.matrix_units()]

    def rank(self) -> int:
        """Total rank of the support projection across blocks."""
        return int(round(sum(np.trace(b).real for b in self.support_projection.blocks)))


def ideal_support_projection(generators: Sequence[AlgebraElement]) -> RightIdeal:
    """Support projection of the right ideal generated by the given elements.

    Blockwise this is the orthogonal projection onto the joint column space
    of the generators; it is the smallest projection p with p g = g for all g.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    shape = gens[0].shape
    for g in gens[1:]:
        if g.shape != shape:
            raise ShapeMismatch("generators over different shapes")
    blocks = []
    for b in range(shape.num_blocks):
        stacked = np.hstack([g.blocks[b] for g in gens])
        blocks.append(linalg.column_space_projector(stacked))
    return RightIdeal(AlgebraElement._of(shape, tuple(blocks)))


def _interp_resolvent(eps: float) -> Callable[[float], float]:
    """g with g = 0 below eps/2, g(t) = 1/t above eps, linear in between."""

    def g(t: float) -> float:
        if t < eps / 2.0:
            return 0.0
        if t < eps:
            return (t - eps / 2.0) / (eps / 2.0) * (1.0 / eps)
        return 1.0 / t

    return g


def _choose_threshold(a: AlgebraElement) -> float:
    """Half the smallest nonzero eigenvalue of the positive element a ≠ 0.

    Any threshold in (0, ‖a‖) would make (a−eps)₊ nonzero; this choice
    additionally puts the whole nonzero spectrum above the cut, so the
    spectral projection has exactly the rank of a. It sits in the middle of
    a spectral gap, far from every eigenvalue. An eigenvalue counts as
    nonzero above ACCEPT_TOL·‖a‖, relative to a alone since xA = (cx)A for
    every c ≠ 0. That puts eps at least 50 spectral cuts DEFAULT_TOL·‖a‖
    from 0 and from the kept spectrum, and g(a), which is 1/a there,
    amplifies rounding in the witness residuals by less than 1/ACCEPT_TOL.
    """
    eigs = all_eigenvalues(a)
    return float(eigs[eigs > ACCEPT_TOL * a.norm()][0]) / 2.0  # a ≠ 0: ‖a‖ itself is kept


@dataclass(frozen=True)
class SubidealWitness:
    """Constructive output of the closed-subideal pipeline for nonzero x.

    Carries a = x x*, the threshold eps, the nonzero spectral projection
    p = χ_(eps,∞)(a), f(a) = a·g(a), and the closed right ideal K = pA,
    together with the residuals of the verified contracts f(a)p = p and
    b = f(a)p b over a spanning probe set of K (which certifies K ⊆ xA).
    """

    eps: float
    a: AlgebraElement
    p: AlgebraElement
    fa: AlgebraElement
    ga: AlgebraElement
    ideal: RightIdeal
    fa_p_error: float
    probe_errors: tuple[float, ...]
    membership_errors: tuple[float, ...] = field(default=())

    @property
    def verified(self) -> bool:
        """Every contract residual is within the acceptance tolerance."""
        return self.fa_p_error <= ACCEPT_TOL and all(
            e <= ACCEPT_TOL for e in (*self.probe_errors, *self.membership_errors)
        )


def closed_subideal(x: AlgebraElement) -> SubidealWitness:
    """Produce a closed right ideal K = pA inside the right ideal generated
    by a nonzero x, with verified membership certificates.

    a = x x* is positive and nonzero, eps is half its smallest nonzero
    eigenvalue, p = χ_(eps,∞)(a) ≠ 0 has the rank of x, and f(t) = t·g(t)
    with g vanishing below eps/2 and equal to 1/t from eps on. Then
    f(a)p = p, so every b ∈ K factors as b = f(a) p b = x (x* g(a) p b),
    an element of x A.
    """
    if x.is_zero():
        raise ZeroInput("closed_subideal requires x ≠ 0")
    a = x * x.adjoint()
    eps = _choose_threshold(a)
    p = spectral_projection(a, eps)
    g = _interp_resolvent(eps)
    ga = calculus(a, g)
    fa = calculus(a, lambda t: t * g(t))

    scale = 1.0 + a.norm()
    fa_p_error = (fa * p).distance(p) / scale
    probe_errors, membership_errors = [], []
    xadj = x.adjoint()
    # block i's n² probes b = p·E_rc, stacked; their other blocks are zero
    for n, p_i, fa_i, ga_i, x_i, xadj_i in zip(x.shape.block_dims, *(e.blocks for e in (p, fa, ga, x, xadj))):
        b = p_i @ np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)
        bscale = 1.0 + np.linalg.svd(b, compute_uv=False)[:, 0]  # each probe's largest singular value
        probe_errors.extend(np.linalg.svd(fa_i @ (p_i @ b) - b, compute_uv=False)[:, 0] / bscale)
        factored = x_i @ (xadj_i @ (ga_i @ (p_i @ b)))  # explicit factorization through x
        membership_errors.extend(np.linalg.svd(factored - b, compute_uv=False)[:, 0] / bscale)
    return SubidealWitness(
        eps=eps, a=a, p=p, fa=fa, ga=ga, ideal=RightIdeal(p),
        fa_p_error=float(fa_p_error),
        probe_errors=tuple(float(e) for e in probe_errors),
        membership_errors=tuple(float(e) for e in membership_errors),
    )


@dataclass(frozen=True)
class IdealCertificate:
    """Decision evidence for essentiality of a right ideal pA, read off the
    cached eigendecomposition of each block of p.

    Essential: every block's least eigenvalue exceeds 1/2, so p is the
    identity (identity_error records max_b ‖p_b − 1‖₂).
    Not essential: block `block` has an eigenvalue at most 1/2 and `vector`
    is its first eigenvector, a unit vector v orthogonal to range(p_b);
    intersection_dim = dim(range(p_b) ∩ Cv), computed against the block's
    eigenvectors above 1/2, is the verified fact dim(pA ∩ qA) = 0 for the
    rank-one ideal qA. q = vv* in that block and zero elsewhere, so
    `block` and `vector` determine it and it is not kept.
    """

    essential: bool
    identity_error: float | None = None
    block: int | None = None
    vector: tuple[complex, ...] | None = None
    intersection_dim: int | None = None


def is_essential_right_ideal(J: RightIdeal) -> tuple[bool, IdealCertificate]:
    """Decide essentiality of the closed right ideal pA.

    pA meets every nonzero right ideal iff p is the identity in every block;
    otherwise a rank-one ideal qA built on a unit vector orthogonal to
    range(p) intersects pA trivially. RightIdeal accepted p as a projection,
    so every eigenvalue of a block lies within about 2·ACCEPT_TOL of 0 or 1,
    and a block is the identity iff its least eigenvalue exceeds 1/2.
    """
    p = J.support_projection
    b = next((b for b, (eigs, _) in enumerate(p._eig) if eigs[0] <= 0.5), None)
    if b is None:
        err = max(linalg.op_norm(pb - np.eye(len(pb))) for pb in p.blocks)
        return True, IdealCertificate(essential=True, identity_error=err)

    eigs, u = p._eig[b]
    v = u[:, 0]  # eigenvalue ≈ 0: orthogonal complement of range(p_b)
    return False, IdealCertificate(
        essential=False,
        block=b,
        vector=tuple(complex(z) for z in v),
        intersection_dim=linalg.subspace_intersection_dim(u[:, eigs > 0.5], v[:, None]),
    )
