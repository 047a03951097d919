"""Finite-dimensional C*-algebras A = ⊕_i M_{n_i}.

An algebra element is a tuple of complex blocks, one square matrix per
summand: the case k = 1 of the free module A^k, whose elements share its
block container. The algebra acts on ⊕_i C^{n_i} in its defining representation,
where its bicommutant is itself: every projection is open and every closed
right ideal is of the form pA for a projection p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np

from . import linalg
from .errors import EigenvalueAtThreshold, NotProjection, ShapeMismatch, ZeroInput
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


class _Blocks:
    """An element of the free module A^k, carried by its stacked blocks:
    blocks[b] is the k·n_b × n_b matrix of its block-b coordinates stacked
    k high. A is a Hilbert module over itself, A = A^1, so algebra and
    module elements share construction, arithmetic, the right action (on A,
    the product), the norm and the zero test. The blocks are read-only, so
    an element never changes and its norm is computed once, on first use.
    """

    def __post_init__(self):
        if self.k < 1:
            raise ShapeMismatch("module rank must be positive")
        if len(self.blocks) != self.shape.num_blocks:
            raise ShapeMismatch("block count does not match shape")
        frozen = []
        for n, blk in zip(self.shape.block_dims, self.blocks):
            m = linalg.as_matrix(blk)
            if m.shape != (self.k * n, n):
                raise ShapeMismatch(f"block of shape {m.shape}, expected ({self.k * n}, {n})")
            frozen.append(np.array(m, dtype=np.complex128))
            frozen[-1].setflags(write=False)
        object.__setattr__(self, "blocks", tuple(frozen))

    @classmethod
    def _of(cls, *fields):
        """The fields in declaration order, blocks last as complex arrays of
        the right shape that no one writes to later (an operation's result,
        checked loader input): built unchecked and uncopied, only frozen."""
        out = cls.__new__(cls)
        out.__dict__.update(zip(cls.__match_args__, fields), blocks=tuple(fields[-1]))
        for blk in out.blocks:
            blk.setflags(write=False)
        return out

    def _with(self, blocks):
        """An operation's result over this element's shape and rank."""
        return self._of(*[getattr(self, f) for f in self.__match_args__[:-1]], blocks)

    def _check_same(self, other):
        if self.shape != other.shape or self.k != other.k:
            raise ShapeMismatch("elements of different shape or rank")

    def __add__(self, other):
        self._check_same(other)
        return self._with(x + y for x, y in zip(self.blocks, other.blocks))

    def __sub__(self, other):
        self._check_same(other)
        return self._with(x - y for x, y in zip(self.blocks, other.blocks))

    def __neg__(self):
        return self._with(-x for x in self.blocks)

    def __mul__(self, a):
        """Right action x·a by an algebra element (on A, the product), or
        complex scaling."""
        if isinstance(a, AlgebraElement):
            if a.shape != self.shape:
                raise ShapeMismatch("elements of different shape or rank")
            return self._with(x @ a_b for x, a_b in zip(self.blocks, a.blocks))
        return self._with(x * complex(a) for x in self.blocks)

    def __rmul__(self, z):
        return self._with(complex(z) * x for x in self.blocks)

    @cached_property
    def _norm(self) -> float:
        return max(linalg.op_norm(x) for x in self.blocks)

    def norm(self) -> float:
        """C*-norm max_b ‖X_b‖, which is ‖⟨x, x⟩‖^½ on A^k."""
        return self._norm

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return self.norm() <= tol

    def distance(self, other) -> float:
        return (self - other).norm()


@dataclass(frozen=True)
class AlgebraElement(_Blocks):
    """Element of ⊕ M_{n_i}, stored blockwise: the module A^1. Its spectral
    questions are asked of its own blocks where they arise: the subideal
    witness reads one SVD of x per block, and the ideal decider a
    projection's traces.
    """

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]
    k: ClassVar[int] = 1

    @classmethod
    def zeros(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, tuple(np.zeros((n, n)) for n in shape.block_dims))

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, tuple(np.eye(n) for n in shape.block_dims))

    def adjoint(self) -> "AlgebraElement":
        return self._with(a.T.conj() for a in self.blocks)


def is_projection(p: AlgebraElement) -> bool:
    """p* = p = p² within the acceptance tolerance, scaled by 1 + ‖p‖ ≥ 1,
    reading each block's residual max |b − b*| once. As ‖·‖₂ ≤ ‖·‖_F, p
    passes without a norm when every block b has it and ‖b² − b‖_F within
    the bare tolerance. A NaN fails these bounds and reaches the norms,
    which refuse it."""
    herm = [np.abs(b - b.conj().T).max() for b in p.blocks]
    if all(h <= ACCEPT_TOL and np.linalg.norm(b @ b - b) <= ACCEPT_TOL for h, b in zip(herm, p.blocks)):
        return True
    tol = ACCEPT_TOL * (1.0 + p.norm())
    return all(h <= tol for h in herm) and (p * p).distance(p) <= tol


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

    def rank(self) -> int:
        """Total rank of the support projection across blocks."""
        return int(round(sum(np.trace(b).real for b in self.support_projection.blocks)))


def support_projectors(shape: AlgebraShape, k: int, generators: Sequence[_Blocks]) -> tuple[np.ndarray, ...]:
    """P_b, the read-only orthogonal projector onto the joint column space of
    the generators' stacked block-b matrices, per block: the support of the
    submodule they generate in A^k, and so of the right ideal they generate
    in A = A^1. No generators give P_b = 0."""
    out = []
    for b, n in enumerate(shape.block_dims):
        m_b = np.hstack([np.zeros((k * n, 0), dtype=np.complex128), *(g.blocks[b] for g in generators)])
        p = linalg.column_space_projector(m_b)
        p.setflags(write=False)
        out.append(p)
    return tuple(out)


def ideal_support_projection(generators: Sequence[AlgebraElement]) -> RightIdeal:
    """Support projection of the right ideal generated by the given elements:
    the smallest projection p with p g = g for all g."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens[1:]:
        gens[0]._check_same(g)
    return RightIdeal(AlgebraElement._of(gens[0].shape, support_projectors(gens[0].shape, 1, gens)))


@dataclass(frozen=True)
class SubidealWitness:
    """Constructive output of the closed-subideal pipeline for nonzero x.

    Carries a = x x*, the threshold eps, the nonzero spectral projection
    p = χ_(eps,∞)(a), f(a) = a·g(a), and the closed right ideal K = pA,
    together with the residuals of the verified contracts f(a)p = p and
    b = x·(V_r Σ_r⁻¹ U_r* b) over a spanning probe set of K (which
    certifies K ⊆ xA).
    """

    eps: float
    a: AlgebraElement
    p: AlgebraElement
    fa: AlgebraElement
    ideal: RightIdeal
    fa_p_error: float
    probe_errors: tuple[float, ...]
    membership_errors: tuple[float, ...]

    @property
    def verified(self) -> bool:
        """Every contract residual is within the acceptance tolerance."""
        return self.fa_p_error <= ACCEPT_TOL and all(
            e <= ACCEPT_TOL for e in (*self.probe_errors, *self.membership_errors)
        )


def closed_subideal(x: AlgebraElement) -> SubidealWitness:
    """Produce a closed right ideal K = pA inside the right ideal generated
    by a nonzero x, with verified membership certificates.

    Everything is read off one SVD x_i = U Σ V* per block: a = x x* has
    eigenvectors U and eigenvalues σ². A σ² counts as nonzero above the keep
    line ACCEPT_TOL·‖a‖ (relative to a alone, as xA = (cx)A for every
    c ≠ 0). eps is the middle of the gap from s₋, the largest σ² at or below
    the line (0 if none), to s₊, the least above it: at least 50 spectral
    cuts DEFAULT_TOL·‖a‖ from 0, and refused (EigenvalueAtThreshold) exactly
    when the gap is at most two cuts wide. p = χ_(eps,∞)(a) = U_r U_r*,
    r = {σ² > eps}, has the rank of x. x is zero (ZeroInput) when its
    largest σ is at most DEFAULT_TOL. f(t) = t·g(t), with g vanishing below
    eps/2 and 1/t from eps on, so f(a)p = p and every b ∈ K factors as
    b = x·(x* g(a) p b) = x·(V_r Σ_r⁻¹ U_r* b), an element of xA. That factor
    amplifies rounding by κ(x) ≤ 1/√ACCEPT_TOL, where x*·g(a) would by
    κ(x)². A probe p·E_rc has one nonzero column, p·e_r, so its norm and its
    residuals' are column 2-norms, shared by the n probes of row r.
    """
    svds = [linalg.svd(b) for b in x.blocks]  # inf or NaN in x: NonFinite, before LAPACK
    if max(s[0] for _, s, _ in svds) <= DEFAULT_TOL:
        raise ZeroInput("closed_subideal requires x ≠ 0")
    a = x * x.adjoint()
    norm = a.norm()  # an overflowed x·x* is refused here, as NonFinite
    sigma2 = np.concatenate([s * s for _, s, _ in svds])
    kept = sigma2 > ACCEPT_TOL * norm  # a ≠ 0: ‖a‖ itself is kept
    eps = (float(np.max(sigma2[~kept], initial=0.0)) + float(np.min(sigma2[kept]))) / 2.0
    cut = DEFAULT_TOL * norm
    if np.any(np.abs(sigma2 - eps) <= cut):
        raise EigenvalueAtThreshold(f"eigenvalue within {cut:.3g} of threshold {eps}")
    p_blocks, fa_blocks, probe_errors, membership_errors = [], [], [], []
    for x_i, (u, s, vh) in zip(x.blocks, svds):
        t = s * s
        r = t > eps
        u_r = u[:, r]
        p_i = u_r @ u_r.conj().T
        f = np.where(r, 1.0, t * np.maximum(t - eps / 2.0, 0.0) / (eps / 2.0) / eps)
        fa_i = (u * f) @ u.conj().T
        factor = vh[r].conj().T @ (u_r.conj().T / s[r, None])  # V_r Σ_r⁻¹ U_r*
        bscale = 1.0 + np.linalg.norm(p_i, axis=0)
        for errors, image in ((probe_errors, fa_i @ (p_i @ p_i)), (membership_errors, x_i @ (factor @ p_i))):
            errors.extend(np.repeat(np.linalg.norm(image - p_i, axis=0) / bscale, len(s)))
        p_blocks.append(p_i)
        fa_blocks.append(fa_i)
    p, fa = (AlgebraElement._of(x.shape, tuple(blocks)) for blocks in (p_blocks, fa_blocks))
    return SubidealWitness(
        eps=eps, a=a, p=p, fa=fa, ideal=RightIdeal(p),
        fa_p_error=float((fa * p).distance(p) / (1.0 + norm)),
        probe_errors=tuple(float(e) for e in probe_errors),
        membership_errors=tuple(float(e) for e in membership_errors),
    )


@dataclass(frozen=True)
class IdealCertificate:
    """Decision evidence for essentiality of a right ideal pA, read off the
    traces of p's blocks and one block's eigendecomposition.

    Essential: every block's trace exceeds n_b − 1/2, so p is the identity
    (identity_error records max_b ‖p_b − 1‖₂).
    Not essential: block `block` is the first with trace at most n_b − 1/2,
    and `vector` is its first eigenvector, a unit v orthogonal to range(p_b);
    intersection_dim = dim(range(p_b) ∩ Cv) = #U_> + 1 − rank [U_>, v], U_>
    its eigenvectors above 1/2, is the verified fact dim(pA ∩ qA) = 0 for the
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
    and a block is the identity iff its trace exceeds n_b − 1/2 (its least
    eigenvalue exceeds 1/2). Only the first other block is eigendecomposed.
    """
    p = J.support_projection
    b = next((b for b, pb in enumerate(p.blocks) if np.trace(pb).real <= len(pb) - 0.5), None)
    if b is None:
        err = max(linalg.op_norm(pb - np.eye(len(pb))) for pb in p.blocks)
        return True, IdealCertificate(essential=True, identity_error=err)

    eigs, u = linalg.herm_eig(p.blocks[b])
    v = u[:, 0]  # eigenvalue ≈ 0: orthogonal complement of range(p_b)
    kept = u[:, eigs > 0.5]  # orthonormal, as is v: one rank gives the intersection
    return False, IdealCertificate(
        essential=False,
        block=b,
        vector=tuple(complex(z) for z in v),
        intersection_dim=kept.shape[1] + 1 - linalg.matrix_rank(np.hstack([kept, v[:, None]])),
    )
