"""Free Hilbert modules A^k, their compact operators, and the
submodule ↔ right-ideal correspondence.

A module element is carried by its stacked blocks: block b holds the
block-b coordinates x_1, ..., x_k stacked k high, a k·n_b × n_b matrix X_b.
The A-valued inner product ⟨x, y⟩ = Σ x_i* y_i is then X_b* Y_b per block.
At finite rank the compact operators form M_k(A), which is the algebra over
the amplified shape (k·n_1, ..., k·n_r): an operator T is an
`AlgebraElement` there, acts by T_b X_b, and composes by the algebra
product. Essentiality questions reduce to the ideal layer through that
identification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .algebra import (
    AlgebraElement,
    AlgebraShape,
    RightIdeal,
    IdealCertificate,
    _frozen,
    is_essential_right_ideal,
)
from .errors import ShapeMismatch, ZeroInput
from .linalg import ACCEPT_TOL, DEFAULT_TOL


@dataclass(frozen=True)
class ModuleElement:
    """Element of the free module A^k: blocks[b] is the k·n_b × n_b matrix
    of its block-b coordinates stacked k high. The blocks are read-only."""

    shape: AlgebraShape
    k: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ShapeMismatch("module rank must be positive")
        if len(self.blocks) != self.shape.num_blocks:
            raise ShapeMismatch("block count does not match shape")
        frozen = []
        for n, blk in zip(self.shape.block_dims, self.blocks):
            m = linalg.as_matrix(blk)
            if m.shape != (self.k * n, n):
                raise ShapeMismatch(f"stacked block of shape {m.shape}, expected ({self.k * n}, {n})")
            frozen.append(_frozen(m))
        object.__setattr__(self, "blocks", tuple(frozen))

    @classmethod
    def from_coords(cls, coords: Sequence[AlgebraElement]) -> "ModuleElement":
        """The element with coordinates x_1, ..., x_k, all over one shape."""
        if not coords:
            raise ShapeMismatch("module rank must be positive")
        shape = coords[0].shape
        if any(c.shape != shape for c in coords):
            raise ShapeMismatch("coordinate over a different algebra shape")
        stacked = (np.vstack([c.blocks[b] for c in coords]) for b in range(shape.num_blocks))
        return cls._of(shape, len(coords), tuple(stacked))

    @classmethod
    def zeros(cls, shape: AlgebraShape, k: int) -> "ModuleElement":
        return cls(shape, k, tuple(np.zeros((k * n, n)) for n in shape.block_dims))

    def _check_same(self, other: "ModuleElement"):
        if self.shape != other.shape or self.k != other.k:
            raise ShapeMismatch("module elements of different shape or rank")

    @classmethod
    def _of(cls, shape: AlgebraShape, k: int, blocks) -> "ModuleElement":
        """Complex arrays of the right shape that no one writes to later:
        built unchecked and uncopied, only marked read-only."""
        out = cls.__new__(cls)
        out.__dict__.update(shape=shape, k=k, blocks=tuple(blocks))
        for blk in out.blocks:
            blk.setflags(write=False)
        return out

    def _with(self, blocks) -> "ModuleElement":
        """An operation's result over this element's shape and rank."""
        return ModuleElement._of(self.shape, self.k, blocks)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check_same(other)
        return self._with(x + y for x, y in zip(self.blocks, other.blocks))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check_same(other)
        return self._with(x - y for x, y in zip(self.blocks, other.blocks))

    def __mul__(self, a) -> "ModuleElement":
        """Right action x·a by an algebra element, or complex scaling."""
        if isinstance(a, AlgebraElement):
            if a.shape != self.shape:
                raise ShapeMismatch("algebra elements over different shapes")
            return self._with(x @ a_b for x, a_b in zip(self.blocks, a.blocks))
        return self._with(x * complex(a) for x in self.blocks)

    def __rmul__(self, z) -> "ModuleElement":
        return self._with(complex(z) * x for x in self.blocks)

    def norm(self) -> float:
        return float(np.sqrt(inner_product(self, self).norm()))

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        """Every coordinate is zero: each n_b-row slice of each block."""
        return all(
            linalg.op_norm(x[i * n:(i + 1) * n]) <= tol
            for x, n in zip(self.blocks, self.shape.block_dims)
            for i in range(self.k)
        )


def inner_product(x: ModuleElement, y: ModuleElement) -> AlgebraElement:
    """A-valued inner product Σ x_i* y_i = X_b* Y_b per block (linear in the
    second slot)."""
    x._check_same(y)
    return AlgebraElement._of(x.shape, tuple(a.conj().T @ b for a, b in zip(x.blocks, y.blocks)))


def operator_shape(shape: AlgebraShape, k: int) -> AlgebraShape:
    """Shape of M_k(A) = ⊕ M_{k·n_i}."""
    return AlgebraShape(tuple(k * n for n in shape.block_dims))


def theta(x: ModuleElement, y: ModuleElement) -> AlgebraElement:
    """Elementary operator z ↦ x ⟨y, z⟩ in M_k(A): X_b Y_b* per block."""
    x._check_same(y)
    amp = operator_shape(x.shape, x.k)
    return AlgebraElement._of(amp, tuple(a @ b.conj().T for a, b in zip(x.blocks, y.blocks)))


def apply(t: AlgebraElement, z: ModuleElement) -> ModuleElement:
    """The compact operator t ∈ M_k(A) applied to z: T_b Z_b per block."""
    if t.shape != operator_shape(z.shape, z.k):
        raise ShapeMismatch("operator and argument disagree")
    return z._with(t_b @ z_b for t_b, z_b in zip(t.blocks, z.blocks))


def module_basis(shape: AlgebraShape, k: int) -> list[ModuleElement]:
    """A-module basis: e_r with the identity algebra element, r = 1..k."""
    dims = shape.block_dims
    return [ModuleElement(shape, k, tuple(np.eye(k * n, n, -r * n) for n in dims)) for r in range(k)]


@dataclass(frozen=True)
class Submodule:
    """A-submodule of A^k given by generators.

    Right multiplication by the block-b matrix units moves block-b
    columns, so the block-b part of the generated submodule is every
    k·n_b × n_b matrix with columns in col M_b, where M_b puts the stacked
    block-b coordinates of the generators side by side. The submodule is
    therefore carried by its block projectors P_b onto col M_b, and
    membership, equality and zeroness are decided block by block on them.
    """

    shape: AlgebraShape
    k: int
    generators: tuple[ModuleElement, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.shape != self.shape or g.k != self.k:
                raise ShapeMismatch("generator of wrong shape or rank")

    @cached_property
    def block_projectors(self) -> tuple[np.ndarray, ...]:
        """P_b, the projector onto col M_b, per block; computed once, since
        the generators never change."""
        out = []
        for b, n in enumerate(self.shape.block_dims):
            cols = [g.blocks[b] for g in self.generators]
            m_b = np.hstack(cols) if cols else np.zeros((self.k * n, 0), dtype=np.complex128)
            p = linalg.column_space_projector(m_b)
            p.setflags(write=False)
            out.append(p)
        return tuple(out)

    def contains(self, x: ModuleElement) -> bool:
        """x ∈ N iff every column of each stacked block X_b lies in col M_b."""
        resid = sum(np.linalg.norm(x_b - p @ x_b) ** 2 for p, x_b in zip(self.block_projectors, x.blocks))
        norm = sum(np.linalg.norm(x_b) ** 2 for x_b in x.blocks)
        return bool(np.sqrt(resid) <= DEFAULT_TOL * (1.0 + np.sqrt(norm)))

    def same_span(self, other: "Submodule") -> bool:
        return max(
            linalg.op_norm(p - q) for p, q in zip(self.block_projectors, other.block_projectors)
        ) <= ACCEPT_TOL

    def is_zero(self) -> bool:
        return not any(p.any() for p in self.block_projectors)


def ideal_of_submodule(N: Submodule) -> RightIdeal:
    """The right ideal J_N = {T ∈ M_k(A) : Ran T ⊆ N} of the compact
    operators, returned by its support projection over the amplified shape.

    Its block b is N's block projector P_b. Ran T ⊆ N holds iff every
    column of T lies in N, i.e. iff every column of T's amplified block b
    lies in col M_b, i.e. iff P_b T_b = T_b.
    """
    amp = operator_shape(N.shape, N.k)
    return RightIdeal(AlgebraElement._of(amp, N.block_projectors))


def submodule_of_ideal(J: RightIdeal, shape: AlgebraShape, k: int) -> Submodule:
    """Recover the submodule J·ℳ from a right ideal of the compact operators.

    J = p·M_k(A) contains p and maps ℳ = A^k into p·ℳ, so J·ℳ = p·ℳ. The
    basis vectors e_r generate ℳ and p is A-linear, so the columns p e_r of
    the support projection generate J·ℳ: p e_r has the block columns
    r·n_b .. (r+1)·n_b of P_b as its stacked blocks.
    """
    if J.shape != operator_shape(shape, k):
        raise ShapeMismatch("ideal is not over the amplified shape")
    p = J.support_projection.blocks
    return Submodule(shape, k, tuple(
        ModuleElement._of(shape, k, (p_b[:, r * n:(r + 1) * n] for p_b, n in zip(p, shape.block_dims)))
        for r in range(k)
    ))


def reformulation_probe(m: ModuleElement, N: Submodule) -> AlgebraElement | None:
    """Search for a ∈ A with m·a ∈ N and m·a ≠ 0; return it, or None.

    Block b of m·a is X_b a_b, X_b the stacked block-b coordinates of m,
    and it lies in N iff every column of a_b lies in K_b = ker((1 − P_b)X_b).
    So S_m = {a : m·a ∈ N} is ⊕_b K_b^{n_b}, and the probe succeeds iff some
    X_b K_b is nonzero. The witness is a single column in the block where
    X_b K_b has the largest norm: its top right singular vector, mapped
    back through K_b.
    """
    if m.is_zero():
        raise ZeroInput("reformulation probe requires m ≠ 0")
    best_norm, best_block, best_col = 0.0, None, None
    for b, (p, x_b) in enumerate(zip(N.block_projectors, m.blocks)):
        kernel = _nullspace(x_b - p @ x_b)
        if kernel.shape[1] == 0:
            continue
        _, s, vh = np.linalg.svd(x_b @ kernel)
        if s[0] > best_norm:
            best_norm, best_block, best_col = float(s[0]), b, kernel @ vh[0].conj()
    if best_norm <= DEFAULT_TOL * (1.0 + m.norm()):
        return None
    blocks = [np.zeros((n, n), dtype=np.complex128) for n in m.shape.block_dims]
    blocks[best_block][:, 0] = best_col
    return AlgebraElement._of(m.shape, tuple(blocks))


def _nullspace(a: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(a)
    return vh[linalg._numerical_rank(s, DEFAULT_TOL):].conj().T


@dataclass(frozen=True)
class SubmoduleCertificate:
    """Evidence for the submodule essentiality decision.

    Both the (E) and (TE) flags are reported; over a finite-dimensional
    algebra every submodule is closed, so the two deciders coincide and
    their equality is asserted. A negative decision carries a nonzero m
    whose reformulation probe fails, rebuilt from the ideal certificate's
    orthogonal unit vector.
    """

    essential: bool
    topologically_essential: bool
    ideal_certificate: IdealCertificate
    witness: ModuleElement | None = None
    witness_probe_found: bool | None = None


def is_essential_submodule(N: Submodule) -> tuple[bool, SubmoduleCertificate]:
    """Decide essentiality of N via the compact-operator correspondence:
    N is essential iff J_N is an essential right ideal of M_k(A)."""
    decision, ideal_cert = is_essential_right_ideal(ideal_of_submodule(N))
    if decision:
        cert = SubmoduleCertificate(
            essential=True, topologically_essential=True, ideal_certificate=ideal_cert
        )
        return True, cert
    m = _witness_from_ideal_certificate(ideal_cert, N.shape, N.k)
    cert = SubmoduleCertificate(
        essential=False,
        topologically_essential=False,
        ideal_certificate=ideal_cert,
        witness=m,
        witness_probe_found=reformulation_probe(m, N) is not None,
    )
    return False, cert


def _witness_from_ideal_certificate(cert: IdealCertificate, shape: AlgebraShape, k: int) -> ModuleElement:
    """Module element whose every right multiple leaves N: place the
    certificate's orthogonal vector as a single column in its block."""
    blocks = [np.zeros((k * n, n), dtype=np.complex128) for n in shape.block_dims]
    blocks[cert.block][:, 0] = cert.vector  # length k·n_b
    return ModuleElement._of(shape, k, blocks)
