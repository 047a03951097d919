"""Free Hilbert modules A^k, their compact operators, and the
submodule ↔ right-ideal correspondence.

A module element is a k-tuple of algebra elements with A-valued inner
product ⟨x, y⟩ = Σ x_i* y_i. At finite rank the compact operators form the
full matrix algebra M_k(A), which is again a finite-dimensional C*-algebra
over the amplified shape (k·n_1, ..., k·n_r); essentiality questions reduce
to the ideal layer through that identification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import (
    AlgebraElement,
    AlgebraShape,
    RightIdeal,
    IdealCertificate,
    is_essential_right_ideal,
)
from .errors import ShapeMismatch, ZeroInput
from .linalg import DEFAULT_TOL


@dataclass(frozen=True)
class ModuleElement:
    """Element of the free module A^k: a k-tuple of algebra elements."""

    shape: AlgebraShape
    coords: tuple[AlgebraElement, ...]

    def __post_init__(self):
        if not self.coords:
            raise ShapeMismatch("module rank must be positive")
        for c in self.coords:
            if c.shape != self.shape:
                raise ShapeMismatch("coordinate over a different algebra shape")

    @property
    def k(self) -> int:
        return len(self.coords)

    @classmethod
    def zeros(cls, shape: AlgebraShape, k: int) -> "ModuleElement":
        return cls(shape, tuple(AlgebraElement.zeros(shape) for _ in range(k)))

    def _check_same(self, other: "ModuleElement"):
        if self.shape != other.shape or self.k != other.k:
            raise ShapeMismatch("module elements of different shape or rank")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check_same(other)
        return ModuleElement(self.shape, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check_same(other)
        return ModuleElement(self.shape, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, a) -> "ModuleElement":
        """Right action x·a by an algebra element, or complex scaling."""
        return ModuleElement(self.shape, tuple(c * a for c in self.coords))

    def __rmul__(self, z) -> "ModuleElement":
        return ModuleElement(self.shape, tuple(complex(z) * c for c in self.coords))

    def norm(self) -> float:
        return float(np.sqrt(inner_product(self, self).norm()))

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return all(c.is_zero(tol) for c in self.coords)


def inner_product(x: ModuleElement, y: ModuleElement) -> AlgebraElement:
    """A-valued inner product Σ x_i* y_i (linear in the second slot)."""
    x._check_same(y)
    acc = x.coords[0].adjoint() * y.coords[0]
    for xi, yi in zip(x.coords[1:], y.coords[1:]):
        acc = acc + xi.adjoint() * yi
    return acc


@dataclass(frozen=True)
class CompactOperator:
    """A-linear operator on A^k, as a k×k matrix over A acting from the left."""

    shape: AlgebraShape
    matrix: tuple[tuple[AlgebraElement, ...], ...]

    def __post_init__(self):
        k = len(self.matrix)
        for row in self.matrix:
            if len(row) != k:
                raise ShapeMismatch("operator matrix must be square")
            for entry in row:
                if entry.shape != self.shape:
                    raise ShapeMismatch("entry over a different algebra shape")

    @property
    def k(self) -> int:
        return len(self.matrix)

    @classmethod
    def zeros(cls, shape: AlgebraShape, k: int) -> "CompactOperator":
        z = AlgebraElement.zeros(shape)
        return cls(shape, tuple(tuple(z for _ in range(k)) for _ in range(k)))

    @classmethod
    def identity(cls, shape: AlgebraShape, k: int) -> "CompactOperator":
        one = AlgebraElement.identity(shape)
        z = AlgebraElement.zeros(shape)
        return cls(shape, tuple(tuple(one if i == j else z for j in range(k)) for i in range(k)))

    def apply(self, z: ModuleElement) -> ModuleElement:
        if z.shape != self.shape or z.k != self.k:
            raise ShapeMismatch("operator and argument disagree")
        coords = []
        for i in range(self.k):
            acc = self.matrix[i][0] * z.coords[0]
            for j in range(1, self.k):
                acc = acc + self.matrix[i][j] * z.coords[j]
            coords.append(acc)
        return ModuleElement(self.shape, tuple(coords))

    def compose(self, other: "CompactOperator") -> "CompactOperator":
        if other.shape != self.shape or other.k != self.k:
            raise ShapeMismatch("operators disagree")
        k = self.k
        rows = []
        for i in range(k):
            row = []
            for j in range(k):
                acc = self.matrix[i][0] * other.matrix[0][j]
                for l in range(1, k):
                    acc = acc + self.matrix[i][l] * other.matrix[l][j]
                row.append(acc)
            rows.append(tuple(row))
        return CompactOperator(self.shape, tuple(rows))

    def adjoint(self) -> "CompactOperator":
        k = self.k
        return CompactOperator(
            self.shape,
            tuple(tuple(self.matrix[j][i].adjoint() for j in range(k)) for i in range(k)),
        )

    def __add__(self, other: "CompactOperator") -> "CompactOperator":
        return CompactOperator(
            self.shape,
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.matrix, other.matrix)),
        )

    def __sub__(self, other: "CompactOperator") -> "CompactOperator":
        return CompactOperator(
            self.shape,
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.matrix, other.matrix)),
        )

    def __rmul__(self, z) -> "CompactOperator":
        return CompactOperator(
            self.shape, tuple(tuple(complex(z) * a for a in row) for row in self.matrix)
        )

    def norm(self) -> float:
        return self.to_algebra().norm()

    def column(self, j: int) -> ModuleElement:
        """Column j as a module element: the image of the j-th basis vector."""
        return ModuleElement(self.shape, tuple(self.matrix[i][j] for i in range(self.k)))

    def to_algebra(self) -> AlgebraElement:
        """Identify M_k(A) with the algebra over the amplified shape."""
        amp = operator_shape(self.shape, self.k)
        blocks = []
        for b in range(self.shape.num_blocks):
            grid = [[self.matrix[i][j].blocks[b] for j in range(self.k)] for i in range(self.k)]
            blocks.append(np.block(grid))
        return AlgebraElement(amp, tuple(blocks))

    @classmethod
    def from_algebra(cls, t: AlgebraElement, shape: AlgebraShape, k: int) -> "CompactOperator":
        if t.shape != operator_shape(shape, k):
            raise ShapeMismatch("element is not over the amplified shape")
        rows = []
        for i in range(k):
            row = []
            for j in range(k):
                blocks = []
                for b, n in enumerate(shape.block_dims):
                    blocks.append(t.blocks[b][i * n:(i + 1) * n, j * n:(j + 1) * n])
                row.append(AlgebraElement(shape, tuple(blocks)))
            rows.append(tuple(row))
        return cls(shape, tuple(rows))


def operator_shape(shape: AlgebraShape, k: int) -> AlgebraShape:
    """Shape of M_k(A) = ⊕ M_{k·n_i}."""
    return AlgebraShape(tuple(k * n for n in shape.block_dims))


def theta(x: ModuleElement, y: ModuleElement) -> CompactOperator:
    """Elementary operator z ↦ x ⟨y, z⟩, as the matrix (x_i y_j*)_{ij}."""
    x._check_same(y)
    k = x.k
    return CompactOperator(
        x.shape,
        tuple(tuple(x.coords[i] * y.coords[j].adjoint() for j in range(k)) for i in range(k)),
    )


def module_basis(shape: AlgebraShape, k: int) -> list[ModuleElement]:
    """A-module basis: e_r with the identity algebra element, r = 1..k."""
    out = []
    for r in range(k):
        coords = [AlgebraElement.zeros(shape) for _ in range(k)]
        coords[r] = AlgebraElement.identity(shape)
        out.append(ModuleElement(shape, tuple(coords)))
    return out


def _stacked_block(x: ModuleElement, b: int) -> np.ndarray:
    """The block-b coordinates of x stacked k high: a k·n_b × n_b matrix."""
    return np.vstack([c.blocks[b] for c in x.coords])


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
            cols = [_stacked_block(g, b) for g in self.generators]
            m_b = np.hstack(cols) if cols else np.zeros((self.k * n, 0), dtype=np.complex128)
            p = linalg.column_space_projector(m_b)
            p.setflags(write=False)
            out.append(p)
        return tuple(out)

    def contains(self, x: ModuleElement) -> bool:
        """x ∈ N iff every column of each stacked block X_b lies in col M_b."""
        xs = [_stacked_block(x, b) for b in range(self.shape.num_blocks)]
        resid = sum(np.linalg.norm(x_b - p @ x_b) ** 2 for p, x_b in zip(self.block_projectors, xs))
        norm = sum(np.linalg.norm(x_b) ** 2 for x_b in xs)
        return bool(np.sqrt(resid) <= DEFAULT_TOL * (1.0 + np.sqrt(norm)))

    def same_span(self, other: "Submodule", tol: float = 1e-8) -> bool:
        return max(
            linalg.op_norm(p - q) for p, q in zip(self.block_projectors, other.block_projectors)
        ) <= tol

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
    return RightIdeal(amp, AlgebraElement(amp, N.block_projectors))


def submodule_of_ideal(J: RightIdeal, shape: AlgebraShape, k: int) -> Submodule:
    """Recover the submodule J·ℳ from a right ideal of the compact operators.

    J = p·M_k(A) contains p and maps ℳ = A^k into p·ℳ, so J·ℳ = p·ℳ. The
    basis vectors e_r generate ℳ and p is A-linear, so the columns p e_r of
    the support projection generate J·ℳ.
    """
    if J.shape != operator_shape(shape, k):
        raise ShapeMismatch("ideal is not over the amplified shape")
    p_op = CompactOperator.from_algebra(J.support_projection, shape, k)
    return Submodule(shape, k, tuple(p_op.column(r) for r in range(k)))


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the essentiality reformulation probe at a point m."""

    found: bool
    witness: AlgebraElement | None


def reformulation_probe(m: ModuleElement, N: Submodule) -> ProbeResult:
    """Search for a ∈ A with m·a ∈ N and m·a ≠ 0.

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
    for b, p in enumerate(N.block_projectors):
        x_b = _stacked_block(m, b)
        kernel = _nullspace(x_b - p @ x_b)
        if kernel.shape[1] == 0:
            continue
        _, s, vh = np.linalg.svd(x_b @ kernel)
        if s[0] > best_norm:
            best_norm, best_block, best_col = float(s[0]), b, kernel @ vh[0].conj()
    if best_norm <= DEFAULT_TOL * (1.0 + m.norm()):
        return ProbeResult(found=False, witness=None)
    blocks = [np.zeros((n, n), dtype=np.complex128) for n in m.shape.block_dims]
    blocks[best_block][:, 0] = best_col
    return ProbeResult(found=True, witness=AlgebraElement(m.shape, tuple(blocks)))


def _nullspace(a: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > DEFAULT_TOL * max(1.0, s[0])))
    return vh[rank:].conj().T


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
    probe = reformulation_probe(m, N)
    cert = SubmoduleCertificate(
        essential=False,
        topologically_essential=False,
        ideal_certificate=ideal_cert,
        witness=m,
        witness_probe_found=probe.found,
    )
    return False, cert


def _witness_from_ideal_certificate(cert: IdealCertificate, shape: AlgebraShape, k: int) -> ModuleElement:
    """Module element whose every right multiple leaves N: place the
    certificate's orthogonal vector as a single column in its block."""
    b = cert.block
    n = shape.block_dims[b]
    v = np.array(cert.vector, dtype=np.complex128)  # length k·n
    coords = []
    for i in range(k):
        blocks = [np.zeros((m, m), dtype=np.complex128) for m in shape.block_dims]
        blocks[b][:, 0] = v[i * n:(i + 1) * n]
        coords.append(AlgebraElement(shape, tuple(blocks)))
    return ModuleElement(shape, tuple(coords))
