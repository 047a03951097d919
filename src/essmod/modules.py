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


# --- flattening A^k to a complex coordinate space -------------------------

def module_vec(x: ModuleElement) -> np.ndarray:
    """Flatten to C^{k·dim A} (coordinates, then blocks, row-major)."""
    parts = []
    for c in x.coords:
        for blk in c.blocks:
            parts.append(blk.reshape(-1))
    return np.concatenate(parts)


def module_basis(shape: AlgebraShape, k: int) -> list[ModuleElement]:
    """A-module basis: e_r with the identity algebra element, r = 1..k."""
    out = []
    for r in range(k):
        coords = [AlgebraElement.zeros(shape) for _ in range(k)]
        coords[r] = AlgebraElement.identity(shape)
        out.append(ModuleElement(shape, tuple(coords)))
    return out


@dataclass(frozen=True)
class Submodule:
    """A-submodule of A^k given by generators.

    The generated submodule is a complex-linear subspace of A^k, spanned by
    the products g·e over generators g and matrix units e; membership and
    equality are decided on that span.
    """

    shape: AlgebraShape
    k: int
    generators: tuple[ModuleElement, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.shape != self.shape or g.k != self.k:
                raise ShapeMismatch("generator of wrong shape or rank")

    @cached_property
    def _span_basis(self) -> np.ndarray:
        dim = self.k * self.shape.dim
        cols = []
        for g in self.generators:
            for b, r, c in self.shape.matrix_units():
                e = AlgebraElement.matrix_unit(self.shape, b, r, c)
                cols.append(module_vec(g * e))
        if not cols:
            return np.zeros((dim, 0), dtype=np.complex128)
        q = linalg.orthonormal_column_basis(np.column_stack(cols))
        q.setflags(write=False)
        return q

    def span_basis(self) -> np.ndarray:
        """Orthonormal basis (columns) of the submodule as a complex subspace,
        computed once; the generators never change."""
        return self._span_basis

    def projector(self) -> np.ndarray:
        q = self.span_basis()
        return q @ q.conj().T

    def contains(self, x: ModuleElement, tol: float = DEFAULT_TOL) -> bool:
        v = module_vec(x)
        q = self.span_basis()
        resid = v - q @ (q.conj().T @ v)
        return bool(np.linalg.norm(resid) <= tol * (1.0 + np.linalg.norm(v)))

    def same_span(self, other: "Submodule", tol: float = 1e-8) -> bool:
        return bool(linalg.op_norm(self.projector() - other.projector()) <= tol)

    def is_zero(self) -> bool:
        return self.span_basis().shape[1] == 0


def ideal_of_submodule(N: Submodule, tol: float = DEFAULT_TOL) -> RightIdeal:
    """The right ideal J_N = {T ∈ M_k(A) : Ran T ⊆ N} of the compact
    operators, returned by its support projection over the amplified shape.

    Block b of that projection is the projector onto col M_b, where M_b
    stacks the block-b coordinates of each generator k high and puts the
    generators side by side. Right multiplication by the block-b matrix
    units moves block-b columns, so the block-b part of N is every
    k·n_b × n_b matrix with columns in col M_b. Ran T ⊆ N holds iff every
    column of T lies in N, i.e. iff every column of T's amplified block b
    lies in col M_b, i.e. iff p_b T_b = T_b.
    """
    shape, k = N.shape, N.k
    blocks = []
    for b, n in enumerate(shape.block_dims):
        cols = [np.vstack([c.blocks[b] for c in g.coords]) for g in N.generators]
        m_b = np.hstack(cols) if cols else np.zeros((k * n, 0), dtype=np.complex128)
        blocks.append(linalg.column_space_projector(m_b, tol=tol))
    amp = operator_shape(shape, k)
    return RightIdeal(amp, AlgebraElement(amp, tuple(blocks)))


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


def algebra_basis_elements(shape: AlgebraShape) -> list[AlgebraElement]:
    return [AlgebraElement.matrix_unit(shape, b, r, c) for b, r, c in shape.matrix_units()]


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the essentiality reformulation probe at a point m."""

    found: bool
    witness: AlgebraElement | None
    image_norm: float


def reformulation_probe(m: ModuleElement, N: Submodule, tol: float = DEFAULT_TOL) -> ProbeResult:
    """Search for a ∈ A with m·a ∈ N and m·a ≠ 0.

    S_m = {a : m·a ∈ N} is the kernel of a linear map; the probe succeeds
    iff m·S_m is a nonzero subspace, and then returns a maximizing witness.
    """
    if m.is_zero(tol):
        raise ZeroInput("reformulation probe requires m ≠ 0")
    shape, k = m.shape, m.k
    basis = algebra_basis_elements(shape)
    M = np.column_stack([module_vec(m * e) for e in basis])
    P = N.projector()
    resid = M - P @ M
    ns = _nullspace(resid, tol)
    if ns.shape[1] == 0:
        return ProbeResult(found=False, witness=None, image_norm=0.0)
    images = M @ ns
    norms = np.linalg.norm(images, axis=0)
    best = int(np.argmax(norms))
    if norms[best] <= tol * (1.0 + m.norm()):
        return ProbeResult(found=False, witness=None, image_norm=float(norms[best]))
    coeffs = ns[:, best]
    a = AlgebraElement.zeros(shape)
    for z, e in zip(coeffs, basis):
        a = a + complex(z) * e
    return ProbeResult(found=True, witness=a, image_norm=float(norms[best]))


def _nullspace(a: np.ndarray, tol: float) -> np.ndarray:
    if a.size == 0:
        return np.eye(a.shape[1], dtype=np.complex128)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    if s.size == 0:
        rank = 0
    else:
        rank = int(np.sum(s > tol * max(1.0, s[0])))
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


def is_essential_submodule(N: Submodule, tol: float = DEFAULT_TOL) -> tuple[bool, SubmoduleCertificate]:
    """Decide essentiality of N via the compact-operator correspondence:
    N is essential iff J_N is an essential right ideal of M_k(A)."""
    J = ideal_of_submodule(N, tol)
    decision, ideal_cert = is_essential_right_ideal(J, tol)
    if decision:
        cert = SubmoduleCertificate(
            essential=True, topologically_essential=True, ideal_certificate=ideal_cert
        )
        return True, cert
    m = _witness_from_ideal_certificate(ideal_cert, N.shape, N.k)
    probe = reformulation_probe(m, N, tol)
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
