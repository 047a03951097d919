"""Deterministic instance generation.

Randomness comes from SplitMix64, a counter-based 64-bit generator small
enough to restate in any language: state advances by the golden-gamma
constant and each output is a three-stage mix of the state (see README).
All generated scalars are dyadic rationals, so float serialization is
exact and re-running a seed is byte-identical.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import IrrationalRoot, SizeCap
from .fields import FieldModuleSpec, FieldPiece, SubspaceField, analyze_field
from .linalg import column_space_projector
from .modules import ModuleElement, module_basis
from .polynomials import GaussianPoly
from .rationals import identity_columns
from .sections import PiecewiseSection
from .serialize import (
    element_to_json,
    field_spec_to_json,
    instance_to_json,
    module_element_to_json,
    shape_to_json,
)
from .subsets import SymbolicSubset

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Counter-based PRNG: output_i = mix(seed + (i+1)·GOLDEN_GAMMA)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] via modulo (documented, portable)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def dyadic(self, denom_power: int = 4, span: int = 2) -> Fraction:
        """Dyadic rational in [-span, span] with denominator 2^denom_power."""
        q = 1 << denom_power
        return Fraction(self.randint(-span * q, span * q), q)

    def spawn(self, tag: int) -> "SplitMix64":
        """Independent child stream; deterministic in (state, tag)."""
        child = SplitMix64((self.state ^ (tag * GOLDEN_GAMMA)) & MASK64)
        child.next_u64()
        return child


# --- float-layer randomness ---------------------------------------------------

def rand_complex(rng: SplitMix64) -> complex:
    return complex(float(rng.dyadic()), float(rng.dyadic()))


def rand_matrix(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    return np.array([[rand_complex(rng) for _ in range(cols)] for _ in range(rows)])


def rand_algebra_element(rng: SplitMix64, shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, tuple(rand_matrix(rng, n, n) for n in shape.block_dims))


def rand_hermitian(rng: SplitMix64, shape: AlgebraShape) -> AlgebraElement:
    a = rand_algebra_element(rng, shape)
    return AlgebraElement(
        a.shape, tuple((b + b.conj().T) / 2.0 for b in a.blocks)
    )


def rand_projection(rng: SplitMix64, shape: AlgebraShape) -> AlgebraElement:
    """Random orthogonal projection with seeded ranks per block."""
    blocks = []
    for n in shape.block_dims:
        r = rng.randint(0, n)
        if r == 0:
            blocks.append(np.zeros((n, n), dtype=np.complex128))
            continue
        blocks.append(column_space_projector(rand_matrix(rng, n, r)))
    return AlgebraElement(shape, tuple(blocks))


def rand_module_element(rng: SplitMix64, shape: AlgebraShape, k: int) -> ModuleElement:
    return ModuleElement.from_coords([rand_algebra_element(rng, shape) for _ in range(k)])


# --- caps -----------------------------------------------------------------------

MAX_BLOCK_DIM = 6
MAX_K = 4
MAX_D = 4
MAX_PIECES = 16
MAX_GENERATORS = 8


def _check_blocks(blocks: tuple[int, ...]):
    if not blocks or any(n < 1 or n > MAX_BLOCK_DIM for n in blocks):
        raise SizeCap(f"block dims must lie in 1..{MAX_BLOCK_DIM}")


# --- instance generators ----------------------------------------------------------

def gen_right_ideal(blocks: tuple[int, ...], seed: int) -> dict:
    _check_blocks(blocks)
    rng = SplitMix64(seed)
    shape = AlgebraShape(blocks)
    mode = rng.randint(0, 2)
    if mode == 0:
        p = AlgebraElement.identity(shape)
    else:
        p = rand_projection(rng, shape)
    generators = [p * rand_algebra_element(rng, shape) for _ in range(2)]
    payload = {
        "shape": shape_to_json(shape),
        "support_projection": element_to_json(p),
        "generators": [element_to_json(g) for g in generators],
    }
    return instance_to_json("right_ideal", payload, seed)


def gen_module_submodule(blocks: tuple[int, ...], k: int, seed: int) -> dict:
    _check_blocks(blocks)
    if not 1 <= k <= MAX_K:
        raise SizeCap(f"k must lie in 1..{MAX_K}")
    rng = SplitMix64(seed)
    shape = AlgebraShape(blocks)
    mode = rng.randint(0, 2)
    if mode == 0:
        gens = module_basis(shape, k)  # the full module
    else:
        gens = [rand_module_element(rng, shape, k) for _ in range(rng.randint(1, 2))]
    payload = {
        "shape": shape_to_json(shape),
        "k": k,
        "generators": [module_element_to_json(g) for g in gens],
    }
    return instance_to_json("module_submodule", payload, seed)


def _distinct_dyadics(rng: SplitMix64, count: int, denom_power: int = 6) -> list[Fraction]:
    """Distinct dyadic points strictly inside (0, 1)."""
    q = 1 << denom_power
    seen = set()
    out = []
    while len(out) < count:
        x = Fraction(rng.randint(1, q - 1), q)
        if x not in seen:
            seen.add(x)
            out.append(x)
    return sorted(out)


def _rand_proper_basis(rng: SplitMix64, d: int):
    """Spanning columns of a proper coordinate subspace of C^d (possibly 0)."""
    r = rng.randint(0, d - 1)
    ident = identity_columns(d)
    chosen = set()
    while len(chosen) < r:
        chosen.add(rng.randint(0, d - 1))
    return tuple(ident[j] for j in sorted(chosen))


def _rand_poly_section(rng: SplitMix64, d: int) -> PiecewiseSection:
    """Random polynomial section of degree ≤ 2 with dyadic coefficients."""
    rows = []
    for _ in range(d):
        coeffs = [(rng.dyadic(3, 1), rng.dyadic(3, 1)) for _ in range(3)]
        rows.append(GaussianPoly.from_coeffs(coeffs))
    return PiecewiseSection(d, (Fraction(0), Fraction(1)), (tuple(rows),))


def gen_field(
    d: int, pieces: int, n_generators: int, defect: str, seed: int
) -> dict:
    """Field instance with a planted defect structure.

    defect "none" keeps the full fiber everywhere; "points" plants proper
    subspaces at isolated rational points (still essential); "interval"
    plants one on an open interval (not essential). Defect boundaries stay
    rational by construction and extra polynomial generators are rejection
    sampled against irrational residual roots.
    """
    if not 1 <= d <= MAX_D:
        raise SizeCap(f"d must lie in 1..{MAX_D}")
    if not 2 <= pieces <= MAX_PIECES:
        raise SizeCap(f"pieces must lie in 2..{MAX_PIECES}")
    if not d <= n_generators <= MAX_GENERATORS:
        raise SizeCap(f"generators must lie in d..{MAX_GENERATORS}")
    if defect not in ("none", "points", "interval"):
        raise ValueError("defect must be none, points, or interval")

    rng = SplitMix64(seed)
    for attempt in range(32):
        try:
            spec = _gen_field_attempt(rng.spawn(attempt), d, pieces, n_generators, defect)
            break
        except IrrationalRoot:
            continue
    else:
        raise IrrationalRoot("could not sample rational-root defect boundaries")
    payload = field_spec_to_json(spec)
    doc = instance_to_json("field", payload, seed)
    doc["expected"] = {"essential": defect != "interval"}
    return doc


def _gen_field_attempt(
    rng: SplitMix64, d: int, pieces: int, n_generators: int, defect: str
) -> FieldModuleSpec:
    full_basis = identity_columns(d)
    remainder = SymbolicSubset.full()
    field_pieces = []

    if defect == "points":
        n_pts = max(1, min(pieces - 1, 4))
        for x in _distinct_dyadics(rng, n_pts):
            region = SymbolicSubset.point(x)
            field_pieces.append(FieldPiece(region, _rand_proper_basis(rng, d)))
            remainder = remainder.difference(region)
    elif defect == "interval":
        q = 1 << 4
        lo = Fraction(rng.randint(1, q - 4), q)
        hi = lo + Fraction(rng.randint(1, 2), q)
        region = SymbolicSubset.interval(lo, hi, False, False)
        field_pieces.append(FieldPiece(region, _rand_proper_basis(rng, d)))
        remainder = remainder.difference(region)

    # split the full-fiber remainder at extra dyadic cuts so the partition
    # genuinely exercises the refinement machinery
    n_cuts = max(0, pieces - len(field_pieces) - 1)
    cuts = _distinct_dyadics(rng, min(n_cuts, 3), denom_power=5)
    cut_sets = []
    prev = Fraction(0)
    for c in cuts + [Fraction(1)]:
        cut_sets.append(SymbolicSubset.interval(prev, c, True, c == Fraction(1)))
        prev = c
    for cs in cut_sets:
        part = remainder.intersection(cs)
        if not part.is_empty():
            field_pieces.append(FieldPiece(part, full_basis))

    field = SubspaceField(d, tuple(field_pieces))
    generators = [
        PiecewiseSection.constant([1 if i == j else 0 for i in range(d)])
        for j in range(d)
    ]
    while len(generators) < n_generators:
        extra = _rand_poly_section(rng, d)
        if not extra.is_zero():
            generators.append(extra)
    spec = FieldModuleSpec(d, tuple(generators), field)
    # force IrrationalRoot rejection now rather than at check time
    analyze_field(spec)
    return spec
