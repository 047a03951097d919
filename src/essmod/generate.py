"""Deterministic instance generation.

Randomness comes from SplitMix64, a counter-based 64-bit generator small
enough to restate in any language: state advances by the golden-gamma
constant and each output is a three-stage mix of the state (see README).
Output i of a stream is mix(seed + i·γ), so a block of n draws is one
vectorised uint64 computation equal to n sequential draws: a matrix is
drawn in one batch, its entries k/16 + (k'/16)i with k, k' in [−32, 32],
row-major, real part first; a field's polynomial generator in another,
its coefficients k/8 + (k'/8)i with k, k' in [−8, 8], by coordinate, then
ascending power, real part first. Every generated scalar is dyadic, so
float serialization is exact and re-running a seed is byte-identical.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import IrrationalRoot, SizeCap
from .fields import FieldModuleSpec, SubspaceField, residual_set
from .linalg import column_space_projector
from .modules import ModuleElement, module_basis
from .rationals import identity_columns
from .sections import ONE, ZERO, PiecewiseSection, _reduced
from .serialize import (
    element_to_json,
    field_spec_to_json,
    instance_to_json,
    module_element_to_json,
    shape_to_json,
)
from .subsets import Interval, _spans

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
# numpy 1 promotes a uint64 mixed with a Python int to float64: every operand is an np.uint64
_U64 = tuple(map(np.uint64, (GOLDEN_GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31)))


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

    def randints(self, lo: int, hi: int, n: int) -> np.ndarray:
        """The next n `randint(lo, hi)` draws as one int64 array: output i is
        the mix of state + i·GOLDEN_GAMMA, and the state moves on by n·GOLDEN_GAMMA."""
        if hi < lo:
            raise ValueError("empty range")
        gamma, m1, m2, s30, s27, s31 = _U64
        z = np.uint64(self.state) + np.arange(1, n + 1, dtype=np.uint64) * gamma
        self.state = (self.state + n * GOLDEN_GAMMA) & MASK64
        z = (z ^ (z >> s30)) * m1
        z = (z ^ (z >> s27)) * m2
        return lo + ((z ^ (z >> s31)) % np.uint64(hi - lo + 1)).astype(np.int64)

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

def _rand_entries(rng: SplitMix64, n: int) -> np.ndarray:
    """n entries k/16 + (k'/16)i, k and k' drawn in [−32, 32] in one batch, real part first."""
    return (rng.randints(-32, 32, 2 * n) / 16.0).view(np.complex128)


def rand_matrix(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    """Entries as `_rand_entries` draws them, row-major."""
    return _rand_entries(rng, rows * cols).reshape(rows, cols)


def rand_algebra_element(rng: SplitMix64, shape: AlgebraShape) -> AlgebraElement:
    """Its blocks as `rand_matrix` draws them one after another, in one batch split by block."""
    sizes = [n * n for n in shape.block_dims]
    parts = np.split(_rand_entries(rng, sum(sizes)), np.cumsum(sizes[:-1]))
    return AlgebraElement(shape, tuple(part.reshape(n, n) for part, n in zip(parts, shape.block_dims)))


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
    """Random polynomial section of degree ≤ 2, coefficients k/8 + (k'/8)i with
    k and k' drawn in [−8, 8] in one batch: by coordinate, then ascending power,
    real part first. Built unchecked, as its one piece over 8 is continuous."""
    k = rng.randints(-8, 8, 6 * d).tolist()
    cols = tuple(tuple((k[6 * i + 2 * p], k[6 * i + 2 * p + 1]) for i in range(d)) for p in range(3))
    return PiecewiseSection._of(d, (ZERO, ONE), (_reduced(8, cols),))


def planted_field(
    d: int, pieces: int, n_generators: int, defect: str, seed: int
) -> FieldModuleSpec:
    """Field with a planted defect structure.

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
            return _gen_field_attempt(rng.spawn(attempt), d, pieces, n_generators, defect)
        except IrrationalRoot:
            continue
    raise IrrationalRoot("could not sample rational-root defect boundaries")


def gen_field(d: int, pieces: int, n_generators: int, defect: str, seed: int) -> dict:
    """The instance document of `planted_field`'s spec, its planted decision as `expected`."""
    payload = field_spec_to_json(planted_field(d, pieces, n_generators, defect, seed))
    doc = instance_to_json("field", payload, seed)
    doc["expected"] = {"essential": defect != "interval"}
    return doc


def _gen_field_attempt(
    rng: SplitMix64, d: int, pieces: int, n_generators: int, defect: str
) -> FieldModuleSpec:
    """One draw of a field: the planted pieces, each owning its point or the
    open gap between its interval ends, then the full-fiber cells [0, c₁),
    …, [c_m, 1] cut at up to 3 dyadic points, each owning the rest of its
    span. One `_spans` call orders every bound and reads each part's
    regions by the one region rule, each region gets its owner, and the
    field is built from that table (`SubspaceField._of`), normalized as a
    loaded one is, with no sweep and no second ordering."""
    full_basis = identity_columns(d)
    planted = []  # (parts, basis): a point or an open interval
    if defect == "points":
        planted = [(((x,), ()), _rand_proper_basis(rng, d)) for x in _distinct_dyadics(rng, max(1, min(pieces - 1, 4)))]
    elif defect == "interval":
        lo = Fraction(rng.randint(1, 12), 16)
        hi = lo + Fraction(rng.randint(1, 2), 16)
        planted = [(((), (Interval._of(lo, hi, False, False),)), _rand_proper_basis(rng, d))]
    cuts = _distinct_dyadics(rng, min(max(0, pieces - len(planted) - 1), 3), denom_power=5)
    bounds, (*planted_spans, cut_spans) = _spans([*(parts for parts, _ in planted), (cuts, ())])
    cut_slots = [r for r, _ in cut_spans]
    owners = [len(planted) + bisect_right(cut_slots, r) for r in range(2 * len(bounds) - 1)]
    for i, ((first, last),) in enumerate(planted_spans):
        owners[first:last + 1] = [i] * (last + 1 - first)
    bases = [basis for _, basis in planted] + [full_basis] * (len(cuts) + 1)
    used = sorted(set(owners))  # a cell inside the planted interval owns nothing and is no piece
    index = {i: n for n, i in enumerate(used)}
    field = SubspaceField._of(d, tuple(bases[i] for i in used), bounds, [index[i] for i in owners])
    generators = [PiecewiseSection._of(d, (ZERO, ONE), ((1, (col,)),)) for col in full_basis]
    while len(generators) < n_generators:
        extra = _rand_poly_section(rng, d)
        if not extra.is_zero():
            generators.append(extra)
    # force IrrationalRoot rejection now rather than at check time; the unit
    # generators are constant, so their residuals have no roots
    for g in generators[d:]:
        residual_set(g, field)
    return FieldModuleSpec(d, tuple(generators), field)
