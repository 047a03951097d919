"""Continuous fields of Hilbert spaces over [0, 1] with constant fiber C^d,
piecewise-constant subspace assignments, and exact essentiality analysis.

The subspace field x ↦ L_x is primary data: a partition of [0, 1] into
symbolic pieces, each carrying Gaussian-integer columns that span L_x.
Membership m(x) ∈ L_x is decided by the piece's annihilator: Gaussian-integer
rows a with a·B = 0, whose common kernel is exactly col B. Everything here is
exact: a section piece is Gaussian-integer columns over one denominator
(`sections`), its residuals and minors are integer polynomials, and every
membership test is in Gaussian integers; nowhere-density is a qualitative
property that floating point would ruin.

`analyze_field` computes each generator's defect set once per spec; the
decision, the witnesses and the CLI reports all read from that analysis.
Each witness owns its verdict (`verified`); `non_essential_witnesses` owns
the AND of the two that `essmod witness` and the suite read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    GeneratorsNotSpanning,
    IrrationalRoot,
    NoGeneratorDefect,
    NoRoom,
    PreconditionFailed,
    SampleNotInDefect,
    ZeroInput,
)
from .polynomials import _value, exact_zero_points, poly_gcd
from .rationals import GaussianIntVector, annihilator
from .sections import PiecewiseSection, _add_times, _cell_pieces, _reduced, _scaled_value, _zero_piece, bump, pointwise_inner
from .subsets import SymbolicSubset, _check_range, _label_runs, _of_runs, _order, _runs

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FieldPiece:
    """One constant-subspace piece: a region and Gaussian-integer columns
    spanning the subspace (none for the zero subspace)."""

    region: SymbolicSubset
    basis: tuple[GaussianIntVector, ...]


@dataclass(frozen=True)
class SubspaceField:
    """Piecewise-constant assignment x ↦ L_x ⊆ C^d on an exact partition,
    ordered once: one `_order` over the parts of all regions gives the
    sorted bounds (0 and 1 among them), which cut [0, 1] into regions 2i
    (the point bounds[i]) and 2i + 1 (the gap after it), and the owner of
    each region, the piece that holds it. Overlaps between pieces and gaps
    are read off that table, and each region comes out in normal form, so
    it may be given as any checked parts (`subsets._parts`). The field
    keeps the runs of one L, `cuts` and `rows`, where neighbouring pieces
    with equal annihilator rows merge: `annihilator_at` and the atoms read
    them."""

    d: int
    pieces: tuple[FieldPiece, ...]

    def __post_init__(self):
        if any(len(col) != self.d for p in self.pieces for col in p.basis):
            raise DimensionMismatch("basis columns must have the fiber dimension")
        bounds, slot = _order([ZERO, ONE, *(x for p in self.pieces for x in p.region.points),
                               *(x for p in self.pieces for iv in p.region.intervals for x in (iv.lo, iv.hi))])
        owners = [None] * (2 * len(bounds) - 1)
        for i, p in enumerate(self.pieces):
            marks = [slot[x.as_integer_ratio()] for x in p.region.points]
            for iv in p.region.intervals:
                marks += range(slot[iv.lo.as_integer_ratio()] + (not iv.lo_closed), slot[iv.hi.as_integer_ratio()] + iv.hi_closed)
            for r in marks:
                if owners[r] not in (None, i):
                    raise ValueError("partition pieces overlap")
                owners[r] = i
        if None in owners:
            raise ValueError("partition pieces do not cover [0, 1]")
        self._normalize(tuple(p.basis for p in self.pieces), bounds, owners)

    @classmethod
    def _of(cls, d: int, bases: tuple, bounds: list[Fraction], owners: list[int]) -> "SubspaceField":
        """The field whose piece i has the columns bases[i] and owns region r
        of the increasing `bounds` (0 and 1 among them) iff owners[r] == i,
        each piece owning some region: built unchecked and normalized as the
        constructor normalizes a loaded partition's table."""
        out = cls.__new__(cls)
        out.__dict__["d"] = d
        out._normalize(bases, bounds, owners)
        return out

    def _normalize(self, bases: tuple, bounds: list[Fraction], owners: list) -> None:
        """Set the pieces and the runs of one L from a table of owners. Each
        maximal run of one owner is one part of its region. `cuts` keeps the
        bounds where L changes, each with the gap before it, and rows[r]
        holds the annihilator rows, whose common kernel is L, on region r of
        the cuts. Pieces with the same columns share one elimination."""
        runs = _label_runs(owners)
        eliminated = {b: annihilator(b, self.d) for b in dict.fromkeys(bases)}
        rows = [eliminated[bases[i]] for i in owners]
        last = len(bounds) - 1
        kept = [k for k in range(last + 1) if k in (0, last) or not rows[2 * k - 1] == rows[2 * k] == rows[2 * k + 1]]
        self.__dict__.update(pieces=tuple(FieldPiece(_of_runs(bounds, runs.get(i, ())), b) for i, b in enumerate(bases)),
                             cuts=[bounds[k] for k in kept], rows=[rows[r] for k in kept for r in (2 * k - 1, 2 * k)][1:])

    def annihilator_at(self, x: Fraction) -> tuple[GaussianIntVector, ...]:
        """The annihilator rows of L_x, from the runs of one L: x is cuts[i] or
        lies in the gap before it. OutOfRange for x outside [0, 1]."""
        _check_range(x)
        i = bisect_left(self.cuts, x)
        return self.rows[2 * i - (self.cuts[i] != x)]


def _dot(a: GaussianIntVector, w: GaussianIntVector) -> tuple[int, int]:
    """The plain bilinear product a·w in Gaussian integers."""
    re = im = 0
    for (ar, ai), (x, y) in zip(a, w):
        re += ar * x - ai * y
        im += ar * y + ai * x
    return re, im


def _outside(ann: tuple[GaussianIntVector, ...], w: GaussianIntVector) -> bool:
    """True iff w ∉ L (w a positive multiple of the vector in question, in
    Gaussian integers), given the annihilator rows of L: some a·w ≠ 0."""
    return any(_dot(a, w) != (0, 0) for a in ann)


# --- atoms: the common refinement of the partition and section pieces ------

class Atom(NamedTuple):
    """Point (lo == hi) or open interval (lo, hi): the annihilator rows `ann`
    of L there, and section piece `section_index`."""

    lo: Fraction
    hi: Fraction
    ann: tuple[GaussianIntVector, ...]
    section_index: int
    is_point: bool


def field_atoms(field: SubspaceField, breakpoints) -> list[Atom]:
    """Atoms in order, for a section with these breakpoints: the field's
    runs of one L (`cuts` and `rows`) with the section's inner breakpoints
    merged in. A breakpoint inside a gap splits it around a point atom with
    the gap's rows; the breakpoints at or before an atom number the
    section's piece."""
    bounds, inner, k = field.cuts, breakpoints[1:-1], 0
    atoms = []
    for r, ann in enumerate(field.rows):
        lo = bounds[r // 2]
        if r % 2 == 0:
            if k < len(inner) and inner[k] == lo:
                k += 1
            atoms.append(Atom(lo, lo, ann, k, True))
            continue
        hi = bounds[r // 2 + 1]
        while k < len(inner) and inner[k] < hi:
            atoms += (Atom(lo, inner[k], ann, k, False), Atom(inner[k], inner[k], ann, k + 1, True))
            lo, k = inner[k], k + 1
        atoms.append(Atom(lo, hi, ann, k, False))
    return atoms


def _walk(m: PiecewiseSection, atoms):
    """The one per-atom kernel: each atom of `atoms` (`field_atoms` of m's
    breakpoints), with what m's piece does there. At a point atom that is
    whether its value leaves L (never, for a full-fiber piece). On an
    interval atom it is the integer parts of the residual polynomials, the
    annihilator rows dotted with the piece's columns, if any part is
    nonzero, else (): the piece then lies in L on the whole atom."""
    for atom in atoms:
        ann, cols = atom.ann, m.pieces[atom.section_index][1]
        if not ann:  # the full fiber
            yield atom, False if atom.is_point else ()
        elif atom.is_point:
            yield atom, _outside(ann, _scaled_value(cols, atom.lo))
        else:
            resid = [part for a in ann for part in zip(*(_dot(a, col) for col in cols))]
            yield atom, resid if any(map(any, resid)) else ()


def residual_set(m: PiecewiseSection, field: SubspaceField) -> SymbolicSubset:
    """Exact defect set {x : m(x) ∉ L_x}, from each section piece's columns,
    in normal form straight from the ordered atoms (`subsets._runs`)."""
    if m.d != field.d:
        raise DimensionMismatch("section and field dimensions differ")
    return _residual_set(m, field_atoms(field, m.breakpoints))


def _residual_set(m: PiecewiseSection, atoms) -> SymbolicSubset:
    """The residual set of m from its atoms: a point atom is in the set iff
    m leaves L there. On an interval atom with nonzero residuals their
    common roots (rational, or rejected) split the atom in place into gaps
    inside the set and points outside it."""
    bounds, inside = [], []
    for atom, resid in _walk(m, atoms):
        if atom.is_point:
            bounds.append(atom.lo)
            inside.append(resid)
        elif resid:
            zeros = [z for z in exact_zero_points(resid, atom.lo, atom.hi) if atom.lo < z < atom.hi]
            bounds += zeros
            inside += [True, False] * len(zeros) + [True]
        else:
            inside.append(False)
    return _runs(bounds, inside)


def _residual_empty(m: PiecewiseSection, field: SubspaceField) -> bool:
    """residual_set(m, field).is_empty(), with no root found: the walk stops
    at the first point atom outside L or interval atom with a nonzero
    residual, since an open interval minus finitely many roots is never
    empty."""
    return not any(resid for _, resid in _walk(m, field_atoms(field, m.breakpoints)))


@cache
def _zero_field(d: int) -> SubspaceField:
    """L ≡ 0 on C^d: one piece with no columns, so its annihilator is the
    identity rows, owning all three regions of the bounds 0 and 1."""
    return SubspaceField._of(d, ((),), [ZERO, ONE], [0, 0, 0])


def support_set(m: PiecewiseSection) -> SymbolicSubset:
    """Z_m = {x : m(x) ≠ 0}, exactly (may raise IrrationalRoot): the
    residual set of m over the zero field."""
    return residual_set(m, _zero_field(m.d))


@dataclass(frozen=True)
class FieldModuleSpec:
    """A finitely generated module of sections together with its subspace
    field; the generators play the role of a countable generating set."""

    d: int
    generators: tuple[PiecewiseSection, ...]
    subfield: SubspaceField
    vanish_at_boundary: bool = False

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        for g in self.generators:
            if g.d != self.d:
                raise DimensionMismatch("generator of wrong fiber dimension")
            if g.is_zero():
                raise ZeroInput("generators must be nonzero")
            if self.vanish_at_boundary:
                ends = _scaled_value(g.pieces[0][1], ZERO) + _scaled_value(g.pieces[-1][1], ONE)
                if any(z != (0, 0) for z in ends):
                    raise ValueError("generators must vanish at 0 and 1")
        if self.subfield.d != self.d:
            raise DimensionMismatch("subspace field of wrong fiber dimension")


@dataclass(frozen=True)
class FieldAnalysis:
    """The defect sets of one spec, each computed once: `defects[k]` is the
    residual set of generator k and `total` their union, the set where the
    generators witness L_x ≠ H_x."""

    defects: tuple[SymbolicSubset, ...]
    total: SymbolicSubset


def analyze_field(spec: FieldModuleSpec) -> FieldAnalysis:
    """Each generator's residual set, over one atom list per distinct
    breakpoint tuple."""
    # keyed by the inner breakpoints, as a one-piece generator has none to hash
    by_inner = {g.breakpoints[1:-1]: g.breakpoints for g in spec.generators}
    atoms = {inner: field_atoms(spec.subfield, bps) for inner, bps in by_inner.items()}
    defects = tuple(_residual_set(g, atoms[g.breakpoints[1:-1]]) for g in spec.generators)
    total = SymbolicSubset(
        points=tuple(p for s in defects for p in s.points),
        intervals=tuple(iv for s in defects for iv in s.intervals),
    )
    return FieldAnalysis(defects, total)


def _minors(gens, d: int):
    """The d×d minors of the polynomial matrix G whose column j is the
    integer columns `gens[j]` of a generator piece, its denominator cleared
    (a positive scale on a column of G scales its minors and leaves the rank
    alone), one at a time, as scalar column pieces (1, cols), by Laplace
    expansion along the last row: every smaller minor of the leading rows is
    kept, and a vanishing one (no columns) costs no products above."""
    entries = [[tuple((col[k],) for col in cols) for k in range(d)] for cols in gens]
    memo = {(): [((1, 0),)]}

    def minor(s: tuple[int, ...]) -> list:
        if s not in memo:
            k, acc = len(s) - 1, (1, [])
            for t, j in enumerate(s):
                e = entries[j][k]
                if not any(x or y for ((x, y),) in e) or not (sub := minor(s[:t] + s[t + 1 :])):
                    continue
                sign = -1 if (k + t) % 2 else 1
                acc = _add_times(acc, (1, sub), (1, e if sign == 1 else tuple(((-x, -y),) for ((x, y),) in e)))
            cols = acc[1]
            while cols and cols[-1] == ((0, 0),):
                cols.pop()
            memo[s] = cols
        return memo[s]

    return (minor(s) for s in combinations(range(len(gens)), d))


def _rank_drop(minors, a: Fraction, b: Fraction, defect: SymbolicSubset) -> str | None:
    """Where rank G < d on rest = [a, b] \\ defect, from the gcd h of the
    minors of G: nowhere for a constant h, everywhere for h = 0, else at a
    root of h in rest. Each partial gcd is a multiple of h: the scan stops
    once one is constant, or is left unchanged by a minor and has no root in
    rest."""
    h = checked = []
    for part in (q for m in minors for q in zip(*(z for (z,) in m)) if any(q)):
        g = poly_gcd(h, part)
        if len(g) == 1:
            return None
        if g == h != checked:
            if _root_in(h, a, b, defect) is None:
                return None
            checked = h
        h = g
    return f"on all of [{a}, {b}]" if not h else _root_in(h, a, b, defect)


def _root_in(h: list[int], a: Fraction, b: Fraction, defect: SymbolicSubset) -> str | None:
    """Where the nonconstant integer polynomial h has a root in the rest
    [a, b] \\ defect, built here: a point of the rest by exact evaluation,
    an interval by `exact_zero_points`, which names a rational root and
    raises IrrationalRoot for an irrational one, inside the open interval
    since its ends are rational."""
    rest = SymbolicSubset.interval(a, b).difference(defect)
    for x in rest.points:
        if _value(h, x.numerator, x.denominator) == 0:
            return f"at x = {x}"
    for iv in rest.intervals:
        try:
            zeros = [z for z in exact_zero_points([h], iv.lo, iv.hi) if iv.contains(z)]
        except IrrationalRoot:
            return f"in {iv}"
        if zeros:
            return f"at x = {zeros[0]}"
    return None


def _covers(defect: SymbolicSubset, a: Fraction, b: Fraction) -> bool:
    """[a, b] ⊆ defect, for a < b and defect in normal form: its parts are
    pairwise apart (none meets the closure of another), so the connected
    [a, b] lies in the set iff one interval covers it, each end closed where
    it meets a or b."""
    return any((iv.lo < a or iv.lo == a and iv.lo_closed) and (b < iv.hi or b == iv.hi and iv.hi_closed)
               for iv in defect.intervals)


def check_generator_spanning(spec: FieldModuleSpec, defect: SymbolicSubset) -> int:
    """Certify that the generators span the full fiber C^d off the defect
    set, as taking the subspace field as primary data needs; return the
    number of cells certified, or raise GeneratorsNotSpanning. On a cell
    [a, b] between generator breakpoints the generators are one polynomial
    matrix G; its minors come lazily, and their gcd stops once constant.
    A cell that one interval of the defect set covers is skipped, and the
    rest of a cell is built only to look for a root of a nonconstant gcd.
    Sections that vanish at 0 and 1 live over the open interval (0, 1)."""
    if spec.vanish_at_boundary:
        defect = defect.union(SymbolicSubset(points=(ZERO, ONE)))
    cuts, slot = _order([b for g in spec.generators for b in g.breakpoints])
    on = [_cell_pieces(g.breakpoints, slot) for g in spec.generators]  # each generator's piece on each cell
    cells = [(c, a, b) for c, (a, b) in enumerate(zip(cuts, cuts[1:])) if not _covers(defect, a, b)]
    for c, a, b in cells:
        gens = [g.pieces[i[c]][1] for g, i in zip(spec.generators, on)]
        where = _rank_drop(_minors(gens, spec.d), a, b, defect)
        if where:
            raise GeneratorsNotSpanning(f"generators span a proper subspace of C^{spec.d} {where}")
    return len(cells)


@dataclass(frozen=True)
class FieldDecision:
    essential: bool
    analysis: FieldAnalysis
    spanning_cells: int


def is_essential_field(spec: FieldModuleSpec) -> FieldDecision:
    """The geometric criterion: the submodule of sections through L is
    essential iff the total defect set is nowhere dense."""
    analysis = analyze_field(spec)
    cells = check_generator_spanning(spec, analysis.total)
    return FieldDecision(analysis.total.is_nowhere_dense(), analysis, cells)


def _middle_half(iv) -> tuple[Fraction, Fraction]:
    """The middle half of the interval iv, whose closure sits strictly inside it."""
    quarter = (iv.hi - iv.lo) / 4
    return iv.lo + quarter, iv.hi - quarter


def _pick_interval(s: SymbolicSubset) -> tuple[Fraction, Fraction]:
    """The middle half of the widest interval component of s (the first, on a tie)."""
    best = max(s.intervals, key=lambda iv: iv.hi - iv.lo, default=None)
    if best is None:
        raise NoRoom("the set contains no interval of positive length")
    return _middle_half(best)


@dataclass(frozen=True)
class EssentialWitness:
    """A scalar function a with supp a ⊆ Z_m \\ closure(Y_m): then m·a lands
    in the submodule and stays nonzero."""

    a: PiecewiseSection
    ma: PiecewiseSection
    support: tuple[Fraction, Fraction]
    residual_empty: bool
    ma_nonzero: bool

    @property
    def verified(self) -> bool:
        return self.residual_empty and self.ma_nonzero


def essential_witness(
    m: PiecewiseSection, field: SubspaceField, defect: SymbolicSubset
) -> EssentialWitness:
    """`defect` is residual_set(m, field)."""
    if m.is_zero():
        raise ZeroInput("witness requires m ≠ 0")
    if not defect.is_nowhere_dense():
        raise PreconditionFailed("the defect set of m is not nowhere dense")
    support = support_set(m)
    room = support.difference(defect.closure())
    alpha, beta = _pick_interval(room)  # NoRoom if empty of intervals
    a = bump(alpha, beta)
    ma = m.mul_scalar_section(a)
    return EssentialWitness(
        a=a,
        ma=ma,
        support=(alpha, beta),
        residual_empty=_residual_empty(ma, field),
        ma_nonzero=not ma.is_zero(),
    )


@dataclass(frozen=True)
class ProbeReport:
    residual_empty: bool
    product_zero: bool

    @property
    def implication_holds(self) -> bool:
        return (not self.residual_empty) or self.product_zero


@dataclass(frozen=True)
class NonEssentialWitness:
    """m·a with support inside the interior of closure(Y_m): its support
    closure equals its defect closure, so no right multiple enters the
    submodule without dying."""

    a: PiecewiseSection
    ma: PiecewiseSection
    support: tuple[Fraction, Fraction]
    closure_equal: bool
    ma_nonzero: bool
    probes: tuple[ProbeReport, ...]

    @property
    def probes_ok(self) -> bool:
        return all(p.implication_holds for p in self.probes)

    @property
    def verified(self) -> bool:
        return self.closure_equal and self.ma_nonzero and self.probes_ok


def non_essential_witness(
    m: PiecewiseSection, field: SubspaceField, defect: SymbolicSubset
) -> NonEssentialWitness:
    """`defect` is residual_set(m, field)."""
    v = defect.closure().interior()
    if v.is_empty():
        raise PreconditionFailed("interior of closure(Y_m) is empty")
    alpha, beta = _pick_interval(v)
    a = bump(alpha, beta)
    ma = m.mul_scalar_section(a)
    z_ma = support_set(ma)
    y_ma = residual_set(ma, field)
    closure_equal = z_ma.closure() == y_ma.closure()
    probes = []
    for iv in z_ma.intervals[:4]:
        mab = ma.mul_scalar_section(bump(*_middle_half(iv)))
        probes.append(ProbeReport(residual_empty=_residual_empty(mab, field), product_zero=mab.is_zero()))
    return NonEssentialWitness(
        a=a,
        ma=ma,
        support=(alpha, beta),
        closure_equal=closure_equal,
        ma_nonzero=not ma.is_zero(),
        probes=tuple(probes),
    )


def witness_samples(total: SymbolicSubset, count: int) -> tuple[tuple[Fraction, Fraction], list[Fraction]]:
    """Where the inductive witness goes: the middle half (lo, hi) of the
    widest interval of closure(total)'s interior, and `count` distinct points
    of the total defect set in it, in increasing order, taken from ever finer
    dyadic grids of (lo, hi)."""
    lo, hi = _pick_interval(total.closure().interior())
    out: list[Fraction] = []
    depth = 3
    while len(out) < count and depth < 24:
        step = (hi - lo) / (1 << depth)
        # past the first grid only odd multiples are new: a coarser grid saw the rest
        for i in range(1, 1 << depth, 1 if depth == 3 else 2):
            x = lo + i * step
            if total.contains(x):
                out.append(x)
                if len(out) == count:
                    break
        depth += 1
    if len(out) < count:
        raise PreconditionFailed("could not find enough defect samples in the interval")
    return (lo, hi), sorted(out)


@dataclass(frozen=True)
class InductiveWitness:
    """Finite truncation of the inductive series Σ λ_j g_{k_j} a_j built to
    leave the subspace at every sample point."""

    m: PiecewiseSection
    lambdas: tuple[Fraction, ...]
    picks: tuple[int, ...]
    samples: tuple[Fraction, ...]
    sample_defects_verified: bool

    @property
    def verified(self) -> bool:
        """m leaves the subspace at every sample and 0 < λ_j ≤ 2^-j."""
        return self.sample_defects_verified and all(
            ZERO < lam <= Fraction(1, 2 ** j) for j, lam in enumerate(self.lambdas, start=1)
        )


def inductive_witness_section(
    spec: FieldModuleSpec, interval: tuple[Fraction, Fraction], samples, defect: SymbolicSubset
) -> InductiveWitness:
    """Build m = Σ_{j≤J} λ_j g_{k_j} a_j, J ≥ 1, with m(x_j) ∉ L_{x_j} for all j.

    Each a_j peaks at 1 on its sample and vanishes at all earlier samples;
    λ_j = 2^{-j} unless that unique value drops the partial sum into the
    subspace, in which case 2^{-j-1} is taken (at most one λ can fail since
    g_{k_j}(x_j) leaves the subspace). `defect` is the total defect set,
    analyze_field(spec).total. The cuts are ordered once (`_order`): each
    term's cells are a slot range, each picked generator's piece per cell
    comes from one pass over its breakpoints, and the cell holding x_j is
    found once. The samples share one denominator, so each term λ_j·a_j is
    one integer piece, with no Fraction arithmetic; each cell sums its terms
    in column form, generator columns times those integers, and membership
    is tested on the cells' columns, which are reduced once, at the end.
    """
    xs = [Fraction(x) for x in samples]
    if not xs:
        raise ValueError("need at least one sample point")
    if len(set(xs)) != len(xs):
        raise ValueError("sample points must be distinct")
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    field = spec.subfield
    for x in xs:
        if not (ZERO < x < ONE):
            raise ValueError("samples must lie strictly inside (0, 1)")
        if not (lo <= x <= hi):
            raise ValueError(f"sample {x} outside the given interval")
        if not defect.contains(x):
            raise SampleNotInDefect(f"sample {x} is not in the defect set")

    d, gens = spec.d, spec.generators
    anns = [field.annihilator_at(x) for x in xs]
    picks = []
    for x, ann in zip(xs, anns):
        k_j = next((k for k, g in enumerate(gens)
                    if _outside(ann, _scaled_value(g.pieces[g.piece_index_for_interval(x)][1], x))), None)
        if k_j is None:
            raise NoGeneratorDefect(
                f"no generator leaves the subspace at sample {x}; "
                "the defect set is inconsistent with the generators"
            )
        picks.append(k_j)
    # a_j is the unit bump on (x_j − r_j, x_j + r_j), r_j half the distance to the nearest earlier sample or end:
    # over one denominator, x_j = X_j/D and r_j = R_j/(2D) with R_j = min(X_j, D − X_j, |X_j − X_i|)
    den = lcm(*(x.denominator for x in xs))
    nums, widths, earlier = [x.numerator * (den // x.denominator) for x in xs], [], []
    for n in nums:
        i = bisect_left(earlier, n)
        widths.append(min(n, den - n, *(abs(n - y) for y in earlier[max(i - 1, 0):i + 1])))
        earlier.insert(i, n)
    ends = [(Fraction(2 * n - w, 2 * den), Fraction(2 * n + w, 2 * den)) for n, w in zip(nums, widths)]
    # the common refinement: each cell sums the terms whose bump covers it
    cuts, slot = _order([ZERO, ONE, *(t for e in ends for t in e), *(b for k in set(picks) for b in gens[k].breakpoints)])
    piece_on = {k: _cell_pieces(gens[k].breakpoints, slot) for k in set(picks)}
    here = [bisect_right(cuts, x) - 1 for x in xs]  # the cell holding each sample
    cells = [_zero_piece(d)] * (len(cuts) - 1)
    lambdas: list[Fraction] = []
    for j, (x, n, w, (a, b), k, ann, c) in enumerate(zip(xs, nums, widths, ends, picks, anns, here), start=1):
        pieces, on = gens[k].pieces, piece_on[k]
        # λ_j = 2^-e: the cell holding x sums the earlier terms there, and a_j(x_j) = 1
        e = j if _outside(ann, _scaled_value(_add_times(cells[c], pieces[on[c]], (1 << j, (((1, 0),),)))[1], x)) else j + 1
        lambdas.append(Fraction(1, 1 << e))
        # λ_j·a_j(t) = 2^-e·(1 − (t − x_j)²/r_j²) = (R_j² − 4X_j² + 8D·X_j·t − 4D²·t²) / (R_j²·2^e)
        term = _reduced(w * w << e, (((w * w - 4 * n * n, 0),), ((8 * den * n, 0),), ((-4 * den * den, 0),)))
        for c in range(slot[a.as_integer_ratio()] // 2, slot[b.as_integer_ratio()] // 2):
            cells[c] = _add_times(cells[c], pieces[on[c]], term)

    return InductiveWitness(
        m=PiecewiseSection._of(d, tuple(cuts), tuple(_reduced(den, cols) for den, cols in cells)),
        lambdas=tuple(lambdas),
        picks=tuple(picks),
        samples=tuple(xs),
        sample_defects_verified=all(_outside(ann, _scaled_value(cells[c][1], x)) for x, ann, c in zip(xs, anns, here)),
    )


class NonEssentialWitnesses(NamedTuple):
    """The witnesses `essmod witness` reports on a non-essential spec, and their verdict: both verify."""

    interval: tuple[Fraction, Fraction]
    inductive: InductiveWitness
    direct: NonEssentialWitness
    verified: bool


def non_essential_witnesses(spec: FieldModuleSpec, analysis: FieldAnalysis, count: int) -> NonEssentialWitnesses:
    """The inductive witness on `count` samples of the total defect set
    (`witness_samples`), and the direct witness of the first generator
    whose defect set (`analysis.defects`) holds an interval: one does, as
    the total has interior and is the union of those sets."""
    interval, xs = witness_samples(analysis.total, count)
    inductive = inductive_witness_section(spec, interval, xs, analysis.total)
    direct = next(non_essential_witness(g, spec.subfield, defect)
                  for g, defect in zip(spec.generators, analysis.defects) if defect.intervals)
    return NonEssentialWitnesses(interval, inductive, direct, inductive.verified and direct.verified)


def commutative_limit_identity(m: PiecewiseSection, n: PiecewiseSection) -> bool:
    """Exact check of m·⟨n,n⟩ = n·⟨n,m⟩ for sections over the commutative
    scalars; holds whenever n lies in the closed submodule generated by m."""
    if m.d != n.d:
        raise DimensionMismatch("sections of different fiber dimension")
    lhs = m.mul_scalar_section(pointwise_inner(n, n))
    rhs = n.mul_scalar_section(pointwise_inner(n, m))
    return (lhs - rhs).is_zero()
