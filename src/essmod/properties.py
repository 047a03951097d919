"""Seeded property suite behind `essmod suite`.

Each property draws `trials` random instances from its own deterministic
substream and checks one contract of the library. Functions under test are
resolved through their modules at call time, so a patched (fault-injected)
build fails exactly the properties that exercise the faulty piece.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import algebra, fields, generate, linalg, modules, runner, sections, serialize, subsets
from .algebra import AlgebraElement, AlgebraShape
from .errors import IrrationalRoot
from .generate import SplitMix64
from .modules import Submodule
from .polynomials import GaussianPoly
from .sections import PiecewiseSection
from .subsets import SymbolicSubset

SHAPES = [AlgebraShape((2,)), AlgebraShape((1, 2)), AlgebraShape((3,)), AlgebraShape((2, 2))]


@dataclass
class PropertyResult:
    name: str
    passed: bool
    trials: int
    failures: int
    detail: str | None = None


def _run(name, rng, trials, body) -> PropertyResult:
    failures = 0
    detail = None
    done = 0
    for t in range(trials):
        try:
            ok = body(rng)
        except IrrationalRoot:
            continue  # resampled input, not a failure
        except Exception as exc:  # property machinery must not crash the suite
            ok = False
            detail = detail or f"trial {t}: {type(exc).__name__}: {exc}"
        done += 1
        if not ok:
            failures += 1
            detail = detail or f"trial {t} violated the property"
    return PropertyResult(name, failures == 0, done, failures, detail)


PROPERTIES = []


def _property(name: str):
    """Declare the property `name` by one trial of it, `prop_x(rng) -> bool`.
    The module-level `prop_x(rng, trials)` runs it `trials` times into a
    `PropertyResult` and is appended to PROPERTIES, so definition order fixes
    the substream each property draws from, and `name` feeds the digest."""
    def declare(trial):
        @functools.wraps(trial)
        def prop(rng, trials: int) -> PropertyResult:
            return _run(name, rng, trials, trial)
        PROPERTIES.append(prop)
        return prop
    return declare


# --- numeric kernel ---------------------------------------------------------

@_property("numeric.eig_reconstruction")
def prop_eig_reconstruction(rng):
    n = rng.randint(1, 6)
    h = generate.rand_matrix(rng, n, n)
    h = (h + h.conj().T) / 2.0
    eigs, u = linalg.herm_eig(h)
    err = linalg.op_norm(u @ np.diag(eigs) @ u.conj().T - h)
    unitary_err = linalg.op_norm(u @ u.conj().T - np.eye(n))
    return err <= 1e-10 * (1 + linalg.op_norm(h)) and unitary_err <= 1e-10


@_property("numeric.op_norm")
def prop_op_norm(rng):
    a = generate.rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    b = generate.rand_matrix(rng, a.shape[1], rng.randint(1, 5))
    if linalg.op_norm(a @ b) > linalg.op_norm(a) * linalg.op_norm(b) + 1e-10:
        return False
    if abs(linalg.op_norm(a.conj().T) - linalg.op_norm(a)) > 1e-10:
        return False
    gram = linalg.op_norm(a.conj().T @ a)
    return abs(gram - linalg.op_norm(a) ** 2) <= 1e-10 * (1 + gram)


@_property("numeric.psd_two_sided")
def prop_psd_two_sided(rng):
    n = rng.randint(1, 5)
    h = generate.rand_matrix(rng, n, n)
    h = (h + h.conj().T) / 2.0
    tol = 1e-10
    scale = tol * rng.randint(0, 3) / 2.0
    tiny = h * (scale / (1 + linalg.op_norm(h)))
    if linalg.is_psd(tiny, tol) and linalg.is_psd(-tiny, tol):
        return linalg.op_norm(tiny) <= 2 * tol
    return True


# --- C*-algebra layer ----------------------------------------------------------

def _poly_fn(coeffs):
    def f(t):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc
    return f


@_property("algebra.calculus_homomorphism")
def prop_calculus_homomorphism(rng):
    shape = rng.choice(SHAPES)
    a = generate.rand_hermitian(rng, shape)
    a = a * (1.0 / (1.0 + a.norm()))
    f = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
    g = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
    fg = np.polynomial.polynomial.polymul(f, g) if f and g else [0.0]
    lhs = algebra.calculus(a, _poly_fn(list(fg)))
    rhs = algebra.calculus(a, _poly_fn(f)) * algebra.calculus(a, _poly_fn(g))
    return lhs.distance(rhs) <= 1e-9


@_property("algebra.monotone_convergence")
def prop_monotone_convergence(rng):
    shape = rng.choice(SHAPES)
    a = generate.rand_hermitian(rng, shape)
    if a.norm() < 1e-6:
        return True
    eps = a.norm() / 2.0
    eigs = algebra.all_eigenvalues(a)
    if np.min(np.abs(eigs - eps)) <= 1e-6:
        return True  # threshold instance: the projection is undefined there
    chi = algebra.spectral_projection(a, eps)
    prev = None
    prev_dist = None
    for n in range(1, 21):
        g_n = algebra.lower_approximants(a, eps, n)
        if prev is not None:
            diff = g_n - prev
            if not all(linalg.is_psd(b, 1e-12) for b in diff.blocks):
                return False
        dist = (chi - g_n).norm()
        if prev_dist is not None and dist > prev_dist + 1e-12:
            return False
        prev, prev_dist = g_n, dist
    far = algebra.lower_approximants(a, eps, 10 ** 6)
    return (chi - far).norm() <= 1e-5


@_property("algebra.subideal_pipeline")
def prop_subideal_pipeline(rng):
    shape = rng.choice(SHAPES)
    x = generate.rand_algebra_element(rng, shape)
    if rng.randint(0, 1):
        x = generate.rand_projection(rng, shape) * x  # rank-deficient inputs too
    if x.is_zero(1e-9):
        return True
    w = algebra.closed_subideal(x)
    if w.p.is_zero(1e-9):
        return False
    rank_x = sum(linalg.matrix_rank(b) for b in x.blocks)
    if w.ideal.rank() != rank_x:
        return False
    return (
        w.fa_p_error <= 1e-9
        and all(e <= 1e-8 for e in w.probe_errors)
        and all(e <= 1e-8 for e in w.membership_errors)
    )


@_property("algebra.ideal_roundtrip")
def prop_ideal_roundtrip(rng):
    shape = rng.choice(SHAPES)
    p = generate.rand_projection(rng, shape)
    ideal = algebra.RightIdeal(p)
    back = algebra.ideal_support_projection(ideal.spanning_set())
    return back.support_projection.distance(p) <= 1e-8


@_property("algebra.essentiality_oracle")
def prop_essentiality_oracle(rng):
    shape = rng.choice(SHAPES)
    p = AlgebraElement.identity(shape) if rng.randint(0, 3) == 0 else generate.rand_projection(rng, shape)
    ideal = algebra.RightIdeal(p)
    decision, _ = algebra.is_essential_right_ideal(ideal)
    falsified = False
    for b, n in enumerate(shape.block_dims):
        for _ in range(8):
            v = generate.rand_matrix(rng, n, 1)
            if linalg.op_norm(v) < 1e-6:
                continue
            if linalg.subspace_intersection_dim(p.blocks[b], v) == 0:
                falsified = True
    return decision == (not falsified)


# --- Hilbert module layer ---------------------------------------------------------

def _rand_module_setup(rng):
    shape = rng.choice(SHAPES[:2])
    k = rng.randint(1, 3)
    return shape, k


@_property("module.theta_apply")
def prop_theta_apply(rng):
    shape, k = _rand_module_setup(rng)
    x = generate.rand_module_element(rng, shape, k)
    y = generate.rand_module_element(rng, shape, k)
    z = generate.rand_module_element(rng, shape, k)
    lhs = modules.apply(modules.theta(x, y), z)
    rhs = x * modules.inner_product(y, z)
    return (lhs - rhs).norm() <= 1e-10 * (1 + x.norm() * y.norm() * z.norm())


@_property("module.theta_nondegenerate")
def prop_theta_nondegenerate(rng):
    shape, k = _rand_module_setup(rng)
    x = generate.rand_module_element(rng, shape, k)
    if x.norm() < 1e-6:
        return True
    x = (1.0 / x.norm()) * x
    return modules.theta(x, x).norm() >= 1e-8


@_property("module.theta_norm_bound")
def prop_theta_norm_bound(rng):
    shape, k = _rand_module_setup(rng)
    x = generate.rand_module_element(rng, shape, k)
    y = generate.rand_module_element(rng, shape, k)
    xp = generate.rand_module_element(rng, shape, k)
    yp = generate.rand_module_element(rng, shape, k)
    lhs = (modules.theta(x, y) - modules.theta(xp, yp)).norm()
    bound = x.norm() * (y - yp).norm() + (x - xp).norm() * yp.norm()
    return lhs <= bound + 1e-9


@_property("module.correspondence")
def prop_correspondence(rng):
    shape, k = _rand_module_setup(rng)
    if rng.randint(0, 2) == 0:
        gens = tuple(modules.module_basis(shape, k))
    else:
        gens = tuple(
            generate.rand_module_element(rng, shape, k)
            for _ in range(rng.randint(1, 2))
        )
    n = Submodule(shape, k, gens)
    ideal = modules.ideal_of_submodule(n)
    back = modules.submodule_of_ideal(ideal, shape, k)
    if not back.same_span(n):
        return False
    dec_mod, cert = modules.is_essential_submodule(n)
    dec_ideal, _ = algebra.is_essential_right_ideal(ideal)
    if dec_mod != dec_ideal:
        return False
    if dec_mod:
        for _ in range(5):
            m = generate.rand_module_element(rng, shape, k)
            if m.is_zero(1e-9):
                continue
            if modules.reformulation_probe(m, n) is None:
                return False
        return True
    return cert.witness_probe_found is False


@_property("module.intertwine")
def prop_intertwine(rng):
    shape, k = _rand_module_setup(rng)
    m = generate.rand_module_element(rng, shape, k)
    a = generate.rand_algebra_element(rng, shape)
    rows = [[generate.rand_algebra_element(rng, shape) for _ in range(k)] for _ in range(k)]
    T = AlgebraElement(modules.operator_shape(shape, k), tuple(
        np.block([[e.blocks[b] for e in row] for row in rows]) for b in range(shape.num_blocks)
    ))
    u = m * a
    tu = modules.apply(T, u)
    lhs = T * modules.theta(u, tu)
    rhs = modules.theta(tu, tu)
    return (lhs - rhs).norm() <= 1e-8 * (1 + lhs.norm() + rhs.norm())


@_property("module.left_module_identity")
def prop_left_module_identity(rng):
    shape, k = _rand_module_setup(rng)
    x, y, u, v = (generate.rand_module_element(rng, shape, k) for _ in range(4))
    lhs = modules.theta(x, y) * modules.theta(u, v)
    rhs = modules.theta(x * modules.inner_product(y, u), v)
    return (lhs - rhs).norm() <= 1e-8 * (1 + lhs.norm() + rhs.norm())


# --- continuous fields ---------------------------------------------------------------

def _rand_subset(rng) -> SymbolicSubset:
    pts = [rng.dyadic(5, 0) + Fraction(1, 2) for _ in range(rng.randint(0, 2))]
    pts = [p for p in pts if 0 <= p <= 1]
    ivs = []
    for _ in range(rng.randint(0, 2)):
        a = Fraction(rng.randint(0, 31), 32)
        b = Fraction(rng.randint(0, 31), 32)
        if a > b:
            a, b = b, a
        ivs.append(subsets.Interval(a, b, bool(rng.randint(0, 1)), bool(rng.randint(0, 1))))
    return SymbolicSubset(points=tuple(pts), intervals=tuple(ivs))


@_property("fields.set_algebra")
def prop_set_algebra(rng):
    s = _rand_subset(rng)
    if not s.interior().is_subset_of(s) or not s.is_subset_of(s.closure()):
        return False
    if s.closure().closure() != s.closure():
        return False
    if s.interior().interior() != s.interior():
        return False
    if s.complement().complement() != s:
        return False
    # the two nowhere-density routes agree
    return s.is_nowhere_dense() == s.closure().interior().is_empty()


def _planted_spec(rng, defect: str):
    d = rng.randint(1, 3)
    doc = generate.gen_field(
        d=d,
        pieces=rng.randint(2, 6),
        n_generators=rng.randint(d, d + 2),
        defect=defect,
        seed=rng.next_u64(),
    )
    return serialize.field_spec_from_json(doc["payload"]), doc


def _rand_linear(rng) -> GaussianPoly:
    """A polynomial of degree ≤ 1 with dyadic (re, im) coefficients."""
    return GaussianPoly.from_coeffs([(rng.dyadic(3, 1), rng.dyadic(3, 1)) for _ in range(2)])


def _rand_combination(rng, spec) -> PiecewiseSection:
    m = PiecewiseSection.zero(spec.d)
    for g in spec.generators:
        m = m + g.mul_scalar_section(PiecewiseSection.scalar_poly(_rand_linear(rng)))
    return m


@_property("fields.residual_subset_total")
def prop_residual_subset_total(rng):
    defect_kind = ("none", "points", "interval")[rng.randint(0, 2)]
    spec, _ = _planted_spec(rng.spawn(1), defect_kind)
    total = fields.analyze_field(spec).total
    m = _rand_combination(rng, spec)
    if m.is_zero():
        return True
    return fields.residual_set(m, spec.subfield).is_subset_of(total)


def _widest_witness(spec, total: SymbolicSubset, den: int, count: int):
    """The inductive witness on the widest interval (lo, hi) of the interior
    of `total`'s closure, sampled at lo + (hi - lo)·i/den for i = 1..count."""
    iv = max(total.closure().interior().intervals, key=lambda i: i.hi - i.lo)
    xs = sorted({iv.lo + (iv.hi - iv.lo) * Fraction(i, den) for i in range(1, count + 1)})
    return fields.inductive_witness_section(spec, (iv.lo, iv.hi), xs, total)


@_property("fields.criterion_coherence")
def prop_criterion_coherence(rng):
    planted = ("none", "points", "interval")[rng.randint(0, 2)]
    spec, _ = _planted_spec(rng.spawn(2), planted)
    decision = fields.is_essential_field(spec)
    if decision.essential != (planted != "interval"):
        return False
    if decision.essential:
        for _ in range(3):
            m = _rand_combination(rng, spec)
            if m.is_zero():
                continue
            defect = fields.residual_set(m, spec.subfield)
            if not defect.is_nowhere_dense():
                return False
            w = fields.essential_witness(m, spec.subfield, defect)
            if not w.verified:
                return False
        return True
    witness = _widest_witness(spec, decision.analysis.total, 8, 4)
    inductive_ok = (
        witness.sample_defects_verified
        and not fields.residual_set(witness.m, spec.subfield).is_nowhere_dense()
    )
    direct_ok = False
    for g, defect in zip(spec.generators, decision.analysis.defects):
        if defect.intervals:
            direct_ok = fields.non_essential_witness(g, spec.subfield, defect).verified
            break
    return inductive_ok or direct_ok


@_property("fields.inductive_postcondition")
def prop_inductive_postcondition(rng):
    spec, _ = _planted_spec(rng.spawn(3), "interval")
    total = fields.is_essential_field(spec).analysis.total
    count = rng.randint(2, 6)
    return _widest_witness(spec, total, count + 1, count).verified


@_property("fields.term_norm_bound")
def prop_term_norm_bound(rng):
    spec, _ = _planted_spec(rng.spawn(4), "interval")
    # restrict to the sup-normalized constant generators
    consts = tuple(
        g for g in spec.generators
        if all(p.degree <= 0 for row in g.pieces for p in row)
    )
    spec = fields.FieldModuleSpec(spec.d, consts, spec.subfield)
    w = _widest_witness(spec, fields.is_essential_field(spec).analysis.total, 5, 3)
    for j, (lam, k) in enumerate(zip(w.lambdas, w.picks), start=1):
        g = spec.generators[k]
        x = w.samples[j - 1]
        dists = [abs(x - other) for other in w.samples[: j - 1]] + [x, 1 - x]
        radius = min(dists) / 2
        term = g.mul_scalar_section(sections.unit_bump(x, radius)).scale(lam)
        sup = Fraction(0)
        for i in range(term.d):
            coord = term.coordinate(i)
            if coord.is_zero():
                continue
            sup = max(sup, coord.exact_sup_norm())
        if sup > Fraction(1, 2 ** j):
            return False
    return True


@_property("fields.commutative_identity")
def prop_commutative_identity(rng):
    d = rng.randint(1, 3)
    m_coeffs = [_rand_linear(rng) for _ in range(d)]
    m = PiecewiseSection(d, (Fraction(0), Fraction(1)), (tuple(m_coeffs),))
    c = PiecewiseSection.scalar_poly(_rand_linear(rng))
    n = m.mul_scalar_section(c)
    return fields.commutative_limit_identity(m, n)


# --- CLI / harness contracts --------------------------------------------------------

@_property("cli.gen_determinism")
def prop_gen_determinism(rng):
    seed = rng.next_u64() % (1 << 32)
    a = serialize.canonical_json(generate.gen_right_ideal((2,), seed))
    b = serialize.canonical_json(generate.gen_right_ideal((2,), seed))
    c = serialize.canonical_json(generate.gen_field(2, 3, 2, "interval", seed))
    d = serialize.canonical_json(generate.gen_field(2, 3, 2, "interval", seed))
    return a == b and c == d


@_property("cli.gen_check_roundtrip")
def prop_gen_check_roundtrip(rng):
    seed = rng.next_u64() % (1 << 32)
    kind = rng.randint(0, 2)
    if kind == 0:
        doc = generate.gen_right_ideal((2, 2), seed)
    elif kind == 1:
        doc = generate.gen_module_submodule((2,), 2, seed)
    else:
        defect = ("none", "points", "interval")[rng.randint(0, 2)]
        doc = generate.gen_field(2, 4, 2, defect, seed)
    serialize.validate_instance(doc)
    report = runner.run_check(doc)
    if not report["checks_ok"]:
        return False
    if "expected" in doc and report["decision"] != doc["expected"]["essential"]:
        return False
    return True


def run_suite(seed: int, trials: int) -> serialize.Report:
    """Run each property of PROPERTIES on its own substream, the i-th (from 0)
    on `SplitMix64(seed).spawn(i + 1)`. The finished report lists the results
    sorted by name; its digest covers them, and `timing_ms` and the per-property
    `property_timing_ms` stay outside it."""
    t0 = time.perf_counter()
    base = SplitMix64(seed)
    results = []
    timing = {}
    for idx, prop in enumerate(PROPERTIES):
        rng = base.spawn(idx + 1)
        t = time.perf_counter()
        results.append(prop(rng, trials))
        timing[results[-1].name] = round((time.perf_counter() - t) * 1000.0, 3)
    results.sort(key=lambda r: r.name)
    report = {
        "schema": serialize.SCHEMA,
        "kind": "suite_report",
        "seed": seed,
        "trials": trials,
        "passed": all(r.passed for r in results),
        "properties": [asdict(r) for r in results],
    }
    return serialize.finish(report, t0, property_timing_ms=dict(sorted(timing.items())))
