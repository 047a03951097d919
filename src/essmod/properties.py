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
from .errors import EigenvalueAtThreshold, IrrationalRoot, ZeroInput
from .modules import ModuleElement, Submodule
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
            continue  # a skipped trial, neither counted nor a failure
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
    """A hermitian matrix that is PSD both ways, by its `herm_eig` spectrum
    (eigs[0] ≥ −tol and eigs[-1] ≤ tol), has norm at most 2·tol."""
    n = rng.randint(1, 5)
    h = generate.rand_matrix(rng, n, n)
    h = (h + h.conj().T) / 2.0
    tol = 1e-10
    scale = tol * rng.randint(0, 3) / 2.0
    tiny = h * (scale / (1 + linalg.op_norm(h)))
    eigs, _ = linalg.herm_eig(tiny)
    if eigs[0] >= -tol and eigs[-1] <= tol:
        return linalg.op_norm(tiny) <= 2 * tol
    return True


# --- C*-algebra layer ----------------------------------------------------------

def _spectral(shape, svds, f):
    """f(a) = U·diag(f(σ²))·U* for a = x·x*, from the SVDs x_b = U·Σ·V* of
    x's blocks: the spectral decomposition closed_subideal reads."""
    return AlgebraElement(shape, tuple((u * f(s * s)) @ u.conj().T for u, s, _ in svds))


@_property("algebra.calculus_homomorphism")
def prop_calculus_homomorphism(rng):
    """For polynomials f, g and a = x·x* with ‖a‖ < 1, each read off
    `linalg.svd` of x: f(a)·g(a) = (fg)(a), and f(a) is the polynomial in a
    built from the algebra's own products."""
    shape = rng.choice(SHAPES)
    x = generate.rand_algebra_element(rng, shape)
    x = x * (1.0 / (1.0 + x.norm()))
    svds = [linalg.svd(b) for b in x.blocks]
    a = x * x.adjoint()
    f = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
    g = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
    fg = np.polynomial.polynomial.polymul(f, g)
    fa, ga, fga = (_spectral(shape, svds, lambda t, p=p: np.polynomial.polynomial.polyval(t, p)) for p in (f, g, fg))
    horner = AlgebraElement.zeros(shape)
    for coeff in reversed(f):
        horner = horner * a + coeff * AlgebraElement.identity(shape)
    return (fa * ga).distance(fga) <= 1e-9 and fa.distance(horner) <= 1e-9


@_property("algebra.monotone_convergence")
def prop_monotone_convergence(rng):
    """closed_subideal's p = χ_(eps,∞)(a) is the increasing limit of the lower
    approximants g_n(a) at the witness's own eps, g_n(t) = min(1, n(t − eps))
    above eps and 0 below, each read off `linalg.svd` of x."""
    shape = rng.choice(SHAPES)
    x = generate.rand_algebra_element(rng, shape)
    if rng.randint(0, 1):
        x = generate.rand_projection(rng, shape) * x  # rank-deficient inputs too
    try:
        w = algebra.closed_subideal(x)
    except (ZeroInput, EigenvalueAtThreshold):
        return True
    svds = [linalg.svd(b) for b in x.blocks]
    if min(np.min(np.abs(s * s - w.eps)) for _, s, _ in svds) <= 1e-6:
        return True  # g_n(a) reaches p only past n = 1e6

    def g(n):
        return lambda t: np.clip(n * (t - w.eps), 0.0, 1.0)

    prev_dist = np.inf
    for n in range(1, 21):
        if n > 1 and any(np.any(g(n)(s * s) < g(n - 1)(s * s) - 1e-12) for _, s, _ in svds):
            return False  # g_n(a) − g_{n−1}(a) = U·diag(g_n(σ²) − g_{n−1}(σ²))·U* is not PSD
        dist = (w.p - _spectral(shape, svds, g(n))).norm()
        if dist > prev_dist + 1e-12:
            return False
        prev_dist = dist
    return (w.p - _spectral(shape, svds, g(10 ** 6))).norm() <= 1e-5


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
    """`ideal_support_projection` recovers p from the generators p·E_rr over
    the diagonal matrix units, each of smaller range than p."""
    shape = rng.choice(SHAPES)
    p = generate.rand_projection(rng, shape)
    units = []
    for b, n in enumerate(shape.block_dims):
        for r in range(n):
            blocks = [np.zeros((m, m)) for m in shape.block_dims]
            blocks[b][r, r] = 1.0
            units.append(AlgebraElement(shape, tuple(blocks)))
    back = algebra.ideal_support_projection([p * e for e in units])
    return back.support_projection.distance(p) <= 1e-8


@_property("algebra.essentiality_oracle")
def prop_essentiality_oracle(rng):
    """`is_essential_right_ideal` against random rank-one ideals: v lies
    outside range(p_b) when the rank of [p_b, v] exceeds that of p_b."""
    shape = rng.choice(SHAPES)
    p = AlgebraElement.identity(shape) if rng.randint(0, 3) == 0 else generate.rand_projection(rng, shape)
    ideal = algebra.RightIdeal(p)
    decision, _ = algebra.is_essential_right_ideal(ideal)
    falsified = False
    for b, n in enumerate(shape.block_dims):
        rank = linalg.matrix_rank(p.blocks[b])
        for _ in range(8):
            v = generate.rand_matrix(rng, n, 1)
            if linalg.op_norm(v) < 1e-6:
                continue
            if linalg.matrix_rank(np.hstack([p.blocks[b], v])) > rank:
                falsified = True
    return decision == (not falsified)


# --- Hilbert module layer ---------------------------------------------------------

def _rand_module_setup(rng):
    shape = rng.choice(SHAPES[:2])
    k = rng.randint(1, 3)
    return shape, k


@_property("module.theta_apply")
def prop_theta_apply(rng):
    """θ_{x,y}(z) = x·⟨y, z⟩, read off the algebra product: θ_{x,y}·θ_{z,e₁}
    is θ_{θ_{x,y}(z),e₁}, whose first block columns are the stacked blocks
    of θ_{x,y}(z), as θ_{w,e₁} = W_b·E_b* puts W_b there."""
    shape, k = _rand_module_setup(rng)
    x = generate.rand_module_element(rng, shape, k)
    y = generate.rand_module_element(rng, shape, k)
    z = generate.rand_module_element(rng, shape, k)
    prod = modules.theta(x, y) * modules.theta(z, modules.module_basis(shape, k)[0])
    lhs = ModuleElement(shape, k, tuple(t_b[:, :n] for t_b, n in zip(prod.blocks, shape.block_dims)))
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
    """`submodule_of_ideal` inverts `ideal_of_submodule`: the support
    projections of the ideal and of the round trip's ideal agree within
    ACCEPT_TOL; the two essentiality deciders agree, and the reformulation
    probe confirms the decision."""
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
    if modules.ideal_of_submodule(back).support_projection.distance(ideal.support_projection) > linalg.ACCEPT_TOL:
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
    return cert.verified


@_property("module.intertwine")
def prop_intertwine(rng):
    """T·θ_{u,Tu} = θ_{Tu,Tu} in the algebra product, for Tu = T_b·U_b per block."""
    shape, k = _rand_module_setup(rng)
    m = generate.rand_module_element(rng, shape, k)
    a = generate.rand_algebra_element(rng, shape)
    rows = [[generate.rand_algebra_element(rng, shape) for _ in range(k)] for _ in range(k)]
    T = AlgebraElement(modules.operator_shape(shape, k), tuple(
        np.block([[e.blocks[b] for e in row] for row in rows]) for b in range(shape.num_blocks)
    ))
    u = m * a
    tu = ModuleElement(shape, k, tuple(t_b @ u_b for t_b, u_b in zip(T.blocks, u.blocks)))
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
    pts = [Fraction(rng.randint(0, 32), 32) for _ in range(rng.randint(0, 2))]
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
    if not s.interior().difference(s).is_empty() or not s.difference(s.closure()).is_empty():
        return False
    if s.closure().closure() != s.closure():
        return False
    if s.interior().interior() != s.interior():
        return False
    u = SymbolicSubset.interval(0, 1)
    if u.difference(u.difference(s)) != s:
        return False
    # the two nowhere-density routes agree
    return s.is_nowhere_dense() == s.closure().interior().is_empty()


def _planted_spec(rng, defect: str) -> fields.FieldModuleSpec:
    d = rng.randint(1, 3)
    return generate.planted_field(
        d=d,
        pieces=rng.randint(2, 6),
        n_generators=rng.randint(d, d + 2),
        defect=defect,
        seed=rng.next_u64(),
    )


def _rand_linear(rng) -> list:
    """The dyadic (re, im) coefficients of a polynomial of degree ≤ 1."""
    return [(rng.dyadic(3, 1), rng.dyadic(3, 1)) for _ in range(2)]


def _rand_combination(rng, spec) -> PiecewiseSection:
    m = PiecewiseSection.zero(spec.d)
    for g in spec.generators:
        m = m + g.mul_scalar_section(PiecewiseSection.polynomial([_rand_linear(rng)]))
    return m


@_property("fields.residual_subset_total")
def prop_residual_subset_total(rng):
    """Residual sets lie inside the total defect set. A random combination
    of the generators mostly has the whole total as its residual set; the
    first generator times the bump on (1/4, 3/4) vanishes on part of the
    total, so there the inclusion is strict and its direction shows."""
    defect_kind = ("none", "points", "interval")[rng.randint(0, 2)]
    spec = _planted_spec(rng.spawn(1), defect_kind)
    total = fields.analyze_field(spec).total
    m = _rand_combination(rng, spec)
    bumped = spec.generators[0].mul_scalar_section(sections.bump(Fraction(1, 4), Fraction(3, 4)))
    return all(fields.residual_set(s, spec.subfield).difference(total).is_empty() for s in (m, bumped))


@_property("fields.criterion_coherence")
def prop_criterion_coherence(rng):
    """The planted defect decides. A non-essential spec gets the witnesses
    `essmod witness` reports, held to the report's rule."""
    planted = ("none", "points", "interval")[rng.randint(0, 2)]
    spec = _planted_spec(rng.spawn(2), planted)
    decision = fields.is_essential_field(spec)
    if decision.essential != (planted != "interval"):
        return False
    if decision.essential:
        for _ in range(3):
            m = _rand_combination(rng, spec)
            if m.is_zero():
                continue
            w = fields.essential_witness(m, spec.subfield, fields.residual_set(m, spec.subfield))
            if not w.verified:
                return False
        return True
    w = fields.non_essential_witnesses(spec, decision.analysis, 4)
    return w.verified and not fields.residual_set(w.inductive.m, spec.subfield).is_nowhere_dense()


@_property("fields.inductive_postcondition")
def prop_inductive_postcondition(rng):
    spec = _planted_spec(rng.spawn(3), "interval")
    total = fields.analyze_field(spec).total
    count = rng.randint(2, 6)
    return fields.inductive_witness_section(spec, *fields.witness_samples(total, count), total).verified


@_property("fields.term_norm_bound")
def prop_term_norm_bound(rng):
    """Over the sup-normalized constant generators, the inductive witness's
    term j, λ_j·g·a_j = m_j − m_{j−1} for the witnesses on the first j and
    j − 1 samples, has sup norm at most 2^-j: it vanishes off
    (x_j − r_j, x_j + r_j), r_j half the distance from x_j to the nearest
    earlier sample or end, and at x_j, where a_j peaks, each coordinate has
    modulus at most 2^-j."""
    spec = _planted_spec(rng, "interval")
    consts = tuple(
        g for g in spec.generators
        if all(len(cols) == 1 for _, cols in g.pieces)
    )
    spec = fields.FieldModuleSpec(spec.d, consts, spec.subfield)
    total = fields.analyze_field(spec).total
    interval, xs = fields.witness_samples(total, 3)
    prev = PiecewiseSection.zero(spec.d)
    for j, x in enumerate(xs, start=1):
        m = fields.inductive_witness_section(spec, interval, xs[:j], total).m
        term, prev = m - prev, m
        r = min([abs(x - y) for y in xs[:j - 1]] + [x, 1 - x]) / 2
        if not fields.support_set(term).difference(SymbolicSubset.interval(x - r, x + r, False, False)).is_empty():
            return False
        den, cols = term.pieces[term.piece_index_for_interval(x)]
        scale = den * x.denominator ** (len(cols) - 1)  # _scaled_value(cols, x) is scale·term(x)
        if any((p * p + q * q) << (2 * j) > scale * scale for p, q in sections._scaled_value(cols, x)):
            return False
    return True


@_property("fields.commutative_identity")
def prop_commutative_identity(rng):
    d = rng.randint(1, 3)
    m = PiecewiseSection.polynomial([_rand_linear(rng) for _ in range(d)])
    c = PiecewiseSection.polynomial([_rand_linear(rng)])
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
    base = generate.SplitMix64(seed)
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
