"""Seeded property suite behind `essmod suite`.

Each property draws `trials` random instances from its own deterministic
substream and checks one contract of the library. Functions under test are
resolved through their modules at call time, so a patched (fault-injected)
build fails exactly the properties that exercise the faulty piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra, fields, generate, linalg, modules, sections, serialize, subsets
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


# --- numeric kernel ---------------------------------------------------------

def prop_eig_reconstruction(rng, trials):
    def body(rng):
        n = rng.randint(1, 6)
        h = generate.rand_matrix(rng, n, n)
        h = (h + h.conj().T) / 2.0
        eigs, u = linalg.herm_eig(h)
        err = linalg.op_norm(u @ np.diag(eigs) @ u.conj().T - h)
        unitary_err = linalg.op_norm(u @ u.conj().T - np.eye(n))
        return err <= 1e-10 * (1 + linalg.op_norm(h)) and unitary_err <= 1e-10
    return _run("numeric.eig_reconstruction", rng, trials, body)


def prop_op_norm(rng, trials):
    def body(rng):
        a = generate.rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = generate.rand_matrix(rng, a.shape[1], rng.randint(1, 5))
        if linalg.op_norm(a @ b) > linalg.op_norm(a) * linalg.op_norm(b) + 1e-10:
            return False
        if abs(linalg.op_norm(a.conj().T) - linalg.op_norm(a)) > 1e-10:
            return False
        gram = linalg.op_norm(a.conj().T @ a)
        return abs(gram - linalg.op_norm(a) ** 2) <= 1e-10 * (1 + gram)
    return _run("numeric.op_norm", rng, trials, body)


def prop_psd_two_sided(rng, trials):
    def body(rng):
        n = rng.randint(1, 5)
        h = generate.rand_matrix(rng, n, n)
        h = (h + h.conj().T) / 2.0
        tol = 1e-10
        scale = tol * rng.randint(0, 3) / 2.0
        tiny = h * (scale / (1 + linalg.op_norm(h)))
        if linalg.is_psd(tiny, tol) and linalg.is_psd(-tiny, tol):
            return linalg.op_norm(tiny) <= 2 * tol
        return True
    return _run("numeric.psd_two_sided", rng, trials, body)


# --- C*-algebra layer ----------------------------------------------------------

def _poly_fn(coeffs):
    def f(t):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc
    return f


def prop_calculus_homomorphism(rng, trials):
    def body(rng):
        shape = rng.choice(SHAPES)
        a = generate.rand_hermitian(rng, shape)
        a = a * (1.0 / (1.0 + a.norm()))
        f = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
        g = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
        fg = np.polynomial.polynomial.polymul(f, g) if f and g else [0.0]
        lhs = algebra.calculus(a, _poly_fn(list(fg)))
        rhs = algebra.calculus(a, _poly_fn(f)) * algebra.calculus(a, _poly_fn(g))
        return lhs.distance(rhs) <= 1e-9
    return _run("algebra.calculus_homomorphism", rng, trials, body)


def prop_monotone_convergence(rng, trials):
    def body(rng):
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
    return _run("algebra.monotone_convergence", rng, trials, body)


def prop_subideal_pipeline(rng, trials):
    def body(rng):
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
    return _run("algebra.subideal_pipeline", rng, trials, body)


def prop_ideal_roundtrip(rng, trials):
    def body(rng):
        shape = rng.choice(SHAPES)
        p = generate.rand_projection(rng, shape)
        ideal = algebra.ideal_from_projection(p)
        back = algebra.ideal_support_projection(ideal.spanning_set())
        return back.support_projection.distance(p) <= 1e-8
    return _run("algebra.ideal_roundtrip", rng, trials, body)


def prop_essentiality_oracle(rng, trials):
    def body(rng):
        shape = rng.choice(SHAPES)
        p = AlgebraElement.identity(shape) if rng.randint(0, 3) == 0 else generate.rand_projection(rng, shape)
        ideal = algebra.ideal_from_projection(p)
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
    return _run("algebra.essentiality_oracle", rng, trials, body)


# --- Hilbert module layer ---------------------------------------------------------

def _rand_module_setup(rng):
    shape = rng.choice(SHAPES[:2])
    k = rng.randint(1, 3)
    return shape, k


def prop_theta_apply(rng, trials):
    def body(rng):
        shape, k = _rand_module_setup(rng)
        x = generate.rand_module_element(rng, shape, k)
        y = generate.rand_module_element(rng, shape, k)
        z = generate.rand_module_element(rng, shape, k)
        lhs = modules.apply(modules.theta(x, y), z)
        rhs = x * modules.inner_product(y, z)
        return (lhs - rhs).norm() <= 1e-10 * (1 + x.norm() * y.norm() * z.norm())
    return _run("module.theta_apply", rng, trials, body)


def prop_theta_nondegenerate(rng, trials):
    def body(rng):
        shape, k = _rand_module_setup(rng)
        x = generate.rand_module_element(rng, shape, k)
        if x.norm() < 1e-6:
            return True
        x = (1.0 / x.norm()) * x
        return modules.theta(x, x).norm() >= 1e-8
    return _run("module.theta_nondegenerate", rng, trials, body)


def prop_theta_norm_bound(rng, trials):
    def body(rng):
        shape, k = _rand_module_setup(rng)
        x = generate.rand_module_element(rng, shape, k)
        y = generate.rand_module_element(rng, shape, k)
        xp = generate.rand_module_element(rng, shape, k)
        yp = generate.rand_module_element(rng, shape, k)
        lhs = (modules.theta(x, y) - modules.theta(xp, yp)).norm()
        bound = x.norm() * (y - yp).norm() + (x - xp).norm() * yp.norm()
        return lhs <= bound + 1e-9
    return _run("module.theta_norm_bound", rng, trials, body)


def prop_correspondence(rng, trials):
    def body(rng):
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
                if not modules.reformulation_probe(m, n).found:
                    return False
            return True
        return cert.witness_probe_found is False
    return _run("module.correspondence", rng, trials, body)


def prop_intertwine(rng, trials):
    def body(rng):
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
    return _run("module.intertwine", rng, trials, body)


def prop_left_module_identity(rng, trials):
    def body(rng):
        shape, k = _rand_module_setup(rng)
        x, y, u, v = (generate.rand_module_element(rng, shape, k) for _ in range(4))
        lhs = modules.theta(x, y) * modules.theta(u, v)
        rhs = modules.theta(x * modules.inner_product(y, u), v)
        return (lhs - rhs).norm() <= 1e-8 * (1 + lhs.norm() + rhs.norm())
    return _run("module.left_module_identity", rng, trials, body)


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


def prop_set_algebra(rng, trials):
    def body(rng):
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
    return _run("fields.set_algebra", rng, trials, body)


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


def prop_residual_subset_total(rng, trials):
    def body(rng):
        defect_kind = ("none", "points", "interval")[rng.randint(0, 2)]
        spec, _ = _planted_spec(rng.spawn(1), defect_kind)
        total = fields.analyze_field(spec).total
        m = _rand_combination(rng, spec)
        if m.is_zero():
            return True
        return fields.residual_set(m, spec.subfield).is_subset_of(total)
    return _run("fields.residual_subset_total", rng, trials, body)


def prop_criterion_coherence(rng, trials):
    def body(rng):
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
        total = decision.analysis.total
        iv = max(total.closure().interior().intervals, key=lambda i: i.hi - i.lo)
        span = iv.hi - iv.lo
        xs = sorted({iv.lo + span * Fraction(i, 8) for i in range(1, 5)})
        witness = fields.inductive_witness_section(spec, (iv.lo, iv.hi), xs, total)
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
    return _run("fields.criterion_coherence", rng, trials, body)


def prop_inductive_postcondition(rng, trials):
    def body(rng):
        spec, _ = _planted_spec(rng.spawn(3), "interval")
        total = fields.is_essential_field(spec).analysis.total
        iv = max(total.closure().interior().intervals, key=lambda i: i.hi - i.lo)
        span = iv.hi - iv.lo
        count = rng.randint(2, 6)
        xs = sorted({iv.lo + span * Fraction(i, count + 1) for i in range(1, count + 1)})
        w = fields.inductive_witness_section(spec, (iv.lo, iv.hi), xs, total)
        return w.verified
    return _run("fields.inductive_postcondition", rng, trials, body)


def prop_term_norm_bound(rng, trials):
    def body(rng):
        spec, _ = _planted_spec(rng.spawn(4), "interval")
        # restrict to the sup-normalized constant generators
        consts = tuple(
            g for g in spec.generators
            if all(p.degree <= 0 for row in g.pieces for p in row)
        )
        spec = fields.FieldModuleSpec(spec.d, consts, spec.subfield)
        total = fields.is_essential_field(spec).analysis.total
        iv = max(total.closure().interior().intervals, key=lambda i: i.hi - i.lo)
        span = iv.hi - iv.lo
        xs = sorted({iv.lo + span * Fraction(i, 5) for i in range(1, 4)})
        w = fields.inductive_witness_section(spec, (iv.lo, iv.hi), xs, total)
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
    return _run("fields.term_norm_bound", rng, trials, body)


def prop_commutative_identity(rng, trials):
    def body(rng):
        d = rng.randint(1, 3)
        m_coeffs = [_rand_linear(rng) for _ in range(d)]
        m = PiecewiseSection(d, (Fraction(0), Fraction(1)), (tuple(m_coeffs),))
        c = PiecewiseSection.scalar_poly(_rand_linear(rng))
        n = m.mul_scalar_section(c)
        return fields.commutative_limit_identity(m, n)
    return _run("fields.commutative_identity", rng, trials, body)


# --- CLI / harness contracts --------------------------------------------------------

def prop_gen_determinism(rng, trials):
    def body(rng):
        seed = rng.next_u64() % (1 << 32)
        a = serialize.canonical_json(generate.gen_right_ideal((2,), seed))
        b = serialize.canonical_json(generate.gen_right_ideal((2,), seed))
        c = serialize.canonical_json(generate.gen_field(2, 3, 2, "interval", seed))
        d = serialize.canonical_json(generate.gen_field(2, 3, 2, "interval", seed))
        return a == b and c == d
    return _run("cli.gen_determinism", rng, trials, body)


def prop_gen_check_roundtrip(rng, trials):
    from . import runner

    def body(rng):
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
    return _run("cli.gen_check_roundtrip", rng, trials, body)


PROPERTIES = [
    prop_eig_reconstruction,
    prop_op_norm,
    prop_psd_two_sided,
    prop_calculus_homomorphism,
    prop_monotone_convergence,
    prop_subideal_pipeline,
    prop_ideal_roundtrip,
    prop_essentiality_oracle,
    prop_theta_apply,
    prop_theta_nondegenerate,
    prop_theta_norm_bound,
    prop_correspondence,
    prop_intertwine,
    prop_left_module_identity,
    prop_set_algebra,
    prop_residual_subset_total,
    prop_criterion_coherence,
    prop_inductive_postcondition,
    prop_term_norm_bound,
    prop_commutative_identity,
    prop_gen_determinism,
    prop_gen_check_roundtrip,
]


def run_suite(seed: int, trials: int) -> dict:
    """Run every property with its own substream; report sorted by name,
    with the timings, total and per property, outside the digest."""
    import time

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
        "properties": [
            {
                "name": r.name,
                "passed": r.passed,
                "trials": r.trials,
                "failures": r.failures,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    report["digest"] = serialize.digest(report)
    report["timing_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    report["property_timing_ms"] = dict(sorted(timing.items()))
    return report
