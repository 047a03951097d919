"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Tolerances are pinned here and nowhere else."""

import time
from fractions import Fraction as F

import numpy as np
import projector_oracle
from field_docs import subset_from_json
from float_oracle import lower_approximants, same_span

from essmod import linalg, properties, runner, serialize
from essmod.algebra import AlgebraShape, closed_subideal, is_essential_right_ideal
from essmod.errors import EigenvalueAtThreshold, ZeroInput
from essmod.fields import (
    commutative_limit_identity,
    essential_witness,
    residual_set,
)
from essmod.generate import (
    SplitMix64,
    gen_field,
    rand_algebra_element,
    rand_module_element,
    rand_projection,
)
from essmod.modules import (
    Submodule,
    ideal_of_submodule,
    is_essential_submodule,
    module_basis,
    submodule_of_ideal,
    theta,
)
from essmod.sections import PiecewiseSection

HERMITIAN_SHAPES = [
    AlgebraShape((6,)),
    AlgebraShape((3, 3)),
    AlgebraShape((4, 2)),
    AlgebraShape((2, 2, 2)),
    AlgebraShape((5,)),
]
MODULE_SHAPES = [AlgebraShape((1,)), AlgebraShape((2,)), AlgebraShape((1, 2))]


def report(num, name, t0, extra=""):
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} {name}: PASS ({dt:.2f}s{', ' + extra if extra else ''})")
    return dt


def test_criterion_1_spectral_approximation():
    """The witness's p = χ_(eps,∞)(a), a = x·x*, is the increasing limit of
    the lower approximants g_n(a), each from an independent eigh of a."""
    rng = SplitMix64(2026)
    t0 = time.perf_counter()
    accepted = 0
    skipped = 0
    i = 0
    while accepted < 100:
        shape = HERMITIAN_SHAPES[i % len(HERMITIAN_SHAPES)]
        i += 1
        x = rand_algebra_element(rng, shape)
        if rng.randint(0, 1):
            x = rand_projection(rng, shape) * x
        try:
            w = closed_subideal(x)
        except (ZeroInput, EigenvalueAtThreshold):
            skipped += 1
            continue
        eigs = np.concatenate([np.linalg.eigvalsh(b) for b in w.a.blocks])
        if np.min(np.abs(eigs - w.eps)) <= 1e-6:
            skipped += 1
            continue
        accepted += 1
        prev = None
        for n in range(1, 51):
            g_n = lower_approximants(w.a, w.eps, n)
            if prev is not None:
                diff = g_n - prev
                assert all(np.linalg.eigvalsh(b)[0] >= -1e-12 for b in diff.blocks), f"monotone fails at n={n}"
            prev = g_n
        far = lower_approximants(w.a, w.eps, 10 ** 6)
        assert (far - w.p).norm() <= 1e-5
    dt = report(1, "spectral-approximation", t0, f"100 instances, {skipped} filtered")
    assert dt < 5.0


def test_criterion_2_subideal_construction():
    rng = SplitMix64(2027)
    t0 = time.perf_counter()
    done = 0
    while done < 100:
        shape = HERMITIAN_SHAPES[done % len(HERMITIAN_SHAPES)]
        x = rand_algebra_element(rng, shape)
        if rng.randint(0, 2) == 0:
            x = rand_projection(rng, shape) * x
        if x.is_zero(1e-8):
            continue
        done += 1
        w = closed_subideal(x)
        assert not w.p.is_zero(1e-9), "K must be nonzero"
        assert w.fa_p_error <= 1e-9
        assert all(e <= 1e-8 for e in w.probe_errors)
        rank_oracle = sum(linalg.matrix_rank(b) for b in x.blocks)
        assert w.ideal.rank() == rank_oracle
    dt = report(2, "subideal-construction", t0, "100 instances")
    assert dt < 5.0


def test_criterion_3_theta_calculus():
    rng = SplitMix64(2028)
    t0 = time.perf_counter()
    for _ in range(1000):
        shape = MODULE_SHAPES[rng.randint(0, 2)]
        k = rng.randint(1, 3)
        x, y, xp, yp = (rand_module_element(rng, shape, k) for _ in range(4))
        lhs = (theta(x, y) - theta(xp, yp)).norm()
        assert lhs <= x.norm() * (y - yp).norm() + (x - xp).norm() * yp.norm() + 1e-9
    done = 0
    while done < 100:
        shape = MODULE_SHAPES[done % 3]
        x = rand_module_element(rng, shape, 2)
        if x.norm() < 1e-6:
            continue
        done += 1
        x = (1.0 / x.norm()) * x
        assert theta(x, x).norm() >= 1e-8
    report(3, "theta-calculus", t0, "1000 + 100 instances")


def test_criterion_4_correspondence():
    rng = SplitMix64(2029)
    t0 = time.perf_counter()
    for trial in range(500):
        shape = MODULE_SHAPES[rng.randint(0, 2)]
        k = rng.randint(1, 4)
        if rng.randint(0, 2) == 0:
            gens = tuple(module_basis(shape, k))
        else:
            gens = tuple(
                rand_module_element(rng, shape, k) for _ in range(rng.randint(1, 2))
            )
        n = Submodule(shape, k, gens)
        ideal = ideal_of_submodule(n)
        back = submodule_of_ideal(ideal, shape, k)
        assert same_span(back, n), f"roundtrip fails at trial {trial}"
        dec_mod, _ = is_essential_submodule(n)
        dec_ideal, _ = is_essential_right_ideal(ideal)
        assert dec_mod == dec_ideal, f"correspondence fails at trial {trial}"
    dt = report(4, "submodule-ideal-correspondence", t0, "500 instances")
    assert dt < 30.0


def _planted_field_docs():
    docs = []
    for seed in range(25):
        docs.append((gen_field(2 + seed % 3, 4, 2 + seed % 3, "points", 3000 + seed), True))
        docs.append((gen_field(2 + seed % 3, 4, 2 + seed % 3, "interval", 4000 + seed), False))
    return docs


def _planted_defect_union(payload):
    regions = [subset_from_json(p) for p in payload["partition"]]
    bases = payload["subspace_bases"]
    d = payload["d"]
    from essmod.serialize import _basis_from_json
    from essmod.subsets import SymbolicSubset

    acc = SymbolicSubset()
    for region, basis_doc in zip(regions, bases):
        basis = _basis_from_json(basis_doc, d)
        if not basis or projector_oracle.mat_rank(projector_oracle.matrix_of(basis, d)) < d:
            acc = acc.union(region)
    return acc


def test_criterion_5_field_criterion():
    t0 = time.perf_counter()
    docs = _planted_field_docs()
    assert len(docs) == 50
    for doc, expected in docs:
        rep = runner.run_check(doc)
        assert rep["decision"] == expected, f"seed {doc['seed']}"
        planted = _planted_defect_union(doc["payload"])
        assert subset_from_json(rep["defect_set"]) == planted
    dt = report(5, "field-criterion", t0, "50 planted instances, Y exact")
    assert dt < 60.0


def test_criterion_6_witness_soundness():
    t0 = time.perf_counter()
    for doc, expected in _planted_field_docs():
        spec = serialize.field_spec_from_json(doc["payload"])
        if expected:
            m = spec.generators[0]
            w = essential_witness(m, spec.subfield, residual_set(m, spec.subfield))
            assert residual_set(w.ma, spec.subfield).is_empty()
            assert not w.ma.is_zero()
        else:
            rep = runner.run_witness(doc, samples=8)
            w = rep["witness"]
            assert w["kind"] == "non_essential"
            assert w["inductive"]["sample_defects_verified"]
            lambdas = [F(l) for l in w["inductive"]["lambdas"]]
            assert len(lambdas) == 8
            assert all(F(0) < lam <= F(1, 2 ** j) for j, lam in enumerate(lambdas, 1))
            spec2 = serialize.field_spec_from_json(doc["payload"])
            m = serialize.section_from_json(w["inductive"]["m"])
            for x in (F(s) for s in w["samples"]):
                assert projector_oracle.outside_at(spec2.subfield, x, projector_oracle.value_at(m, x))
            # direct witness with the exact closure equality
            assert w["direct"] is not None and w["direct"]["closure_equal"]
    report(6, "witness-soundness", t0, "50 instances, exact checks")


def test_criterion_7_commutative_identity():
    rng = SplitMix64(2030)
    t0 = time.perf_counter()
    for _ in range(100):
        d = rng.randint(1, 3)
        m = PiecewiseSection.polynomial([[(rng.dyadic(3, 1), rng.dyadic(3, 1)) for _ in range(3)] for _ in range(d)])
        c = PiecewiseSection.polynomial([[(rng.dyadic(3, 1), rng.dyadic(3, 1)) for _ in range(2)]])
        n = m.mul_scalar_section(c)
        assert commutative_limit_identity(m, n)
    report(7, "commutative-identity", t0, "100 instances, exact")


def test_criterion_8_suite_determinism():
    t0 = time.perf_counter()
    a = properties.run_suite(42, 2)
    b = properties.run_suite(42, 2)
    assert a["digest"] == b["digest"]
    assert a["passed"] and b["passed"]
    report(8, "suite-determinism", t0, f"digest {a['digest'][:12]}")
