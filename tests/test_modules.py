import numpy as np
import pytest

from essmod import linalg, runner, serialize
from essmod.algebra import AlgebraElement, AlgebraShape, is_essential_right_ideal
from essmod.errors import ShapeMismatch, ZeroInput
from essmod.generate import (
    SplitMix64,
    gen_module_submodule,
    rand_algebra_element,
    rand_module_element,
    rand_projection,
)
from essmod.linalg import DEFAULT_TOL
from float_oracle import in_ideal, matrix_unit, matrix_units, same_span
from essmod.modules import (
    ModuleElement,
    Submodule,
    ideal_of_submodule,
    inner_product,
    is_essential_submodule,
    module_basis,
    operator_shape,
    reformulation_probe,
    submodule_of_ideal,
    theta,
)

C = AlgebraShape((1,))
M2 = AlgebraShape((2,))
MIXED = AlgebraShape((1, 2))


def scalar(z, shape=C):
    return AlgebraElement(shape, (np.array([[z]], dtype=complex),))


def scalar_module(*zs):
    return ModuleElement.from_coords([scalar(z) for z in zs])


def amplified_scalars(rows):
    """The operator in M_k(C) with the given scalar entries."""
    return AlgebraElement(operator_shape(C, len(rows)), (np.array(rows, dtype=complex),))


# --- the k×k grid oracle ------------------------------------------------------
#
# A compact operator as a k×k grid over A with the grid's own arithmetic, and
# a module element as its k coordinates: the representation the library no
# longer keeps. theta and the amplified product are checked against it, and
# an operator acts on a module element through it.

def coords(x: ModuleElement) -> list[AlgebraElement]:
    return [
        AlgebraElement(x.shape, tuple(blk[i * n:(i + 1) * n] for blk, n in zip(x.blocks, x.shape.block_dims)))
        for i in range(x.k)
    ]


def grid_of(t: AlgebraElement, shape, k) -> list[list[AlgebraElement]]:
    dims = shape.block_dims
    return [
        [AlgebraElement(shape, tuple(t_b[i * n:(i + 1) * n, j * n:(j + 1) * n] for t_b, n in zip(t.blocks, dims)))
         for j in range(k)]
        for i in range(k)
    ]


def amplified(grid, shape) -> AlgebraElement:
    k = len(grid)
    return AlgebraElement(operator_shape(shape, k), tuple(
        np.block([[e.blocks[b] for e in row] for row in grid]) for b in range(shape.num_blocks)
    ))


def grid_sum(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def grid_theta(x, y):
    return [[xi * yj.adjoint() for yj in coords(y)] for xi in coords(x)]


def grid_apply(grid, z):
    zs = coords(z)
    return ModuleElement.from_coords([grid_sum([g * zj for g, zj in zip(row, zs)]) for row in grid])


def operator_apply(t: AlgebraElement, z: ModuleElement) -> ModuleElement:
    """The compact operator t ∈ M_k(A) applied to z, through its k×k grid."""
    return grid_apply(grid_of(t, z.shape, z.k), z)


def grid_compose(g, h):
    k = len(g)
    return [[grid_sum([g[i][l] * h[l][j] for l in range(k)]) for j in range(k)] for i in range(k)]


def grid_distance(g, h):
    return max(a.distance(b) for row_g, row_h in zip(g, h) for a, b in zip(row_g, row_h))


def rand_operator(rng, shape, k):
    return amplified([[rand_algebra_element(rng, shape) for _ in range(k)] for _ in range(k)], shape)


# --- inner product ---------------------------------------------------------

def test_inner_product_scalars():
    x, y = scalar_module(2.0), scalar_module(3.0)
    assert inner_product(x, y).blocks[0][0, 0] == pytest.approx(6.0)
    # conjugate linearity in the first slot
    xi = scalar_module(2j)
    assert inner_product(xi, y).blocks[0][0, 0] == pytest.approx(-6j)


def test_inner_product_of_zero():
    z = ModuleElement.from_coords([AlgebraElement.zeros(MIXED)] * 3)
    assert inner_product(z, z).is_zero()


def test_inner_product_hermitian_symmetry_and_positivity():
    rng = SplitMix64(21)
    for _ in range(10):
        x = rand_module_element(rng, MIXED, 2)
        y = rand_module_element(rng, MIXED, 2)
        assert inner_product(x, y).adjoint().distance(inner_product(y, x)) <= 1e-10
        gram = inner_product(x, x)
        assert all(linalg.herm_eig(b)[0][0] >= -DEFAULT_TOL for b in gram.blocks)
        if not x.is_zero(1e-8):
            assert not gram.is_zero(1e-12)


def test_inner_product_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        inner_product(scalar_module(1.0), scalar_module(1.0, 2.0))


def test_one_checking_constructor_for_both_kinds():
    """Algebra and module elements share one checking constructor: it
    freezes a copy of each block and refuses a wrong block count, a block
    that is not k·n_b × n_b and a rank below 1."""
    a = AlgebraElement(MIXED, (np.eye(1), np.eye(2)))
    x = ModuleElement(MIXED, 2, (np.ones((2, 1)), np.ones((4, 2))))
    assert all(not blk.flags.writeable and blk.dtype == np.complex128 for blk in a.blocks + x.blocks)
    for build in (lambda: AlgebraElement(MIXED, (np.eye(1),)),
                  lambda: AlgebraElement(MIXED, (np.eye(1), np.ones((4, 2)))),
                  lambda: ModuleElement(MIXED, 2, (np.eye(1), np.eye(2))),
                  lambda: ModuleElement(MIXED, 0, (np.zeros((0, 1)), np.zeros((0, 2))))):
        with pytest.raises(ShapeMismatch):
            build()


# --- theta operators ----------------------------------------------------------

def test_theta_scalar_example():
    x, y, z = scalar_module(1.0), scalar_module(2.0), scalar_module(3.0)
    applied = operator_apply(theta(x, y), z)
    assert applied.blocks[0][0, 0] == pytest.approx(6.0)


def test_theta_of_zero_is_zero_operator():
    z = ModuleElement.from_coords([AlgebraElement.zeros(M2)] * 2)
    rng = SplitMix64(22)
    y = rand_module_element(rng, M2, 2)
    assert theta(z, y).norm() <= 1e-12


def test_theta_apply_equals_inner_formula():
    rng = SplitMix64(23)
    for _ in range(20):
        x = rand_module_element(rng, MIXED, 3)
        y = rand_module_element(rng, MIXED, 3)
        z = rand_module_element(rng, MIXED, 3)
        lhs = operator_apply(theta(x, y), z)
        rhs = x * inner_product(y, z)
        assert (lhs - rhs).norm() <= 1e-10 * (1 + x.norm() * y.norm() * z.norm())


def test_theta_joint_continuity_bound():
    rng = SplitMix64(24)
    for _ in range(50):
        x, y, xp, yp = (rand_module_element(rng, M2, 2) for _ in range(4))
        lhs = (theta(x, y) - theta(xp, yp)).norm()
        assert lhs <= x.norm() * (y - yp).norm() + (x - xp).norm() * yp.norm() + 1e-9


def test_theta_nondegenerate_on_unit_vectors():
    rng = SplitMix64(25)
    for _ in range(20):
        x = rand_module_element(rng, MIXED, 2)
        if x.norm() < 1e-6:
            continue
        x = (1.0 / x.norm()) * x
        assert theta(x, x).norm() >= 1e-8


def test_theta_intertwine_identity():
    rng = SplitMix64(26)
    for _ in range(10):
        m = rand_module_element(rng, M2, 2)
        a = rand_algebra_element(rng, M2)
        T = rand_operator(rng, M2, 2)
        u = m * a
        tu = operator_apply(T, u)
        lhs = T * theta(u, tu)
        rhs = theta(tu, tu)
        assert (lhs - rhs).norm() <= 1e-8 * (1 + lhs.norm() + rhs.norm())


def test_theta_left_module_identity():
    rng = SplitMix64(27)
    for _ in range(10):
        x, y, u, v = (rand_module_element(rng, MIXED, 2) for _ in range(4))
        lhs = theta(x, y) * theta(u, v)
        rhs = theta(x * inner_product(y, u), v)
        assert (lhs - rhs).norm() <= 1e-8 * (1 + lhs.norm() + rhs.norm())


def test_compact_operator_composition_associative():
    rng = SplitMix64(31)
    t, s, r = (rand_operator(rng, M2, 2) for _ in range(3))
    lhs = (t * s) * r
    rhs = t * (s * r)
    assert (lhs - rhs).norm() <= 1e-9 * (1 + lhs.norm())


def test_compact_operator_algebra_roundtrip():
    """The amplified algebra agrees with the k×k grid over A: a grid survives
    the trip through M_k(A), and theta and the product match the grid's own
    arithmetic."""
    rng = SplitMix64(28)
    for shape in (C, M2, MIXED):
        for k in (1, 2, 3):
            grid = [[rand_algebra_element(rng, shape) for _ in range(k)] for _ in range(k)]
            T = amplified(grid, shape)
            assert T.shape == operator_shape(shape, k)
            assert grid_distance(grid_of(T, shape, k), grid) == 0.0
            x, y = (rand_module_element(rng, shape, k) for _ in range(2))
            th = theta(x, y)
            assert isinstance(th, AlgebraElement) and th.shape == operator_shape(shape, k)
            assert grid_distance(grid_of(th, shape, k), grid_theta(x, y)) <= 1e-12 * (1 + x.norm() * y.norm())
            S = rand_operator(rng, shape, k)
            expected = grid_compose(grid, grid_of(S, shape, k))
            assert grid_distance(grid_of(T * S, shape, k), expected) <= 1e-10 * (1 + T.norm() * S.norm())


def test_stacked_module_elements_match_coordinates():
    """The stacked blocks are the coordinates stacked k high: sums, scaling,
    the right action, the inner product, norm and is_zero agree with the
    coordinatewise formulas."""
    rng = SplitMix64(33)
    for shape in (C, M2, MIXED):
        for k in (1, 2, 3):
            x, y = rand_module_element(rng, shape, k), rand_module_element(rng, shape, k)
            a = rand_algebra_element(rng, shape)
            xs, ys = coords(x), coords(y)
            assert all(np.array_equal(p, q) for p, q in zip(ModuleElement.from_coords(xs).blocks, x.blocks))
            for got, want in ((x + y, [p + q for p, q in zip(xs, ys)]),
                              (x - y, [p - q for p, q in zip(xs, ys)]),
                              (x * a, [p * a for p in xs]),
                              ((2 - 1j) * x, [(2 - 1j) * p for p in xs])):
                assert grid_distance([coords(got)], [want]) <= 1e-12 * (1 + x.norm() * (1 + a.norm()))
            gram = grid_sum([p.adjoint() * q for p, q in zip(xs, ys)])
            assert inner_product(x, y).distance(gram) <= 1e-12 * (1 + x.norm() * y.norm())
            assert x.norm() == pytest.approx(np.sqrt(grid_sum([p.adjoint() * p for p in xs]).norm()), rel=1e-12)
            one = [AlgebraElement.zeros(shape) for _ in range(k)]
            one[k - 1] = matrix_unit(shape, shape.num_blocks - 1, 0, 0)
            assert ModuleElement.from_coords([AlgebraElement.zeros(shape)] * k).is_zero()
            assert not ModuleElement.from_coords(one).is_zero()


def test_operation_results_are_read_only():
    """Sums, products, scalings and adjoints are built unchecked from the
    arrays they compute: each block is read-only and owns its memory, so a
    cached norm cannot go stale."""
    rng = SplitMix64(35)
    a, b = rand_algebra_element(rng, MIXED), rand_algebra_element(rng, MIXED)
    x, y = rand_module_element(rng, MIXED, 2), rand_module_element(rng, MIXED, 2)
    t = theta(x, y)
    results = [a + b, a - b, -a, a * b, a * (2 - 1j), (2 - 1j) * a, a.adjoint(), inner_product(x, y), t,
               x + y, x - y, x * a, x * (2 - 1j), (2 - 1j) * x]
    for r in results:
        assert all(not blk.flags.writeable and blk.base is None for blk in r.blocks)
    adj = a.adjoint()
    norm = adj.norm()
    with pytest.raises(ValueError):
        adj.blocks[1][0, 0] += 1.0
    assert adj.norm() == norm == max(linalg.op_norm(blk) for blk in adj.blocks)


def test_stacking_roundtrips_through_json_bytes():
    """JSON coordinates stacked by from_coords and split again on output
    give back the same bytes."""
    for blocks, k, seed in (((2,), 1, 1), ((1, 2), 3, 3), ((2, 3), 2, 4), ((1, 2, 3), 4, 2)):
        doc = gen_module_submodule(blocks, k, seed)
        for g in doc["payload"]["generators"]:
            back = serialize.module_element_to_json(serialize.module_element_from_json(g))
            assert serialize.dumps(back) == serialize.dumps(g)


# --- flattened oracles ---------------------------------------------------------------
#
# The submodule as one complex subspace of C^{k·dim A}: every product g·E of
# a generator with a matrix unit, flattened, and one SVD of them all. The
# library carries the same span as its block projectors instead.

def module_vec(x: ModuleElement) -> np.ndarray:
    """Flatten to C^{k·dim A} (stacked blocks, row-major)."""
    return np.concatenate([blk.reshape(-1) for blk in x.blocks])


def span_basis_oracle(N: Submodule) -> np.ndarray:
    cols = [module_vec(g * e) for g in N.generators for e in matrix_units(N.shape)]
    if not cols:
        return np.zeros((N.k * sum(n * n for n in N.shape.block_dims), 0), dtype=complex)
    return linalg.orthonormal_column_basis(np.column_stack(cols))


def contains_oracle(N: Submodule, x: ModuleElement) -> bool:
    v, q = module_vec(x), span_basis_oracle(N)
    return bool(np.linalg.norm(v - q @ (q.conj().T @ v)) <= DEFAULT_TOL * (1.0 + np.linalg.norm(v)))


def same_span_oracle(N: Submodule, other: Submodule, tol: float = 1e-8) -> bool:
    q, r = span_basis_oracle(N), span_basis_oracle(other)
    return linalg.op_norm(q @ q.conj().T - r @ r.conj().T) <= tol


def probe_found_oracle(m: ModuleElement, N: Submodule) -> bool:
    """Some a with m·a ∈ N and m·a ≠ 0: the kernel of a ↦ (1 − P)·vec(m·a)
    over the whole matrix-unit basis, and the largest image of a kernel
    basis vector."""
    M = np.column_stack([module_vec(m * e) for e in matrix_units(m.shape)])
    q = span_basis_oracle(N)
    _, s, vh = np.linalg.svd(M - q @ (q.conj().T @ M))
    kernel = vh[int(np.sum(s > DEFAULT_TOL * max(1.0, s[0]))):].conj().T
    if kernel.shape[1] == 0:
        return False
    return bool(np.linalg.norm(M @ kernel, axis=0).max() > DEFAULT_TOL * (1.0 + m.norm()))


def rand_generators(rng, shape, k):
    """Empty, full, random, or rank-deficient generator lists: a dependent
    generator, or all cut down by one projection, which can empty a block."""
    mode = rng.randint(0, 4)
    if mode == 0:
        return ()
    if mode == 1:
        return tuple(module_basis(shape, k))
    gens = [rand_module_element(rng, shape, k) for _ in range(rng.randint(1, 2))]
    if mode == 3:
        gens.append(gens[0] * rand_algebra_element(rng, shape))
    if mode == 4:
        cut = rand_projection(rng, shape)
        gens = [g * cut for g in gens]
    return tuple(gens)


def test_submodule_questions_match_flattened_oracles():
    """Equality by the block projectors (float_oracle.same_span) and the
    reformulation probe, decided on the block projectors, agree with the
    flattened span of all g·E."""
    rng = SplitMix64(32)
    seen = {"same_span": set(), "found": set()}
    for _ in range(120):
        shape = (C, M2, MIXED)[rng.randint(0, 2)]
        k = rng.randint(1, 3)
        gens = rand_generators(rng, shape, k)
        n = Submodule(shape, k, gens)

        if rng.randint(0, 1):
            other = Submodule(shape, k, tuple(g * rand_algebra_element(rng, shape) for g in gens))
        else:
            other = Submodule(shape, k, rand_generators(rng, shape, k))
        assert same_span(n, other) == same_span_oracle(n, other)
        seen["same_span"].add(same_span(n, other))

        dec, cert = is_essential_submodule(n)
        probes = [] if dec else [cert.witness]
        probes.append(rand_module_element(rng, shape, k) * rand_projection(rng, shape))
        for m in probes:
            if m.is_zero():
                continue
            witness = reformulation_probe(m, n)
            assert (witness is not None) == probe_found_oracle(m, n)
            if witness is not None:
                assert contains_oracle(n, m * witness)
                assert not (m * witness).is_zero(1e-8)
            seen["found"].add(witness is not None)
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


# --- the submodule ↔ ideal correspondence ---------------------------------------

def operator_range_in_submodule(T: AlgebraElement, N: Submodule) -> bool:
    """The definition of J_N: T maps every module basis vector into N."""
    return all(contains_oracle(N, operator_apply(T, z)) for z in module_basis(N.shape, N.k))


def test_ideal_of_whole_module_is_everything():
    n = Submodule(C, 2, tuple(module_basis(C, 2)))
    ideal = ideal_of_submodule(n)
    assert ideal.support_projection.distance(
        AlgebraElement.identity(operator_shape(C, 2))
    ) <= 1e-10


def test_ideal_of_zero_submodule_is_zero():
    n = Submodule(C, 2, ())
    ideal = ideal_of_submodule(n)
    assert ideal.support_projection.is_zero()


def test_ideal_of_coordinate_line_k2():
    # N = span{e1} in C^2: J_N = matrices with zero second row
    e1, _ = module_basis(C, 2)
    n = Submodule(C, 2, (e1,))
    ideal = ideal_of_submodule(n)
    expected = np.array([[1, 0], [0, 0]], dtype=complex)  # direct linear-algebra oracle
    assert linalg.op_norm(ideal.support_projection.blocks[0] - expected) <= 1e-10

    keep = amplified_scalars([[2.0, 3.0], [0.0, 0.0]])
    drop = amplified_scalars([[2.0, 3.0], [1.0, 0.0]])
    assert operator_range_in_submodule(keep, n)
    assert not operator_range_in_submodule(drop, n)


def test_ideal_of_submodule_matches_range_definition_random():
    """T ∈ ideal_of_submodule(N) exactly when every column of T lies in N."""
    rng = SplitMix64(31)
    seen = set()
    for _ in range(60):
        shape = (C, M2, MIXED)[rng.randint(0, 2)]
        k = rng.randint(1, 3)
        gens = tuple(rand_module_element(rng, shape, k) for _ in range(rng.randint(1, 2)))
        n = Submodule(shape, k, gens)
        ideal = ideal_of_submodule(n)
        columns = []
        for _ in range(k):
            col = ModuleElement.from_coords([AlgebraElement.zeros(shape)] * k)
            for g in gens:
                col = col + g * rand_algebra_element(rng, shape)
            columns.append(col)
        if rng.randint(0, 1):
            columns[rng.randint(0, k - 1)] = rand_module_element(rng, shape, k)
        # column j of T is columns[j]: its amplified block b puts them side by side
        T = AlgebraElement(operator_shape(shape, k), tuple(
            np.hstack([col.blocks[b] for col in columns]) for b in range(shape.num_blocks)
        ))
        inside = operator_range_in_submodule(T, n)
        assert in_ideal(ideal, T) == inside
        seen.add(inside)
    assert seen == {True, False}


def test_submodule_of_ideal_extremes():
    amp = operator_shape(C, 2)
    full = submodule_of_ideal(
        ideal_of_submodule(Submodule(C, 2, tuple(module_basis(C, 2)))), C, 2
    )
    assert all(linalg.op_norm(p - np.eye(len(p))) <= 1e-10 for p in full.block_projectors)
    zero = submodule_of_ideal(ideal_of_submodule(Submodule(C, 2, ())), C, 2)
    assert not any(p.any() for p in zero.block_projectors)


def test_correspondence_roundtrip_random():
    rng = SplitMix64(29)
    for _ in range(50):
        shape = (C, M2, MIXED)[rng.randint(0, 2)]
        k = rng.randint(1, 3)
        if rng.randint(0, 2) == 0:
            gens = tuple(module_basis(shape, k))
        else:
            gens = tuple(rand_module_element(rng, shape, k) for _ in range(rng.randint(1, 2)))
        n = Submodule(shape, k, gens)
        back = submodule_of_ideal(ideal_of_submodule(n), shape, k)
        assert same_span(back, n)


# --- reformulation probe -----------------------------------------------------------

def test_probe_whole_module_found_with_unit():
    n = Submodule(C, 2, tuple(module_basis(C, 2)))
    m = scalar_module(1.0, 2.0)
    witness = reformulation_probe(m, n)
    assert witness is not None
    assert contains_oracle(n, m * witness)


def test_probe_zero_submodule_not_found():
    n = Submodule(C, 2, ())
    assert reformulation_probe(scalar_module(1.0, 1.0), n) is None


def test_probe_diagonal_line_misses():
    # N = span{e1}, m = e1 + e2: m·a = (a, a) lands in N only when a = 0
    e1, _ = module_basis(C, 2)
    n = Submodule(C, 2, (e1,))
    assert reformulation_probe(scalar_module(1.0, 1.0), n) is None


def test_probe_rejects_zero_input():
    n = Submodule(C, 2, ())
    with pytest.raises(ZeroInput):
        reformulation_probe(ModuleElement.from_coords([AlgebraElement.zeros(C)] * 2), n)


# --- essentiality ---------------------------------------------------------------------

def test_whole_module_is_essential():
    dec, cert = is_essential_submodule(Submodule(MIXED, 2, tuple(module_basis(MIXED, 2))))
    assert dec
    assert cert.essential == cert.topologically_essential == True


def test_rank_one_coordinate_submodule_not_essential():
    # k = 1 over M2: N = e11·M2 inside M2
    gen = ModuleElement.from_coords([AlgebraElement(M2, (np.array([[1, 0], [0, 0]], dtype=complex),))])
    n = Submodule(M2, 1, (gen,))
    dec, cert = is_essential_submodule(n)
    assert not dec
    assert cert.witness is not None
    assert cert.witness_probe_found is False
    # the certificate witness fails the probe over a family of basis multiples
    for e in matrix_units(M2):
        prod = cert.witness * e
        assert prod.is_zero(1e-8) or not contains_oracle(n, prod)


# The column gap where the float decision stops seeing two independent columns.
TOLERANCE_FLIP = 33


def test_float_decision_flips_at_the_tolerance_band():
    """Columns e1 and e1 + 2^-e·e2 of C^2 (block_dims [1], k = 2) span C^2
    exactly for every e. Their stacked matrix has σ_max ≈ √2 and
    σ_min ≈ 2^-e/√2, and a rank counts σ above DEFAULT_TOL·σ_max, so the
    `check` document reads essential up to e = 32 and not from e = 33 on:
    the band where the float stack disagrees with exact rank."""
    decisions = {}
    for e in range(20, 61):
        gens = (scalar_module(1, 0), scalar_module(1, 2.0 ** -e))
        payload = {"shape": serialize.shape_to_json(C), "k": 2,
                   "generators": [serialize.module_element_to_json(g) for g in gens]}
        report = runner.run_check(serialize.instance_to_json("module_submodule", payload, None))
        assert report["checks_ok"]
        decisions[e] = report["decision"]
    assert [e for e in decisions if not decisions[e]] == list(range(TOLERANCE_FLIP, 61))
    assert 2.0 ** -(TOLERANCE_FLIP - 1) / 2 > DEFAULT_TOL > 2.0 ** -TOLERANCE_FLIP / 2


def test_essentiality_agrees_with_randomized_probe_oracle():
    rng = SplitMix64(30)
    for _ in range(200):
        shape = (C, M2)[rng.randint(0, 1)]
        k = rng.randint(1, 3)
        if rng.randint(0, 2) == 0:
            gens = tuple(module_basis(shape, k))
        else:
            gens = tuple(rand_module_element(rng, shape, k) for _ in range(rng.randint(1, 2)))
        n = Submodule(shape, k, gens)
        dec, cert = is_essential_submodule(n)
        dec_ideal, _ = is_essential_right_ideal(ideal_of_submodule(n))
        assert dec == dec_ideal
        if dec:
            for _ in range(3):
                m = rand_module_element(rng, shape, k)
                if m.is_zero(1e-8):
                    continue
                assert reformulation_probe(m, n) is not None
        else:
            assert cert.witness_probe_found is False
