import ast
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from projector_oracle import (
    cleared_columns,
    column_basis,
    cr,
    mat,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_rank,
    orthogonal_projector,
)

import essmod
from essmod.rationals import annihilator


def test_inverse_is_exact():
    a = mat([[0, 2, 1], [1, 1, 0], [cr(1, 1), 0, 3]])  # zero leading entry forces a row swap
    assert mat_mul(a, mat_inverse(a)) == mat_identity(3)
    assert mat_mul(mat_inverse(a), a) == mat_identity(3)


def test_inverse_rejects_singular_and_non_square():
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="non-square"):
        mat_inverse(mat([[1, 2]]))


def test_rank_and_column_basis_share_the_pivots():
    # column 1 = 2 · column 0, column 3 = column 0 + column 2
    a = mat([[1, 2, 0, 1], [cr(0, 1), cr(0, 2), 1, cr(1, 1)], [0, 0, F(1, 3), F(1, 3)]])
    assert mat_rank(a) == 2
    assert column_basis(a) == tuple((row[0], row[2]) for row in a)
    assert len(annihilator(cleared_columns(a), 3)) == 3 - mat_rank(a)
    assert mat_rank(mat([[0, 0], [0, 0]])) == 0
    assert mat_rank(mat_identity(4)) == 4


def test_projector_ignores_dependent_columns():
    b = mat([[1, 2], [1, 2]])
    p = orthogonal_projector(b, 2)
    assert p == mat([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    assert mat_mul(p, p) == p
    (row,) = annihilator(cleared_columns(b), 2)
    assert row[0] != (0, 0) and row[1] == (-row[0][0], -row[0][1])


def test_annihilator_is_gaussian_integer_and_exact():
    # L = span((1/3, i/2)) = span((2, 3i)): RREF of Bᵀ is (1, 3i/2), its kernel (−3i/2, 1)
    (row,) = annihilator((((2, 0), (0, 3)),), 2)
    assert row == ((0, -3), (2, 0))
    re = row[0][0] * F(1, 3) - row[1][1] * F(1, 2)
    im = row[0][1] * F(1, 3) + row[1][0] * F(1, 2)
    assert re == 0 and im == 0
    # no columns: the identity rows; rank d: no rows
    assert annihilator((), 3) == tuple(
        tuple((int(i == j), 0) for j in range(3)) for i in range(3)
    )
    assert annihilator((), 2) == (((1, 0), (0, 0)), ((0, 0), (1, 0)))
    assert annihilator((((1, 0), (0, 0)), ((1, 0), (0, 2))), 2) == ()


gaussian_rationals = st.builds(
    cr,
    st.fractions(min_value=-5, max_value=5, max_denominator=30),
    st.fractions(min_value=-5, max_value=5, max_denominator=30),
)


@st.composite
def gaussian_matrices(draw):
    """A d×r Gaussian-rational B, d ≤ 4: random columns, zero columns and
    combinations of earlier ones (so B is often rank-deficient), r = 0 too."""
    d = draw(st.integers(1, 4))
    cols = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "zero", "combination"] if cols else ["random", "zero"]))
        if kind == "random":
            cols.append(tuple(draw(gaussian_rationals) for _ in range(d)))
        elif kind == "zero":
            cols.append((cr(0),) * d)
        else:
            a, b = draw(gaussian_rationals), draw(gaussian_rationals)
            u, v = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            cols.append(tuple(a * x + b * y for x, y in zip(u, v)))
    return d, tuple(tuple(col[i] for col in cols) for i in range(d))


@settings(deadline=None, max_examples=150)
@given(gaussian_matrices())
def test_annihilator_is_a_basis_of_the_left_kernel(case):
    """Every row a has a·B = 0, the rows are independent, and there are
    d − rank(B) of them, the rank from the projector oracle."""
    d, b = case
    columns = cleared_columns(b)
    ann = annihilator(columns, d)
    assert len(ann) == d - mat_rank(b)
    # content-free rows: a positive scale on a column changes no row
    assert annihilator(tuple(tuple((k * x, k * y) for x, y in col) for k, col in enumerate(columns, 2)), d) == ann
    assert all(type(t) is int for row in ann for z in row for t in z)
    if ann:
        rows = mat([[cr(*z) for z in row] for row in ann])
        assert all(z.is_zero() for row in mat_mul(rows, b) for z in row)
        assert mat_rank(rows) == len(ann)


def test_no_essmod_module_defines_or_imports_a_gaussian_rational_type():
    """Exact complex scalars are (re, im) pairs in the library: no module
    defines, binds or imports `ComplexRational` or `cr`."""
    for path in sorted(Path(essmod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "name", None), getattr(node, "asname", None)}  # defs, classes, imports
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            assert not names & {"ComplexRational", "cr"}, f"{path.name}:{node.lineno}"
