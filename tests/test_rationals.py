from fractions import Fraction as F

import pytest

from essmod.rationals import (
    column_basis,
    cr,
    mat,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_rank,
    orthogonal_projector,
)


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
    assert mat_rank(mat([[0, 0], [0, 0]])) == 0
    assert mat_rank(mat_identity(4)) == 4


def test_projector_ignores_dependent_columns():
    b = mat([[1, 2], [1, 2]])
    p = orthogonal_projector(b)
    assert p == mat([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    assert mat_mul(p, p) == p
