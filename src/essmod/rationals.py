"""The Gaussian-integer elimination kernel of the exact layer.

The continuous-field layer never touches floating point. An exact complex
scalar is an (re, im) pair of rationals, and a subspace is spanned by
Gaussian-integer columns, tuples of pairs (re, im) of ints. Sizes stay
tiny (fiber dimension ≤ 4). The one elimination kernel, `annihilator`,
works fraction-free on those columns and keeps its rows in Gaussian
integers, so that membership tests against it need no Fraction arithmetic
either.
"""

from __future__ import annotations

from math import gcd, lcm


GaussianIntVector = tuple[tuple[int, int], ...]


def identity_columns(d: int) -> tuple[GaussianIntVector, ...]:
    """The standard basis of C^d as Gaussian-integer columns."""
    return tuple(tuple((int(i == j), 0) for i in range(d)) for j in range(d))


def _content_free(row: list[tuple[int, int]]) -> list[tuple[int, int]]:
    g = gcd(*(t for z in row for t in z))
    return [(x // g, y // g) for x, y in row] if g > 1 else row


def annihilator(columns: tuple[GaussianIntVector, ...], d: int) -> tuple[GaussianIntVector, ...]:
    """Gaussian-integer rows a spanning {a : a·B = 0} for the d×r matrix B
    with these Gaussian-integer columns, so that {v : a·v = 0 for every row}
    is exactly the column span of B.

    Fraction-free Gauss–Jordan on Bᵀ (transposed, not conjugated: a·v is
    the plain bilinear product), its rows B's columns: the pivot row times
    conj(pivot) has a positive integer pivot n, each other row r becomes
    n·r − r[col]·(pivot row), and every new row loses its content, so a
    positive scale on a column changes no output row. One kernel vector per
    free column, positive there; no columns give the identity rows, rank d
    gives none."""
    rows = list(columns)
    pivots: list[int] = []
    for col in range(d):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != (0, 0)), None)
        if piv is None:
            continue
        row, rows[piv] = rows[piv], rows[rank]
        pr, pi = row[col]
        rows[rank] = top = _content_free([(pr * x + pi * y, pr * y - pi * x) for x, y in row])
        n = top[col][0]
        for r, row in enumerate(rows):
            if r != rank and row[col] != (0, 0):
                fr, fi = row[col]
                rows[r] = _content_free([(n * x - fr * u + fi * w, n * y - fr * w - fi * u)
                                         for (x, y), (u, w) in zip(row, top)])
        pivots.append(col)
    scale = lcm(*(rows[r][p][0] for r, p in enumerate(pivots)))
    out = []
    for f in range(d):
        if f not in pivots:
            vec = [(0, 0)] * d
            vec[f] = (scale, 0)
            for row, p in zip(rows, pivots):
                vec[p] = (-row[f][0] * (scale // row[p][0]), -row[f][1] * (scale // row[p][0]))
            out.append(tuple(_content_free(vec)))
    return tuple(out)

