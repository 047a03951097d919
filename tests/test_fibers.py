"""The exact stack checked by the float stack, fiber by fiber (tests only).

At one point x a field module's fiber is a submodule of C^d over A = C:
the `module_submodule` document with `block_dims` [1] and k = d whose
generators are the field generators' values at x, each scaled to
max-modulus 1. Off the defect set the exact `check` certifies that the
generators span C^d, so the float stack must call that fiber essential;
at a legal rank drop inside the defect set it must not.

The other way round, the float corpus's module generators are dyadic, so
each float submodule decision is checked against exact ranks over Q(i),
taken by the Gauss-Jordan elimination of `projector_oracle`.
"""

from fractions import Fraction

import numpy as np
from field_docs import corpus_fields, subset_from_json
from float_docs import corpus_floats
from projector_oracle import cr, mat_rank
from series_docs import row_doc

from essmod import runner, serialize
from essmod.linalg import DEFAULT_TOL


def _value(generator: dict, x: Fraction) -> list[complex]:
    """The generator document's value at x, inside one of its pieces."""
    bps = [Fraction(b) for b in generator["breakpoints"]]
    i = max(k for k, b in enumerate(bps[:-1]) if b <= x)
    return [complex(float(sum(Fraction(re) * x ** p for p, (re, _) in enumerate(cs))),
                    float(sum(Fraction(im) * x ** p for p, (_, im) in enumerate(cs))))
            for cs in generator["pieces"][i]]


def fiber(payload: dict, x: Fraction) -> np.ndarray:
    """The d × n matrix whose columns are the generators' values at x, each
    scaled to max-modulus 1."""
    columns = [np.array(_value(g, x)) for g in payload["generators"]]
    return np.column_stack([c / np.abs(c).max() for c in columns])


def fiber_doc(values: np.ndarray) -> dict:
    """The `module_submodule` document whose generators are the columns of
    `values`, over A = C with k the fiber dimension."""
    shape = {"block_dims": [1]}
    gens = [{"shape": shape, "k": len(col), "coords": [{"shape": shape, "blocks": [[[[z.real, z.imag]]]]} for z in col]}
            for col in values.T]
    return serialize.instance_to_json("module_submodule", {"shape": shape, "k": values.shape[0], "generators": gens}, None)


def test_fibers_off_the_defect_set_are_essential_in_the_float_stack():
    """For every seed-1 `field_corpus` document, the points 1/4 and 1/2 of
    the way across each generator cell that lie off the check report's
    defect set: the float `check` of each fiber reads essential. None is
    within a factor of 100 of the float rank tolerance."""
    points = skipped = near_band = 0
    least = 1.0
    for doc in corpus_fields(1):
        payload = doc["payload"]
        defect = subset_from_json(runner.run_check(doc)["defect_set"])
        cuts = sorted({Fraction(b) for g in payload["generators"] for b in g["breakpoints"]})
        for a, b in zip(cuts, cuts[1:]):
            for x in (a + (b - a) / 4, a + (b - a) / 2):
                if defect.contains(x):
                    skipped += 1
                    continue
                values = fiber(payload, x)
                s = np.linalg.svd(values, compute_uv=False)
                least = min(least, s[-1] / s[0])
                near_band += s[-1] / s[0] < 100 * DEFAULT_TOL
                assert runner.run_check(fiber_doc(values))["decision"] is True, (doc["seed"], x)
                points += 1
    assert (points, skipped, near_band) == (423, 9, 0)
    assert least > 0.35


def test_the_fiber_at_a_legal_drop_is_not_essential():
    """The `shared` series row drops rank at 1/2, inside its defect set,
    which the exact `check` accepts; its fiber at 1/2 reads non-essential."""
    doc = row_doc(2, 64, "shared")
    assert runner.run_check(doc)["decision"] is True
    assert runner.run_check(fiber_doc(fiber(doc["payload"], Fraction(1, 2))))["decision"] is False


def stacked_block(payload: dict, b: int) -> list[list[complex]]:
    """M_b as rows of (re, im) pairs: each generator's block-b coordinates
    stacked k high, k·n_b rows and n_b columns per generator."""
    n = payload["shape"]["block_dims"][b]
    return [[g["coords"][r]["blocks"][b][i][j] for g in payload["generators"] for j in range(n)]
            for r in range(payload["k"]) for i in range(n)]


def test_float_module_decisions_match_exact_rank():
    """For every seed-1 `module_submodule` document of `float_corpus`, the
    float `check` decides essential exactly when each block's M_b has exact
    rank k·n_b. The entries are dyadic (integers over 16), so the JSON
    floats read as Fractions exactly. Every block has exact rank equal to
    the least of its row and column counts, so no block is rank-deficient
    beyond its shape: the tolerance band could only be met from above, by a
    full-rank block whose σ_{k·n_b}/max(1, σ₁) is small, and none lies
    within a factor of 100 of the rank tolerance."""
    docs = blocks = near_band = 0
    least = 1.0
    for doc in corpus_floats(1):
        if doc["kind"] != "module_submodule":
            continue
        payload, essential = doc["payload"], True
        for b in range(len(payload["shape"]["block_dims"])):
            rows = stacked_block(payload, b)
            exact = [[cr(Fraction(re), Fraction(im)) for re, im in row] for row in rows]
            assert all((16 * z.re).denominator == (16 * z.im).denominator == 1 for row in exact for z in row)
            rank = mat_rank(exact)
            assert rank == min(len(rows), len(rows[0])), (doc["seed"], b)
            if rank == len(rows):
                s = np.linalg.svd(np.array([[complex(*z) for z in row] for row in rows]), compute_uv=False)
                ratio = s[rank - 1] / max(1.0, s[0])
                least = min(least, ratio)
                near_band += ratio < 100 * DEFAULT_TOL
            essential &= rank == len(rows)
            blocks += 1
        assert runner.run_check(doc)["decision"] is essential, doc["seed"]
        docs += 1
    assert (docs, blocks, near_band) == (180, 360, 0)
    assert least > 0.01
