"""The exact stack checked by the float stack, fiber by fiber (tests only).

At one point x a field module's fiber is a submodule of C^d over A = C:
the `module_submodule` document with `block_dims` [1] and k = d whose
generators are the field generators' values at x, each scaled to
max-modulus 1. Off the defect set the exact `check` certifies that the
generators span C^d, so the float stack must call that fiber essential;
at a legal rank drop inside the defect set it must not.
"""

from fractions import Fraction

import numpy as np
from field_docs import corpus_fields, subset_from_json
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
