"""Field documents that reach the exact deciders' rare branches, for the
byte-identity pin and the reach test of tests/test_corpus_pins.py.

Each document is named by what it reaches:

- `repeated-root`: a residual (x − 1/3)², so the Sturm chain is built on
  its squarefree part (`polynomials._exact_quotient`).
- `roots-in-one-atom`: a residual with the roots 1/5, 1/3, 1/2 and 5/7 in
  one atom: the Sturm bisection splits at 1/2, a root, and at 1/4, not one.
- `large-denominator-root`: an essential document whose witness generator
  has the root p/q, q above 2^20, which only the `limit_denominator`
  candidate of `_rational_root_in` names: the root splits its support
  set, and the witness bump sits on the widest part left off 1/2.
- `irrational-residual`: a residual x² − 1/2, refused with IrrationalRoot.
- `non-coordinate-bases`: subspaces spanned by Gaussian-integer columns
  that are not coordinate vectors, so `rationals.annihilator` eliminates a
  non-pivot row.
- `vanish-essential` and `vanish-non-essential`: `vanish_at_boundary`
  documents whose minors vanish at 0 and 1 only.
- `isolated-rest-point` and `isolated-rest-drop`: the full fiber at the
  point 1/2 alone, inside a proper subspace field, so the rest of the
  spanning cell is that point; the minors' gcd is nonzero there, or drops
  rank there and is refused.
- `irrational-drop`: generators whose determinant 1/2 − x² drops rank at
  1/√2, refused as not spanning.

Every generator is scaled by a nonzero rational drawn in turn
from random.Random("hard_docs"), which also draws the basis entries and
the large denominator's numerator, so the documents are fixed. Run as a
script to print one document:

    python tests/hard_docs.py NAME
"""

import random
import sys
from fractions import Fraction

from essmod import serialize
from essmod.fields import FieldModuleSpec, FieldPiece, SubspaceField
from essmod.rationals import identity_columns
from essmod.sections import PiecewiseSection
from essmod.subsets import SymbolicSubset

F = Fraction
LARGE_DENOMINATOR = (1 << 20) + 7


def _from_roots(roots) -> list[Fraction]:
    """The ascending coefficients of Π (x − r) over the roots."""
    cs = [F(1)]
    for r in roots:
        cs = [a - r * b for a, b in zip([F(0), *cs], [*cs, F(0)])]
    return cs


class _Builder:
    def __init__(self):
        self.rng = random.Random("hard_docs")

    def scale(self) -> Fraction:
        return F(self.rng.choice((-1, 1)) * self.rng.randint(1, 99), self.rng.randint(1, 99))

    def section(self, coords) -> PiecewiseSection:
        """The one-piece section whose coordinate i has the ascending
        coefficients coords[i], all times one drawn scale."""
        c = self.scale()
        return PiecewiseSection.polynomial([[c * x for x in cs] for cs in coords])

    def gaussian(self) -> tuple[int, int]:
        return self.rng.randint(-3, 3), self.rng.randint(-3, 3)


def _field(d: int, *pieces) -> SubspaceField:
    return SubspaceField(d, tuple(FieldPiece(region, basis) for region, basis in pieces))


def _doc(d, gens, field, vanish=False) -> dict:
    spec = FieldModuleSpec(d, tuple(gens), field, vanish)
    return serialize.instance_to_json("field", serialize.field_spec_to_json(spec), 0)


def hard_docs() -> list[tuple[str, dict]]:
    """The documents, (name, document), in a fixed order."""
    b, whole, half = _Builder(), SymbolicSubset.interval(0, 1), SymbolicSubset(points=(F(1, 2),))
    e = [identity_columns(d) for d in range(4)]
    line = _field(2, (whole, e[2][:1]))  # L = span(e₁) on C²: e₂ leaves it everywhere
    docs = [
        ("repeated-root", _doc(2, [b.section([[1], _from_roots([F(1, 3)] * 2)]), b.section([[], [1]])], line)),
        ("roots-in-one-atom", _doc(2, [b.section([[1], _from_roots([F(1, 5), F(1, 3), F(1, 2), F(5, 7)])]),
                                       b.section([[], [1]])], line)),
        # L = 0 at 1/2 alone: essential, and the witness finds the root in the generator's support set
        ("large-denominator-root", _doc(1, [b.section([_from_roots([F(b.rng.randrange(1, LARGE_DENOMINATOR),
                                                                       LARGE_DENOMINATOR)])]), b.section([[1]])],
                                        _field(1, (whole.difference(half), e[1]), (half, ())))),
        ("irrational-residual", _doc(2, [b.section([[1], [-F(1, 2), 0, 1]]), b.section([[], [1]])], line)),
    ]
    # two columns with nonzero first entries on [0, 1/2], one on (1/2, 3/4], the full fiber after
    cols = [tuple((b.rng.randint(1, 3), b.rng.randint(-3, 3)) if i == 0 else b.gaussian() for i in range(3))
            for _ in range(3)]
    bases = _field(3, (SymbolicSubset.interval(0, F(1, 2)), tuple(cols[:2])),
                   (SymbolicSubset.interval(F(1, 2), F(3, 4), False, True), tuple(cols[2:])),
                   (SymbolicSubset.interval(F(3, 4), 1, False, True), e[3]))
    docs.append(("non-coordinate-bases", _doc(3, [b.section([[1], [], []]), b.section([[], [1], []]),
                                                  b.section([[], [], [1]]), b.section([[0, 1], [1], [1, 0, 1]])],
                                              bases)))
    ends = _from_roots([0, 1])  # x(x − 1)
    docs.append(("vanish-essential", _doc(1, [b.section([ends])], _field(1, (whole, e[1])), vanish=True)))
    middle = SymbolicSubset.interval(F(1, 4), F(3, 4))
    docs.append(("vanish-non-essential", _doc(2, [b.section([ends, []]), b.section([[], ends])],
                                              _field(2, (middle, e[2][:1]),
                                                     (SymbolicSubset.interval(0, 1).difference(middle), e[2])),
                                              vanish=True)))
    apart = _field(2, (whole.difference(half), e[2][:1]), (half, e[2]))
    docs.append(("isolated-rest-point", _doc(2, [b.section([[1, 1], []]), b.section([[], [1]])], apart)))
    docs.append(("isolated-rest-drop", _doc(2, [b.section([[-F(1, 2), 1], []]), b.section([[], [1]])], apart)))
    docs.append(("irrational-drop", _doc(2, [b.section([[1], [0, 1]]), b.section([[0, 1], [F(1, 2)]])],
                                         _field(2, (whole, e[2])))))
    return docs


if __name__ == "__main__":
    sys.stdout.write(serialize.dumps(dict(hard_docs())[sys.argv[1]]))
