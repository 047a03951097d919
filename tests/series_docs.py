"""Field documents whose coefficients have a chosen bit length, for the
work and time of the spanning certificate as coefficients grow.

`series_doc(degree, bits, d, n, shape, shared, illegal)` is the full field C^d on
[0, 1] with n one-piece generators. Each coordinate of a generator is a
polynomial of the given degree whose coefficients are p/q + (r/t)·i, each
numerator of exactly `bits` bits with a random sign. Shape "A" has odd
8-bit denominators; shape "B" has odd denominators of `bits` bits. The
partition is the four quarters [0, 1/4], (1/4, 1/2], (1/2, 3/4] and
(3/4, 1], each with the full fiber.

`shared=True` multiplies the first coordinate of every generator by
(x − 1/2), so all the d×d minors share that factor and the rank drops at
1/2. The partition then gives the point 1/2 its own region with
L = span(e₁, …, e_{d−1}): the generators leave L there, so 1/2 lies in the
defect set and the drop is legal. `illegal=True` puts
L = span(e₂, …, e_d) at 1/2 instead: the generators stay in L, the drop
falls off the defect set, and `check` refuses the document.

The draws come from random.Random seeded by (degree, bits, d, n), so a
shared row and its illegal twin start from the row of the same parameters
and shape. Run as a script to print one document (shape A for the last
two):

    python tests/series_docs.py DEGREE BITS [A|B|shared|illegal]
"""

import random
import sys
from fractions import Fraction

from essmod import serialize
from essmod.fields import FieldModuleSpec, FieldPiece, SubspaceField
from essmod.rationals import identity_columns
from essmod.sections import PiecewiseSection
from essmod.subsets import SymbolicSubset

ZERO = Fraction(0)

# The series rows whose `check` took under 1 s (in-process, on a shared
# 2-vCPU VM) when the gcd work of tests/test_field_work.py was pinned, as
# (degree, bits, kind), kind the denominator shape A or B, "shared" for a
# common factor x − 1/2 of all minors at 1/2 in the defect set, or
# "illegal" for its twin with that drop off the defect set. Each is d = 4
# with 8 generators; `row_doc(*row)` builds one.
SERIES_ROWS = [
    (2, 64, "A"), (2, 256, "A"), (2, 1024, "A"), (4, 64, "A"),
    (1, 64, "B"), (1, 256, "B"), (2, 64, "B"),
    (2, 64, "shared"), (4, 64, "shared"), (4, 64, "illegal"),
]


def _coefficient(rng: random.Random, bits: int, shape: str) -> Fraction:
    num = (rng.getrandbits(bits - 1) | 1 << (bits - 1)) * rng.choice((-1, 1))
    den_bits = 8 if shape == "A" else bits
    return Fraction(num, rng.getrandbits(den_bits - 1) | 1 << (den_bits - 1) | 1)


def _times_x_minus_half(cs: list) -> list:
    """(x − 1/2)·p, for the ascending (re, im) coefficients of p."""
    padded = [(ZERO, ZERO), *cs, (ZERO, ZERO)]
    return [(a - c / 2, b - e / 2) for (a, b), (c, e) in zip(padded, padded[1:])]


def series_doc(degree: int, bits: int, d: int = 4, n: int = 8, shape: str = "A", shared: bool = False,
               illegal: bool = False) -> dict:
    rng = random.Random(f"series:{degree}:{bits}:{d}:{n}")
    gens = []
    for _ in range(n):
        coords = [[(_coefficient(rng, bits, shape), _coefficient(rng, bits, shape))
                   for _ in range(degree + 1)] for _ in range(d)]
        if shared:
            coords[0] = _times_x_minus_half(coords[0])
        gens.append(PiecewiseSection.polynomial(coords))
    full = identity_columns(d)
    quarters = [SymbolicSubset.interval(Fraction(k, 4), Fraction(k + 1, 4), k == 0, True) for k in range(4)]
    pieces = [FieldPiece(q, full) for q in quarters]
    if shared:
        at_half = SymbolicSubset(points=(Fraction(1, 2),))
        pieces[1] = FieldPiece(quarters[1].difference(at_half), full)
        pieces.append(FieldPiece(at_half, full[1:] if illegal else full[:-1]))
    spec = FieldModuleSpec(d, tuple(gens), SubspaceField(d, tuple(pieces)))
    return serialize.instance_to_json("field", serialize.field_spec_to_json(spec), 0)


def row_doc(degree: int, bits: int, kind: str = "A") -> dict:
    """The d = 4, n = 8 document of one series row: kind is the shape A or
    B, "shared" (shape A with the factor) or "illegal" (its twin)."""
    return series_doc(degree, bits, shape="B" if kind == "B" else "A", shared=kind in ("shared", "illegal"),
                      illegal=kind == "illegal")


if __name__ == "__main__":
    sys.stdout.write(serialize.dumps(row_doc(int(sys.argv[1]), int(sys.argv[2]), *sys.argv[3:4])))
