"""Field documents and subset parsing shared by the tests.

`corpus_fields(seed, defect)` restates the field documents of the
benchmark's `field_corpus` workload (perfbench/corpus.py): 18 rounds over
the strata (defect, d) for d = 1..4, pieces and generators from fixed
cycles, and each document's generator seed drawn in turn from
random.Random(f"field_corpus:{seed}"). `subset_from_json` reads a subset
document as the normal form of the union it lists, and `full_field(d)` is
the field whose fiber is C^d everywhere."""

import random

from essmod.fields import FieldPiece, SubspaceField
from essmod.generate import gen_field
from essmod.rationals import identity_columns
from essmod.serialize import _subset_parts
from essmod.subsets import SymbolicSubset

STRATA = [(defect, d) for d in (1, 2, 3, 4) for defect in ("none", "points", "interval")]
ROUNDS = 18


def corpus_fields(seed: int, defect: str | None = None) -> list[dict]:
    """The `field_corpus` documents of this seed with this planted defect (all
    of them for None), in corpus order."""
    rng, docs = random.Random(f"field_corpus:{seed}"), []
    for r in range(ROUNDS):
        for kind, d in STRATA:
            inst_seed = rng.randrange(1 << 32)
            if defect in (None, kind):
                docs.append(gen_field(d, 2 + (4 * r) % 15, d + (r + d) % (9 - d), kind, inst_seed))
    return docs


def subset_from_json(doc) -> SymbolicSubset:
    return SymbolicSubset(*_subset_parts(doc))


def full_field(d: int) -> SubspaceField:
    return SubspaceField(d, (FieldPiece(SymbolicSubset.interval(0, 1), identity_columns(d)),))
