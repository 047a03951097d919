"""Float documents shared by the tests.

`corpus_floats(seed)` restates the documents of the benchmark's
`float_corpus` workload (perfbench/corpus.py), in corpus order: 60 rounds
over the strata (kind, number of blocks) for right ideals and submodules
over 1, 2 and 3 blocks. Round r gives block dims and the module rank k
from fixed cycles over 1..6 and 1..4. Each document's generator seed is
drawn in turn from random.Random(f"float_corpus:{seed}"), and drawn again
until the generator's first draw picks a full ideal or module exactly in
every third round."""

import random

from essmod.generate import SplitMix64, gen_module_submodule, gen_right_ideal

STRATA = [(kind, nb) for kind in ("right_ideal", "module_submodule") for nb in (1, 2, 3)]
ROUNDS = 60


def corpus_floats(seed: int) -> list[dict]:
    """The `float_corpus` documents of this seed, in corpus order."""
    rng, docs = random.Random(f"float_corpus:{seed}"), []
    for r in range(ROUNDS):
        for kind, nb in STRATA:
            inst_seed = rng.randrange(1 << 32)
            while (SplitMix64(inst_seed).randint(0, 2) == 0) != (r % 3 == 0):
                inst_seed = rng.randrange(1 << 32)
            blocks = tuple(1 + (r + 2 * b * (r // 6 + 1)) % 6 for b in range(nb))
            if kind == "right_ideal":
                docs.append(gen_right_ideal(blocks, inst_seed))
            else:
                docs.append(gen_module_submodule(blocks, 1 + (r + nb) % 4, inst_seed))
    return docs
