"""Seeded inputs of the corpus workloads, and the oracles that judge them.

A corpus is a list of instance documents made by `essmod.generate` from
parameters drawn with `random.Random(seed)`. The corpora are stratified:
they cycle through a fixed list of strata (instance kind, number of blocks
or fiber dimension, planted defect) with sizes from fixed cycles, so every
seed measures the same sizes and mix with different contents.

The oracles decide each instance without calling essmod's deciders:
  - right ideals: essential exactly when the support projection p = I;
  - submodules: essential exactly when the span of N, computed here with
    numpy, is all of A^k;
  - fields: the `expected` decision `gen_field` planted.
"""

from __future__ import annotations

import random

import numpy as np

# float_corpus strata: (kind, number of blocks). Round r gives block dims
# and module rank k from fixed cycles over 1..6 and 1..4, the caps of
# `essmod gen`, so every seed measures the same shapes. The generators'
# first draw picks the full ideal or module (1 in 3) or a random one; seeds
# are drawn until every third round is a full one.
FLOAT_STRATA = [(kind, nb) for kind in ("right_ideal", "module_submodule") for nb in (1, 2, 3)]
FLOAT_ROUNDS = 60

# field_corpus strata: (planted defect, fiber dimension d). Round r gives
# pieces and generators from fixed cycles over 2..16 and d..8, the caps of
# `essmod gen`.
FIELD_STRATA = [(defect, d) for d in (1, 2, 3, 4) for defect in ("none", "points", "interval")]
FIELD_ROUNDS = 18

ROUNDS = {"float_corpus": FLOAT_ROUNDS, "field_corpus": FIELD_ROUNDS}
STRATA = {"float_corpus": FLOAT_STRATA, "field_corpus": FIELD_STRATA}


def corpus_params(generate, workload: str, seed: int) -> list[tuple]:
    """Generator calls of a corpus, in measuring order: round by round, one
    instance per stratum per round. The seed picks each instance's
    generator seed; sizes follow the fixed cycles above."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for r in range(ROUNDS[workload]):
        for stratum in STRATA[workload]:
            inst_seed = rng.randrange(1 << 32)
            if workload == "float_corpus":
                while (generate.SplitMix64(inst_seed).randint(0, 2) == 0) != (r % 3 == 0):
                    inst_seed = rng.randrange(1 << 32)
                kind, nb = stratum
                blocks = tuple(1 + (r + 2 * b * (r // 6 + 1)) % 6 for b in range(nb))
                out.append((kind, blocks, 1 + (r + nb) % 4, inst_seed))
            else:
                defect, d = stratum
                pieces = 2 + (4 * r) % 15
                gens = d + (r + d) % (9 - d)
                out.append(("field", d, pieces, gens, defect, inst_seed))
    return out


def make_instance(generate, params: tuple) -> dict:
    kind = params[0]
    if kind == "right_ideal":
        _, blocks, _, seed = params
        return generate.gen_right_ideal(blocks, seed)
    if kind == "module_submodule":
        _, blocks, k, seed = params
        return generate.gen_module_submodule(blocks, k, seed)
    _, d, pieces, gens, defect, seed = params
    return generate.gen_field(d, pieces, gens, defect, seed)


def warmup_instances(generate, workload: str) -> list[dict]:
    """Small fixed instances that pay each code path's first-call cost."""
    if workload == "float_corpus":
        return [
            generate.gen_right_ideal((2, 3), 1),
            generate.gen_module_submodule((2, 2), 2, 1),
        ]
    return [generate.gen_field(2, 4, 3, defect, 1) for defect in ("none", "points", "interval")]


# --- oracles ------------------------------------------------------------------

def _blocks(element_doc) -> list[np.ndarray]:
    out = []
    for blk in element_doc["blocks"]:
        a = np.asarray(blk, dtype=float)
        out.append(a[..., 0] + 1j * a[..., 1])
    return out


def _rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= 1e-12:
        return 0
    return int(np.sum(s > 1e-8 * max(1.0, s[0])))


class Oracle:
    """What a correct report must say about one instance."""

    def __init__(self, essential: bool, zero_support: bool = False):
        self.essential = essential
        self.zero_support = zero_support


def oracle_for(doc: dict) -> Oracle:
    kind, payload = doc["kind"], doc["payload"]
    if kind == "field":
        return Oracle(bool(doc["expected"]["essential"]))
    if kind == "right_ideal":
        p = _blocks(payload["support_projection"])
        full = all(np.max(np.abs(b - np.eye(b.shape[0]))) <= 1e-8 for b in p)
        zero = all(np.max(np.abs(b)) <= 1e-12 for b in p)
        return Oracle(full, zero_support=zero)
    # N = sum_g g·A. Right multiplication by the matrix units of block b
    # moves block-b columns, so span(N) = ⊕_b (col M_b)^(n_b), where M_b
    # stacks the block-b coordinates of each generator into one column
    # block. N = A^k exactly when every M_b has rank k·n_b.
    k = payload["k"]
    dims = payload["shape"]["block_dims"]
    gens = [[_blocks(c) for c in g["coords"]] for g in payload["generators"]]
    span_dim = 0
    for b, n in enumerate(dims):
        m_b = np.hstack([np.vstack([coords[i][b] for i in range(k)]) for coords in gens])
        span_dim += n * _rank(m_b)
    return Oracle(span_dim == k * sum(n * n for n in dims))


def judge(op: str, decision, checks_ok, oracle: Oracle) -> str | None:
    """None when a report is right, else why it is wrong. Every check report
    carries a decision; of the witness reports, only ideal ones do not."""
    if not checks_ok:
        return "checks_ok is false"
    if (op == "check" or decision is not None) and decision != oracle.essential:
        return f"decision {decision} but the oracle says {oracle.essential}"
    return None
