import hashlib
from fractions import Fraction as F

import numpy as np
import pytest
from field_docs import corpus_fields
from float_oracle import in_ideal
from hypothesis import example, given
from hypothesis import strategies as st

from essmod import serialize, subsets
from essmod.algebra import AlgebraShape
from essmod.errors import SizeCap
from essmod.fields import analyze_field, is_essential_field
from essmod.generate import (
    SplitMix64,
    gen_field,
    gen_module_submodule,
    gen_right_ideal,
    planted_field,
    rand_algebra_element,
    rand_matrix,
)


def test_splitmix64_known_vector():
    # published first outputs for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_streams_are_deterministic():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_dyadic_values_are_exact_in_float():
    rng = SplitMix64(5)
    for _ in range(100):
        x = rng.dyadic()
        assert F(float(x)) == x  # binary64 represents k/16 exactly


def test_gen_right_ideal_deterministic_bytes():
    a = serialize.canonical_json(gen_right_ideal((2, 3), 7))
    b = serialize.canonical_json(gen_right_ideal((2, 3), 7))
    assert a == b
    assert serialize.canonical_json(gen_right_ideal((2, 3), 8)) != a


def test_gen_right_ideal_validates():
    doc = gen_right_ideal((2, 3), 7)
    kind, payload = serialize.validate_instance(doc)
    assert kind == "right_ideal"
    ideal, gens = serialize.right_ideal_from_json(payload)
    assert len(gens) == len(payload["generators"])
    for g in gens:
        assert in_ideal(ideal, g)


def test_gen_module_deterministic_and_valid():
    a = serialize.canonical_json(gen_module_submodule((2,), 3, 11))
    b = serialize.canonical_json(gen_module_submodule((2,), 3, 11))
    assert a == b
    doc = gen_module_submodule((2,), 3, 11)
    n = serialize.submodule_from_json(doc["payload"])
    assert n.k == 3


def test_gen_field_plants_ground_truth():
    for seed in range(5):
        doc = gen_field(2, 4, 3, "interval", seed)
        spec = serialize.field_spec_from_json(doc["payload"])
        assert doc["expected"] == {"essential": False}
        assert not is_essential_field(spec).essential
        doc = gen_field(2, 4, 2, "points", seed)
        spec = serialize.field_spec_from_json(doc["payload"])
        assert doc["expected"] == {"essential": True}
        decision = is_essential_field(spec)
        assert decision.essential
        assert not decision.analysis.total.is_empty()
        doc = gen_field(2, 4, 2, "none", seed)
        spec = serialize.field_spec_from_json(doc["payload"])
        assert analyze_field(spec).total.is_empty()


def test_gen_field_deterministic_bytes():
    a = serialize.canonical_json(gen_field(3, 5, 4, "interval", 99))
    b = serialize.canonical_json(gen_field(3, 5, 4, "interval", 99))
    assert a == b


def test_size_caps():
    with pytest.raises(SizeCap):
        gen_right_ideal((7,), 0)
    with pytest.raises(SizeCap):
        gen_module_submodule((2,), 5, 0)
    with pytest.raises(SizeCap):
        gen_field(5, 4, 5, "none", 0)
    with pytest.raises(SizeCap):
        gen_field(2, 17, 2, "none", 0)
    with pytest.raises(SizeCap):
        gen_field(2, 4, 9, "none", 0)
    with pytest.raises(SizeCap):
        gen_field(2, 4, 1, "none", 0)  # fewer generators than the fiber needs


@given(seed=st.sampled_from([0, 1, 2**64 - 1]), n=st.sampled_from([0, 1, 2, 37, 500]),
       bounds=st.sampled_from([(-32, 32), (-8, 8), (0, 0), (1, 63)]))
@example(seed=0, n=2, bounds=(-32, 32))
def test_batch_draws_equal_sequential_draws(seed, n, bounds):
    """Output i of a stream is mix(seed + i·γ): n draws in one batch are the
    next n `randint` draws, and leave the stream where they would."""
    batch, one_by_one = SplitMix64(seed), SplitMix64(seed)
    drawn = batch.randints(*bounds, n)
    assert drawn.tolist() == [one_by_one.randint(*bounds) for _ in range(n)]
    assert batch.state == one_by_one.state


def test_rand_matrix_matches_the_per_entry_draws():
    """A matrix is drawn row-major, each entry's real part and then its
    imaginary part a dyadic k/16: byte for byte the per-entry complex of two
    `dyadic` draws, and the stream left where those draws leave it."""
    for rows in range(1, 7):
        for cols in range(1, 7):
            batch, one_by_one = SplitMix64(rows * 10 + cols), SplitMix64(rows * 10 + cols)
            m = rand_matrix(batch, rows, cols)
            oracle = np.array([[complex(float(one_by_one.dyadic()), float(one_by_one.dyadic())) for _ in range(cols)]
                               for _ in range(rows)])
            assert m.shape == (rows, cols) and m.tobytes() == oracle.tobytes()
            assert batch.state == one_by_one.state


def test_algebra_element_draws_its_blocks_in_one_batch(monkeypatch):
    """An element's blocks are one batch split by block: byte for byte the
    blocks that `rand_matrix` draws one after another, with the stream left
    where they leave it, from one `randints` call."""
    calls = []
    randints = SplitMix64.randints
    monkeypatch.setattr(SplitMix64, "randints", lambda self, *args: calls.append(args) or randints(self, *args))
    for dims in [(1,), (6,), (2, 3), (1, 3, 6), (6, 6, 6)]:
        batch, per_block = SplitMix64(sum(dims)), SplitMix64(sum(dims))
        calls.clear()
        x = rand_algebra_element(batch, AlgebraShape(dims))
        assert calls == [(-32, 32, 2 * sum(n * n for n in dims))]
        assert [b.tobytes() for b in x.blocks] == [rand_matrix(per_block, n, n).tobytes() for n in dims]
        assert batch.state == per_block.state


# sha256 of the canonical JSON of every document of `generation_grid`,
# recorded when every scalar was drawn one at a time through a Fraction
GRID_DIGEST = "5403e9cc0bce73192bf48c37c8934b15a59d13eed9826975ea7aaf878d0ed899"


def generation_grid():
    shapes = [(1,), (6,), (2, 3), (1, 3, 6)]
    for seed in range(3):
        for blocks in shapes:
            yield gen_right_ideal(blocks, seed)
            yield from (gen_module_submodule(blocks, k, seed) for k in range(1, 5))
        for d in range(1, 5):
            yield from (gen_field(d, 5, d + 2, defect, seed) for defect in ("none", "points", "interval"))


def test_generation_grid_is_pinned():
    text = "\n".join(serialize.canonical_json(doc) for doc in generation_grid())
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_DIGEST


# sha256 of the canonical JSON of the document of every `field_grid` case,
# recorded when the partition was the full set less the planted part, cut
# by set algebra. Of its 120 interval documents, 52 have a cut inside the
# planted interval and 6 a cut at one of its ends; 4 of its points
# documents have a cut on a planted point.
FIELD_GRID_DIGEST = "6d2ed780a98a2146634cbe578b89bfd3ac19d16bf3b945e6a8cbc8e8f76e2c9b"


def field_grid():
    """The (d, pieces, generators, defect, seed) of each document."""
    for seed in range(3):
        for d in range(1, 5):
            for pieces in (2, 3, 4, 8, 16):
                for g in (d, 8):
                    yield from ((d, pieces, g, defect, seed) for defect in ("none", "points", "interval"))


def test_field_generation_grid_is_pinned():
    text = "\n".join(serialize.canonical_json(gen_field(*case)) for case in field_grid())
    assert hashlib.sha256(text.encode()).hexdigest() == FIELD_GRID_DIGEST


def test_planted_spec_equals_its_loaded_document():
    """On `field_grid`, the spec `planted_field` builds is the spec its
    `gen_field` document loads as, down to the runs of one L (`cuts` and
    `rows`), which dataclass equality does not compare: the suite's field
    properties take the spec without a JSON round trip."""
    for case in field_grid():
        planted, loaded = planted_field(*case), serialize.field_spec_from_json(gen_field(*case)["payload"])
        assert planted == loaded, case
        assert (planted.subfield.cuts, planted.subfield.rows) == (loaded.subfield.cuts, loaded.subfield.rows), case


# Sweeps per generated field. Each took 10.7 on these documents (2,320 over
# 216) while the partition was the full set less the planted part, cut by
# `difference` and `intersection` sweeps.
MAX_GENERATION_SWEEPS = 0


def test_field_generation_takes_no_sweep(monkeypatch):
    """The partition is ordered once and read off one owner per region: the
    seed-1 `field_corpus` documents are generated without a subset sweep."""
    calls, sweep = [], subsets._sweep
    monkeypatch.setattr(subsets, "_sweep", lambda *args: calls.append(1) or sweep(*args))
    docs = [doc for defect in ("none", "points", "interval") for doc in corpus_fields(1, defect)]
    assert len(docs) == 216
    assert len(calls) <= MAX_GENERATION_SWEEPS * len(docs), len(calls)


def test_generated_matrices_take_no_per_scalar_draws(monkeypatch):
    """Matrices are drawn in batches: at the cap shape (6, 6, 6), only a
    document's scalar draws (its mode, ranks and generator count) go through
    `next_u64`, at most 10 per document, and no Fraction is built. One draw
    per real or imaginary part took 433 to 1,730 on the documents that draw
    a matrix, each through a Fraction."""
    calls, fractions = [], []
    original, new_fraction = SplitMix64.next_u64, F.__new__
    monkeypatch.setattr(SplitMix64, "next_u64", lambda self: calls.append(1) or original(self))
    monkeypatch.setattr(F, "__new__", lambda cls, *args, **kw: fractions.append(1) or new_fraction(cls, *args, **kw))
    for seed in range(4):
        for generate in (lambda: gen_right_ideal((6, 6, 6), seed), lambda: gen_module_submodule((6, 6, 6), 4, seed)):
            calls.clear()
            generate()
            assert len(calls) <= 10, (seed, len(calls))
    assert not fractions


def test_element_json_reads_a_non_contiguous_block():
    """x* has Fortran-ordered blocks: the float view is taken of a C-ordered
    copy, and gives the [re, im] pairs of the (re, im) stack, zeros' signs
    included."""
    x = rand_algebra_element(SplitMix64(3), AlgebraShape((2, 3))).adjoint()
    assert not x.blocks[1].flags.c_contiguous
    expected = [np.stack((b.real, b.imag), -1).tolist() for b in x.blocks]
    doc = serialize.element_to_json(x)
    assert doc["blocks"] == expected
    assert [np.signbit(b).tolist() for b in doc["blocks"]] == [np.signbit(b).tolist() for b in expected]
