from fractions import Fraction as F

import pytest

from essmod import serialize
from essmod.errors import SizeCap
from essmod.fields import analyze_field, is_essential_field
from essmod.generate import (
    SplitMix64,
    gen_field,
    gen_module_submodule,
    gen_right_ideal,
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
        assert ideal.contains(g)


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
