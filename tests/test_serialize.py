import time
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essmod import runner, serialize
from essmod.algebra import AlgebraElement, AlgebraShape, ideal_from_projection
from essmod.errors import SchemaError
from essmod.fields import FieldModuleSpec, FieldPiece, SubspaceField
from essmod.generate import SplitMix64, rand_algebra_element, rand_module_element
from essmod.modules import Submodule, module_basis
from essmod.polynomials import GaussianPoly
from essmod.rationals import cr, mat, mat_identity
from essmod.sections import PiecewiseSection, bump
from essmod.subsets import SymbolicSubset

MIXED = AlgebraShape((1, 2))


def test_fraction_roundtrip():
    assert serialize.frac_from_json(serialize.frac_to_json(F(-3, 7))) == F(-3, 7)
    assert serialize.frac_to_json(F(2)) == "2/1"
    with pytest.raises(SchemaError):
        serialize.frac_from_json("1/0")
    with pytest.raises(SchemaError):
        serialize.frac_from_json(1.5)


NOT_RATIONAL = ["0.5", "1e3", "1E3", ".5", "1/2.0", " 1/2", "1/2 ", "+1", "1_000",
                "1/-2", "--1", "\u0661", "", "1/", "/2", "inf", "nan"]


@pytest.mark.parametrize("text", NOT_RATIONAL)
def test_fraction_grammar_is_strict(text):
    """Only p/q or p with decimal integers: Fraction's own grammar also
    takes decimals, exponents, spaces and underscores."""
    with pytest.raises(SchemaError):
        serialize.frac_from_json(text)


def test_fraction_exponent_is_rejected_fast():
    """"1e4000000" is nine characters, but Fraction builds a 13M-bit integer
    from it: the cost grew with the magnitude, not with the text."""
    t0 = time.perf_counter()
    with pytest.raises(SchemaError):
        serialize.frac_from_json("1e4000000")
    assert time.perf_counter() - t0 < 0.5


def test_fraction_digit_cap_and_short_errors():
    cap = serialize.MAX_DIGITS
    assert serialize.frac_from_json("-" + "7" * cap + "/" + "9" * cap) == F(-int("7" * cap), int("9" * cap))
    for text in ("1" * (cap + 1), "1/" + "3" * (cap + 1), "1" * 5001 + "/1"):
        with pytest.raises(SchemaError) as err:
            serialize.frac_from_json(text)
        assert len(str(err.value)) < 120
    with pytest.raises(SchemaError) as err:
        serialize.frac_from_json(["1/2"] * 1000)
    assert len(str(err.value)) < 120


def fraction_path_poly(doc) -> GaussianPoly:
    """The loader's former path, kept as an oracle: every coefficient as a
    Fraction pair, through crat_from_json, into the public constructor."""
    return GaussianPoly.from_coeffs([serialize.crat_from_json(c) for c in doc])


def loaded_poly(doc) -> GaussianPoly:
    """The polynomial doc as the loader reads it: one piece of a section."""
    return serialize.section_from_json({"d": 1, "breakpoints": ["0", "1"], "pieces": [[doc]]}).pieces[0][0]


rational_texts = st.one_of(
    st.sampled_from(["0", "-0", "0/7", "2/4", "-2/4", "6/3", "1", "-12/8"]),
    st.builds("{}/{}".format, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)),
    st.integers(-10 ** 30, 10 ** 30).map(str),
)
coefficient_lists = st.builds(
    lambda cs, zeros: cs + zeros,
    st.lists(st.lists(rational_texts, min_size=2, max_size=2), max_size=6),
    st.lists(st.sampled_from([["0", "0"], ["0/7", "-0/3"], ["0", "0/1"]]), max_size=3),
)


@settings(deadline=None, max_examples=300)
@given(coefficient_lists)
def test_polynomial_parse_matches_fraction_path(doc):
    """Numerators over the lcm of the written denominators, reduced once,
    give the lowest-terms polynomial the Fraction path gives."""
    poly = loaded_poly(doc)
    assert poly == fraction_path_poly(doc)
    for k, part in enumerate((poly.re, poly.im)):
        values = [F(c[k]) for c in doc]
        while values and not values[-1]:
            values.pop()
        assert part.coeffs == tuple(values)
        assert part.den > 0 and gcd(part.den, *part.nums) == 1


@pytest.mark.parametrize("bad", NOT_RATIONAL + [1.5, None, ["1"], "1" * 1001, "1/0"])
def test_polynomial_parse_errors_match_fraction_path(bad):
    """A bad coefficient gives the SchemaError message of the Fraction path,
    in either part and in any position."""
    for pos, part in ((0, 0), (1, 1), (2, 0)):
        doc = [["1/2", "0"], ["-3", "1/3"], ["0", "0"]]
        doc[pos][part] = bad
        for cut in (doc, [*doc[:pos], bad]):  # the bad value as a part, or as the [re, im] pair
            with pytest.raises(SchemaError) as expected:
                fraction_path_poly(cut)
            with pytest.raises(SchemaError) as got:
                loaded_poly(cut)
            assert str(got.value) == str(expected.value)


def test_algebra_element_roundtrip():
    rng = SplitMix64(71)
    a = rand_algebra_element(rng, MIXED)
    doc = serialize.element_to_json(a)
    back = serialize.element_from_json(doc)
    assert back.distance(a) == 0.0
    # blocks serialize as nested [re, im] pairs
    assert isinstance(doc["blocks"][0][0][0], list) and len(doc["blocks"][0][0][0]) == 2


def test_element_block_shape_mismatch_rejected():
    doc = serialize.element_to_json(AlgebraElement.identity(MIXED))
    doc["blocks"][1] = [[[1.0, 0.0]]]  # wrong size for a 2x2 block
    with pytest.raises(SchemaError):
        serialize.element_from_json(doc)


def test_right_ideal_roundtrip():
    ideal = ideal_from_projection(AlgebraElement.identity(MIXED))
    back, gens = runner._right_ideal_from_payload(serialize.ideal_to_json(ideal))
    assert back.support_projection.distance(ideal.support_projection) == 0.0
    assert gens == []
    bad = serialize.ideal_to_json(ideal)
    bad["support_projection"]["blocks"][0][0][0] = [0.5, 0.0]
    with pytest.raises(SchemaError):
        runner._right_ideal_from_payload(bad)


def test_module_element_and_submodule_roundtrip():
    rng = SplitMix64(72)
    x = rand_module_element(rng, MIXED, 3)
    back = serialize.module_element_from_json(serialize.module_element_to_json(x))
    assert (back - x).norm() == 0.0
    n = Submodule(MIXED, 2, tuple(module_basis(MIXED, 2)))
    payload = {
        "shape": serialize.shape_to_json(n.shape),
        "k": n.k,
        "generators": [serialize.module_element_to_json(g) for g in n.generators],
    }
    back_n = serialize.submodule_from_json(payload)
    assert back_n.same_span(n)


def test_subset_roundtrip():
    s = SymbolicSubset.interval(F(1, 3), F(2, 3), False, True) | SymbolicSubset.point(F(1, 8))
    assert serialize.subset_from_json(serialize.subset_to_json(s)) == s


def test_section_roundtrip_exact():
    a = bump(F(1, 4), F(3, 4)).scale(cr(F(2, 3), F(1, 7)))
    back = serialize.section_from_json(serialize.section_to_json(a))
    assert back.equals(a)


def test_section_discontinuity_rejected():
    doc = {
        "d": 1,
        "breakpoints": ["0/1", "1/2", "1/1"],
        "pieces": [[[["0/1", "0/1"]]], [[["1/1", "0/1"]]]],
    }
    with pytest.raises(SchemaError, match="discontinuity"):
        serialize.section_from_json(doc)


def test_field_spec_roundtrip():
    field = SubspaceField(
        2,
        (
            FieldPiece(SymbolicSubset.interval(F(0), F(1, 2), True, True), mat([[1], [1]])),
            FieldPiece(SymbolicSubset.interval(F(1, 2), F(1), False, True), mat_identity(2)),
        ),
    )
    spec = FieldModuleSpec(
        2,
        (PiecewiseSection.constant([1, 0]), PiecewiseSection.constant([0, 1])),
        field,
    )
    doc = serialize.field_spec_to_json(spec)
    back = serialize.field_spec_from_json(doc)
    assert back.d == 2 and len(back.subfield.pieces) == 2
    assert back.subfield.pieces[0].region == field.pieces[0].region
    assert back.generators[0].equals(spec.generators[0])


def test_field_spec_partition_errors_surface_as_schema_errors():
    doc = {
        "d": 1,
        "partition": [serialize.subset_to_json(SymbolicSubset.interval(F(0), F(1, 2)))],
        "subspace_bases": [[[["1/1", "0/1"]]]],
        "generators": [serialize.section_to_json(PiecewiseSection.constant([1]))],
    }
    with pytest.raises(SchemaError, match="cover"):
        serialize.field_spec_from_json(doc)


def test_instance_validation():
    doc = serialize.instance_to_json("right_ideal", {"support_projection": {}}, 7)
    kind, payload = serialize.validate_instance(doc)
    assert kind == "right_ideal" and "support_projection" in payload
    with pytest.raises(SchemaError, match="schema"):
        serialize.validate_instance({"schema": "essmod/999", "kind": "field", "payload": {}})
    with pytest.raises(SchemaError, match="kind"):
        serialize.validate_instance({"schema": "essmod/1", "kind": "nope", "payload": {}})
    with pytest.raises(SchemaError, match="payload"):
        serialize.validate_instance({"schema": "essmod/1", "kind": "field"})
    with pytest.raises(SchemaError, match="seed"):
        serialize.validate_instance(
            {"schema": "essmod/1", "kind": "field", "payload": {}, "seed": -3}
        )


def test_canonical_json_and_digest_are_stable():
    doc = {"b": [1, 2], "a": {"y": 1, "x": 2}}
    s1 = serialize.canonical_json(doc)
    s2 = serialize.canonical_json({"a": {"x": 2, "y": 1}, "b": [1, 2]})
    assert s1 == s2
    assert serialize.digest(doc) == serialize.digest({"b": [1, 2], "a": {"y": 1, "x": 2}})
