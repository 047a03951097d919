import time
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import projector_oracle
from field_docs import subset_from_json
from float_oracle import same_span
from poly_oracle import GaussianPoly, RationalPoly, piece, polys
from projector_oracle import clear_denominators, crat_from_json, fraction_poly_json

from essmod import rationals, serialize
from essmod.algebra import AlgebraElement, AlgebraShape, RightIdeal
from essmod.errors import SchemaError
from essmod.fields import FieldModuleSpec, FieldPiece, SubspaceField
from essmod.generate import SplitMix64, gen_field, rand_algebra_element, rand_module_element
from essmod.modules import Submodule, module_basis
from essmod.rationals import annihilator, identity_columns
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
    return GaussianPoly.from_coeffs([(z.re, z.im) for z in map(crat_from_json, doc)])


def loaded_piece(doc) -> tuple:
    """The polynomial doc as the loader reads it: one piece (D, cols) of a section."""
    return serialize.section_from_json({"d": 1, "breakpoints": ["0", "1"], "pieces": [[doc]]}).pieces[0]


def loaded_poly(doc) -> GaussianPoly:
    """The polynomial doc as the loader reads it, as a reference polynomial."""
    return polys(loaded_piece(doc))[0]


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
    give the lowest-terms piece the Fraction path gives."""
    den, cols = loaded_piece(doc)
    assert (den, cols) == piece((fraction_path_poly(doc),))
    assert den > 0 and gcd(den, *(t for ((x, y),) in cols for t in (x, y))) == 1
    assert len(cols) == 1 or cols[-1] != ((0, 0),)
    for k, part in enumerate((loaded_poly(doc).re, loaded_poly(doc).im)):
        values = [F(c[k]) for c in doc]
        while values and not values[-1]:
            values.pop()
        assert part.coeffs == tuple(values)


# parts of independent lengths, each possibly zero or with a huge entry
part_coeffs = st.lists(st.one_of(st.fractions(max_denominator=10 ** 6), st.integers(-10 ** 40, 10 ** 40),
                                 st.just(F(0))), max_size=5)


@settings(deadline=None, max_examples=300)
@given(part_coeffs, part_coeffs)
def test_polynomial_print_matches_fraction_printing(re, im):
    """Coefficients printed from the piece's integer columns over its
    denominator, each part in lowest terms, match the per-Fraction printing,
    and read back as p."""
    p = GaussianPoly(RationalPoly(re), RationalPoly(im))
    (doc,) = serialize._piece_to_json(piece((p,)))
    assert doc == fraction_poly_json(p)
    assert len(doc) == p.degree + 1
    assert loaded_poly(doc) == p


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


def test_scalar_parse_memo_never_keeps_a_failure():
    """Scalar parses are memoized by string. A failure is raised again, with
    the same message, on every call, and a non-string never reaches the
    memo, so it gives a SchemaError, not an unhashable-type TypeError."""
    for bad in [*NOT_RATIONAL, "1" * (serialize.MAX_DIGITS + 1), "1/0"]:
        messages = []
        for _ in range(2):
            with pytest.raises(SchemaError) as err:
                serialize.frac_from_json(bad)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    for bad in (["1/2"], {"p": "1/2"}, 1, None, True):
        for _ in range(2):
            with pytest.raises(SchemaError, match="^expected rational string"):
                serialize.frac_from_json(bad)
    assert serialize.frac_from_json("-6/4") == serialize.frac_from_json("-6/4") == F(-3, 2)


def loaded_field(basis_doc, d) -> SubspaceField:
    """The one-piece field of a document with this basis, as the loader reads it."""
    return serialize.field_spec_from_json({
        "d": d,
        "partition": [serialize.subset_to_json(SymbolicSubset.interval(0, 1))],
        "subspace_bases": [basis_doc],
        "generators": [serialize.section_to_json(PiecewiseSection.polynomial([[1]] * d))],
    }).subfield


entry_texts = st.one_of(
    st.sampled_from(["0", "-0", "0/1", "0/7", "2/4", "-2/4", "10/6", "-12/4", "1", "-3"]),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 30)),
)


@st.composite
def basis_documents(draw):
    """d from 1 to 4 and up to d + 1 written columns, some of them zero."""
    d = draw(st.integers(1, 4))
    zero = st.sampled_from(["0", "0/1", "0/7", "-0/3"])
    cols = [
        [[draw(texts), draw(texts)] for _ in range(d)]
        for texts in draw(st.lists(st.sampled_from([entry_texts, entry_texts, zero]), max_size=d + 1))
    ]
    return d, cols


@settings(deadline=None, max_examples=300)
@given(basis_documents())
@example((1, [[["1", "1/2"]]]))  # only an imaginary part has a denominator
def test_basis_parse_matches_fraction_path(case):
    """A column loads as its written entries times the lcm of their
    denominators, as written, not reduced: a positive integer multiple of
    the Fraction path's lowest-terms column, with the same annihilator."""
    d, doc = case
    field = loaded_field(doc, d)
    cleared = tuple(clear_denominators([crat_from_json(e) for e in col]) for col in doc)
    assert set(field.rows) == {annihilator(cleared, d)}
    for got, want in zip(field.pieces[0].basis, cleared, strict=True):
        assert all(type(t) is int for z in got for t in z)
        nonzero = [(g, w) for gz, wz in zip(got, want) for g, w in zip(gz, wz) if w]
        k = F(*nonzero[0]) if nonzero else 1
        assert k > 0 and k.denominator == 1 and got == tuple((k * x, k * y) for x, y in want)


@pytest.mark.parametrize("doc, message", [
    ("x", "basis must be a list, got str"),
    (["x"], "basis column must be a list, got str"),
    ([[["1", "0"]]], "basis column of length 1, expected 2"),
    ([[["1", "0"]], [["x", "0"], ["1", "0"]]], "bad rational 'x': expected p/q with decimal integers p, q"),
    ([[["1", "0"], ["0", "1/0"]]], "bad rational '1/0': zero denominator"),
    ([[["1", "0"], [1, "0"]]], "expected rational string, got 1"),
    ([[["1", "0", "0"], ["1", "0"]]], "expected [re, im] rational pair, got ['1', '0', '0']"),
    ([[["1", "0"], ["1" * 1001, "0"]]],
     "bad rational '" + "1" * 39 + "...: an integer has more than 1000 digits"),
])
def test_malformed_basis_keeps_its_message(doc, message):
    """Every entry is read before any column length is checked, as before."""
    with pytest.raises(SchemaError) as err:
        loaded_field(doc, 2)
    assert str(err.value) == message


def test_field_loading_builds_no_complex_rational(monkeypatch):
    """Bases load straight into Gaussian-integer columns, polynomials into
    integer numerators, and a section's continuity is checked on integers:
    the library has no Gaussian-rational type, and loading builds none of
    the test oracle's either."""
    assert not hasattr(rationals, "ComplexRational") and not hasattr(rationals, "cr")
    docs = [gen_field(d, pieces, max(gens, d), defect, 7)
            for d in (1, 2, 3, 4) for defect in ("none", "points", "interval") for pieces, gens in ((2, 1), (16, 8))]
    two_piece = serialize.section_to_json(
        bump(F(0), F(1, 2)).mul_scalar_section(PiecewiseSection.polynomial([[(F(2, 3), F(1, 7))]])))

    def refuse(self):
        raise AssertionError("a ComplexRational was built")

    monkeypatch.setattr(projector_oracle.ComplexRational, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        projector_oracle.cr(1)
    for doc in docs:
        spec = serialize.field_spec_from_json(doc["payload"])
        assert len(spec.subfield.pieces) == len(doc["payload"]["partition"])
    assert len(serialize.section_from_json(two_piece).pieces) == 2


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
    ideal = RightIdeal(AlgebraElement.identity(MIXED))
    payload = {
        "shape": serialize.shape_to_json(ideal.shape),
        "support_projection": serialize.element_to_json(ideal.support_projection),
    }
    back, gens = serialize.right_ideal_from_json(payload)
    assert back.support_projection.distance(ideal.support_projection) == 0.0
    assert gens == []
    payload["support_projection"]["blocks"][0][0][0] = [0.5, 0.0]
    with pytest.raises(SchemaError):
        serialize.right_ideal_from_json(payload)


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
    assert same_span(back_n, n)


def test_subset_roundtrip():
    s = SymbolicSubset.interval(F(1, 3), F(2, 3), False, True).union(SymbolicSubset(points=(F(1, 8),)))
    assert subset_from_json(serialize.subset_to_json(s)) == s


def test_section_roundtrip_exact():
    a = bump(F(1, 4), F(3, 4)).mul_scalar_section(PiecewiseSection.polynomial([[(F(2, 3), F(1, 7))]]))
    back = serialize.section_from_json(serialize.section_to_json(a))
    assert (back - a).is_zero()


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
            FieldPiece(SymbolicSubset.interval(F(0), F(1, 2), True, True), (((1, 0), (1, 0)),)),
            FieldPiece(SymbolicSubset.interval(F(1, 2), F(1), False, True), identity_columns(2)),
        ),
    )
    spec = FieldModuleSpec(
        2,
        (PiecewiseSection.polynomial([[1], [0]]), PiecewiseSection.polynomial([[0], [1]])),
        field,
    )
    doc = serialize.field_spec_to_json(spec)
    back = serialize.field_spec_from_json(doc)
    assert back.d == 2 and len(back.subfield.pieces) == 2
    assert back.subfield.pieces[0].region == field.pieces[0].region
    assert (back.generators[0] - spec.generators[0]).is_zero()


def test_field_spec_partition_errors_surface_as_schema_errors():
    doc = {
        "d": 1,
        "partition": [serialize.subset_to_json(SymbolicSubset.interval(F(0), F(1, 2)))],
        "subspace_bases": [[[["1/1", "0/1"]]]],
        "generators": [serialize.section_to_json(PiecewiseSection.polynomial([[1]]))],
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
