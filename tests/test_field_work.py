"""The work of the field decision and witnesses, counted call by call.

Over the seed-1 `field_corpus` documents with a planted interval defect
(tests/field_docs.py), every `subsets._sweep` and `sections.from_coeffs`
call made while `runner._non_essential_witnesses` runs is counted; the
decision it starts from is taken before counting. Over the first 24
documents, the atom lists, spanning sweeps and residual roots of `check`
and `witness` are counted, and the gcd work of the spanning certificate
over those documents and the coefficient-size series (tests/series_docs.py).
The counts are deterministic: they depend on the documents, not on timing.
"""

import pytest
from field_docs import corpus_fields
from series_docs import SERIES_ROWS, row_doc

import essmod
from essmod import fields, polynomials, runner, serialize
from essmod.errors import GeneratorsNotSpanning

# Calls per witness. Each witness took 12 sweeps and 27 `from_coeffs` calls
# while a closure took one constructor sweep and an interior three (a
# complement, a closure and a complement), a section's support set took
# its zero set's constructor sweep and a complement sweep, and every bump
# term, λ test and bump was one `from_coeffs` over Fraction coefficients.
MAX_SWEEPS = 0
MAX_FROM_COEFFS = 0


@pytest.fixture(scope="module")
def decided() -> list:
    """(spec, decision) of each seed-1 interval document."""
    docs = corpus_fields(1, "interval")
    specs = [serialize.field_spec_from_json(doc["payload"]) for doc in docs]
    return [(spec, fields.is_essential_field(spec)) for spec in specs]


def test_non_essential_witness_takes_no_sweep_and_no_fraction_piece(decided, monkeypatch):
    """Closure, interior and support sets are read off normal forms and
    ordered walks, and the bump terms are integer pieces: no witness sweeps
    a subset or builds a piece from Fraction coefficients."""
    calls = {"_sweep": 0, "from_coeffs": 0}

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for module in (essmod.subsets, essmod.sections, essmod.fields, essmod.runner):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert len(decided) == 72 and not any(decision.essential for _, decision in decided)
    for spec, decision in decided:
        runner._non_essential_witnesses(fields.non_essential_witnesses(spec, decision.analysis, 8))
    assert calls["_sweep"] <= MAX_SWEEPS * len(decided), calls
    assert calls["from_coeffs"] <= MAX_FROM_COEFFS * len(decided), calls


# The field decision and the field witnesses over the first 24 seed-1
# `field_corpus` documents, each through `run_check` and `run_witness`.
# Before atoms were shared, each analysis built one atom list per generator:
# 234 lists, where the generators have 48 distinct breakpoint tuples. Each
# spanning cell built its rest by a constructor and a difference sweep: 96
# sweeps. The witnesses' emptiness tests found residual roots: 8
# `exact_zero_points` calls beyond those of the sets the witnesses report.
FIELD_ATOM_LISTS = 48
SPANNING_SWEEPS = 0
EMPTINESS_ZERO_POINTS = 0


def test_field_decisions_build_only_what_they_report(monkeypatch):
    """An analysis builds one atom list per distinct generator breakpoint
    tuple, the spanning certificate builds no subset for a cell, and a
    witness finds no root beyond those of the sets it reports."""
    docs = corpus_fields(1)[:24]
    counts, active, witnesses = {}, [], []

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            for key in (name, *((outer, name) for outer in active)):
                counts[key] = counts.get(key, 0) + 1
            active.append(name)
            try:
                result = original(*args, **kwargs)
            finally:
                active.pop()
            if name.endswith("_witness"):
                witnesses.append((name, args, result))
            return result
        monkeypatch.setattr(module, name, call)

    for module, name in ((fields, "analyze_field"), (fields, "field_atoms"), (fields, "check_generator_spanning"),
                         (essmod.subsets, "_sweep"), (fields, "exact_zero_points"),
                         (fields, "essential_witness"), (fields, "non_essential_witness")):
        counted(module, name)
    distinct = 0
    for doc in docs:
        spec = serialize.field_spec_from_json(doc["payload"])
        distinct += 2 * len({g.breakpoints for g in spec.generators})  # one analysis in check, one in witness
        runner.run_check(doc)
        runner.run_witness(doc)
    assert counts["analyze_field"] == 48
    assert counts[("analyze_field", "field_atoms")] == distinct == FIELD_ATOM_LISTS
    assert counts.get(("check_generator_spanning", "_sweep"), 0) == SPANNING_SWEEPS
    in_witnesses = sum(counts.get((w, "exact_zero_points"), 0) for w in ("essential_witness", "non_essential_witness"))

    # the roots of the sets the witnesses report: the support of m (essential),
    # or the support and the residual set of m·a (non-essential)
    before = counts.get("exact_zero_points", 0)
    for name, (m, field, _), w in witnesses:
        if name == "essential_witness":
            fields.support_set(m)
        else:
            fields.support_set(w.ma)
            fields.residual_set(w.ma, field)
    assert len(witnesses) == 24
    assert in_witnesses - (counts["exact_zero_points"] - before) == EMPTINESS_ZERO_POINTS


# The spanning certificate's gcd work, per set of documents: `fields.poly_gcd`
# calls, how many of them ran an exact remainder sequence, the `_prem` steps
# inside them, and the minors `fields._minors` yielded. Pinned while every
# gcd of two nonzero operands ran the exact remainder sequence: a cell's
# first gcd, of [] and one minor coefficient, runs none, so each corpus cell
# stops after one minor, and 150 of the 160 series gcd calls run one. Over
# all of `check`: the Sturm chains built (`polynomials._sturm_chain`), and
# the largest coefficient bit length in any `_remainder_sequence`, gcd or
# chain. The corpus residual sets find no common zero, so build no chain;
# the series chains are the root searches of the spanning certificate.
SPANNING_GCD_WORK = {
    "corpus": {"poly_gcd": 24, "remainder_sequences": 0, "prem": 0, "minors": 24,
               "sturm_chains": 0, "max_coeff_bits": 6},
    "series": {"poly_gcd": 160, "remainder_sequences": 150, "prem": 246, "minors": 81,
               "sturm_chains": 6, "max_coeff_bits": 88_991},
}


def test_spanning_gcd_work_is_pinned(monkeypatch):
    """`check` over the first 24 seed-1 field documents and over the
    sub-second series rows: the illegal twin is refused, every other
    document decided, and the spanning gcd work equals the pin."""
    work, inside = {}, []

    def gcd(a, b):
        work["poly_gcd"] += 1
        inside.append(False)
        try:
            return original_gcd(a, b)
        finally:
            work["remainder_sequences"] += inside.pop()

    def remainder_sequence(a, b):
        if inside:
            inside[-1] = True
        seq = original_sequence(a, b)
        work["max_coeff_bits"] = max(work["max_coeff_bits"], *(abs(c).bit_length() for q in seq for c in q))
        return seq

    def sturm_chain(cs):
        work["sturm_chains"] += 1
        return original_chain(cs)

    def prem(a, b):
        if inside:
            work["prem"] += 1
        return original_prem(a, b)

    def minors(gens, d):
        for minor in original_minors(gens, d):
            work["minors"] += 1
            yield minor

    documents = {"corpus": [(doc, False) for doc in corpus_fields(1)[:24]],
                 "series": [(row_doc(*row), row[2] == "illegal") for row in SERIES_ROWS]}
    original_gcd, original_sequence = fields.poly_gcd, polynomials._remainder_sequence
    original_prem, original_minors = polynomials._prem, fields._minors
    original_chain = polynomials._sturm_chain
    monkeypatch.setattr(fields, "poly_gcd", gcd)
    monkeypatch.setattr(polynomials, "_remainder_sequence", remainder_sequence)
    monkeypatch.setattr(polynomials, "_prem", prem)
    monkeypatch.setattr(fields, "_minors", minors)
    monkeypatch.setattr(polynomials, "_sturm_chain", sturm_chain)
    counted = {}
    for label, docs in documents.items():
        work.update(poly_gcd=0, remainder_sequences=0, prem=0, minors=0, sturm_chains=0, max_coeff_bits=0)
        for doc, refused in docs:
            if refused:
                with pytest.raises(GeneratorsNotSpanning):
                    runner.run_check(doc)
            else:
                runner.run_check(doc)
        counted[label] = dict(work)
    assert counted == SPANNING_GCD_WORK
