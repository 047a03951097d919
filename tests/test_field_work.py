"""The work of the non-essential field witness, counted call by call.

Over the seed-1 `field_corpus` documents with a planted interval defect
(tests/field_docs.py), every `subsets._sweep` and `sections.from_coeffs`
call made while `runner._non_essential_witnesses` runs is counted; the
decision it starts from is taken before counting. The counts are
deterministic: they depend on the documents, not on timing.
"""

import pytest
from field_docs import corpus_fields

import essmod
from essmod import fields, runner, serialize

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
        runner._non_essential_witnesses(spec, decision, 8)
    assert calls["_sweep"] <= MAX_SWEEPS * len(decided), calls
    assert calls["from_coeffs"] <= MAX_FROM_COEFFS * len(decided), calls
