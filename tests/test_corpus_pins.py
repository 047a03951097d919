"""Byte identity of the benchmark corpora, in tier-1.

For `float_corpus` and `field_corpus` (tests/float_docs.py and
tests/field_docs.py restate their documents) and seeds 1 and 2, one sha256
covers the `run_check` and `run_witness` outcomes of every document, in
corpus order: a report as its canonical JSON without `timing_ms`, a
refusal as its error class and message, one outcome per line. Every
seed-1 report also passes the independent oracle of tests/report_oracle.py.

The sub-second rows of the coefficient-size series (tests/series_docs.py)
have one such sha256 as well, every report verified; the illegal twin's
refusals are two of its lines. So do the documents of tests/hard_docs.py,
which reach the exact deciders' rare branches (tests/test_reach.py).

Exact-stack reports may not move at all. Float numbers may move within
1e-12: a change that moves them re-pins the float digests and states in
CHANGES.md the largest change of each number, and that no decision,
`checks_ok`, `rank` or refusal moved.
"""

import hashlib
import json

import pytest
import report_oracle
from field_docs import corpus_fields
from float_docs import corpus_floats
from hard_docs import hard_docs
from series_docs import SERIES_ROWS, row_doc

from essmod import runner, serialize
from essmod.errors import EssmodError

CORPORA = {"float_corpus": corpus_floats, "field_corpus": corpus_fields}

OUTCOME_DIGESTS = {
    ("float_corpus", 1): "1fe1fb3fa92aa1d5b642d86852877a4f063bca0b29f120bd8feecd7004be6f0d",
    ("float_corpus", 2): "dc1ab0e251d87c67fc087b7dbeff8b6911acb752804b6de139aa00cf1dac07da",
    ("field_corpus", 1): "02332a35457aab05a960bb768827ca3971a0cd8a3bd6b4f0f6c523cdb92d4572",
    ("field_corpus", 2): "56d80c6879312ad8ffbb3902887fb7fc64a4138bef7a9d00521dbc4f6ca04141",
}

SERIES_DIGEST = "13a98094b3d20104baa298bc7a26cc8514a48e1ce8467e99ee7a9d0c93595fb8"

HARD_DIGEST = "e531d70f736df9d6828d3efaf1c750cef1888f0b507fd1cebb3e1757562d8ff7"


def outcome_lines(doc, verify: bool):
    """The canonical check and witness outcomes of one document."""
    for call in (runner.run_check, runner.run_witness):
        try:
            report = json.loads(serialize.dumps(call(doc)))
        except EssmodError as exc:
            yield f"{type(exc).__name__}: {exc}"
            continue
        if verify:
            report_oracle.verify(doc, report)
        del report["timing_ms"]
        yield serialize.canonical_json(report)


@pytest.mark.parametrize("corpus, seed", list(OUTCOME_DIGESTS))
def test_corpus_outcomes_are_pinned(corpus, seed):
    docs = CORPORA[corpus](seed)
    h = hashlib.sha256()
    for doc in docs:
        for line in outcome_lines(doc, verify=seed == 1):
            h.update(line.encode() + b"\n")
    assert len(docs) == {"float_corpus": 360, "field_corpus": 216}[corpus]
    assert h.hexdigest() == OUTCOME_DIGESTS[corpus, seed]


def test_series_outcomes_are_pinned():
    h = hashlib.sha256()
    for row in SERIES_ROWS:
        for line in outcome_lines(row_doc(*row), verify=True):
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == SERIES_DIGEST


def test_hard_outcomes_are_pinned():
    h = hashlib.sha256()
    for _, doc in hard_docs():
        for line in outcome_lines(doc, verify=True):
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == HARD_DIGEST
