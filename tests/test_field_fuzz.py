"""Mutation fuzzing of field documents through the console entry point.

Each case is a generated field document with one mutation in its payload:
a type swap, an exponent or decimal string where a rational belongs, an
integer past the digit cap, an interval with lo > hi, a point outside
[0, 1], unsorted or repeated breakpoints, a wrong number of pieces, or a
fiber dimension that does not match. Or its text has one fault anywhere: a
repeated key, deep nesting, or a NaN, Infinity or 1e400 literal. `check` and `witness` must each end
in exit 0 or 2, never a raised exception or the check-failed code 1, with
at most one stderr line, read at the file-descriptor level, and within a
time bound.
"""

import json
import time

from doc_paths import get, nodes, put, text_mutations
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from essmod import cli
from essmod.generate import gen_field

SECONDS = 5.0
NOT_RATIONAL = ["1e3", "1E2", "1e20000", "0.5", "-2.5e-1", ".5", "1.", "+1", " 1", "1/-2", "1/0", "nan", "inf"]
PAST_CAP = ["1" * 1001, "-" + "9" * 1001, "1/" + "3" * 1001, 10 ** 1000]
OUTSIDE = ["3/2", "2", "-1/2", "-1/1000", "1001/1000"]


def rationals(payload):
    """Paths of the rational strings (the only strings in a field payload)."""
    return [p for p, v in nodes(payload) if isinstance(v, str)]


def locations(payload):
    """Paths of the rationals that are points of [0, 1]: breakpoints,
    partition points and interval ends."""
    return [p for p in rationals(payload)
            if p[0] == "partition" or (p[0] == "generators" and p[2] == "breakpoints")]


def intervals(payload):
    return [p for p, v in nodes(payload) if isinstance(v, dict) and "lo" in v]


def lists_of(payload, test):
    """Paths of the nonempty lists for which test(path) holds."""
    return [p for p, v in nodes(payload) if isinstance(v, list) and v and test(p)]


def piece_lists(payload):
    """Lists whose length must match another: the partition, the bases, the
    generators' pieces, one piece's polynomials and one basis column."""
    return lists_of(payload, lambda p: p in (("partition",), ("subspace_bases",))
                    or (p[0] == "generators" and len(p) in (3, 4) and p[2] == "pieces")
                    or (p[0] == "subspace_bases" and len(p) == 3))


@st.composite
def mutated_documents(draw):
    d = draw(st.integers(1, 2))
    doc = gen_field(d, draw(st.integers(2, 4)), draw(st.integers(d, 3)),
                    draw(st.sampled_from(["none", "points", "interval"])), draw(st.integers(0, 5)))
    payload = doc["payload"]
    mutation = draw(st.sampled_from(["type", "not_rational", "past_cap", "lo_above_hi", "outside",
                                     "breakpoints", "piece_count", "d", "text"]))
    if mutation == "text":
        return draw(text_mutations(doc))
    if mutation == "type":
        path, _ = draw(st.sampled_from(nodes(payload)))
        put(payload, path, draw(st.sampled_from([5, -1, 0, 1.5, "x", None, True, [], {}, ["1/2", "0/1"], "1/2"])))
    elif mutation == "not_rational":
        put(payload, draw(st.sampled_from(rationals(payload))), draw(st.sampled_from(NOT_RATIONAL)))
    elif mutation == "past_cap":
        put(payload, draw(st.sampled_from(rationals(payload))), draw(st.sampled_from(PAST_CAP)))
    elif mutation == "lo_above_hi":
        iv = get(payload, draw(st.sampled_from(intervals(payload))))
        iv["lo"], iv["hi"] = iv["hi"], iv["lo"]
    elif mutation == "outside":
        put(payload, draw(st.sampled_from(locations(payload))), draw(st.sampled_from(OUTSIDE)))
    elif mutation == "breakpoints":
        bps = payload["generators"][draw(st.integers(0, len(payload["generators"]) - 1))]["breakpoints"]
        change = draw(st.sampled_from(["reverse", "swap", "repeat"]))
        if change == "reverse":
            bps.reverse()
        elif change == "swap":
            i = draw(st.integers(0, len(bps) - 2))
            bps[i], bps[i + 1] = bps[i + 1], bps[i]
        else:
            i = draw(st.integers(0, len(bps) - 1))
            bps.insert(i, bps[i])
    elif mutation == "piece_count":
        target = get(payload, draw(st.sampled_from(piece_lists(payload))))
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(json.loads(json.dumps(target[-1])))
    else:
        where = draw(st.sampled_from(["payload", "generator"]))
        owner = payload if where == "payload" else draw(st.sampled_from(payload["generators"]))
        owner["d"] = draw(st.sampled_from([owner["d"] - 1, owner["d"] + 1, 0, -1]))
    return mutation, json.dumps(doc)


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_documents())
def test_mutated_field_documents_end_in_an_exit_code(case, tmp_path, capfd):
    mutation, text = case
    path = tmp_path / "doc.json"
    path.write_text(text)
    for command in ("check", "witness"):
        capfd.readouterr()
        t0 = time.perf_counter()
        code = cli.main([command, "--in", str(path)])
        elapsed = time.perf_counter() - t0
        err = capfd.readouterr().err
        assert code in (0, 2), (mutation, command, code, err[:300])
        assert err.count("\n") <= 1, (mutation, command, err[:500])
        assert elapsed < SECONDS, (mutation, command, elapsed)
