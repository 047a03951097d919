"""Mutation fuzzing of float-stack documents through the console entry point.

Each case is a generated right-ideal or module document with one mutation
in its payload: a type swap, a huge finite float, NaN or inf, a block of the
wrong shape, coordinates over different shapes, or a k that does not match
the number of coordinates. Or its text has one fault anywhere: a repeated
key, deep nesting, or a NaN, Infinity or 1e400 literal. `check` and `witness` must each end in an exit
code, never a raised exception, with at most one stderr line, read at the
file-descriptor level so that lines LAPACK writes itself count, and within
a time bound. A mutated document may still be valid, but none may exit 1:
that code means a check failed, and a malformed input is not a failed check.
"""

import json
import time

from doc_paths import get, nodes, put, text_mutations
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from essmod import cli
from essmod.generate import gen_module_submodule, gen_right_ideal

SECONDS = 5.0
BLOCKS = [(1,), (2,), (1, 2), (2, 3)]


def entries(payload):
    """Paths of the [re, im] scalars."""
    return [p for p, v in nodes(payload)
            if isinstance(v, list) and len(v) == 2 and all(isinstance(z, float) for z in v)]


def blocks_of(payload):
    """Paths of the square blocks: lists of rows of scalars."""
    return [p for p, v in nodes(payload)
            if p and p[-2:-1] == ("blocks",) and isinstance(v, list) and v and isinstance(v[0], list)]


def elements(payload):
    """Paths of the algebra elements: dicts with a shape and blocks."""
    return [p for p, v in nodes(payload) if isinstance(v, dict) and "blocks" in v]


@st.composite
def mutated_documents(draw):
    if draw(st.booleans()):
        doc = gen_module_submodule(draw(st.sampled_from(BLOCKS)), draw(st.integers(1, 3)), draw(st.integers(0, 5)))
    else:
        doc = gen_right_ideal(draw(st.sampled_from(BLOCKS)), draw(st.integers(0, 5)))
    payload = doc["payload"]
    module = "k" in payload
    mutation = draw(st.sampled_from(
        ["type", "huge", "huge_block", "nonfinite", "block_shape", "shapes", "text", "k"] if module
        else ["type", "huge", "huge_block", "nonfinite", "block_shape", "shapes", "text"]
    ))
    if mutation == "text":
        return draw(text_mutations(doc))
    if mutation == "type":
        path, _ = draw(st.sampled_from(nodes(payload)))
        put(payload, path, draw(st.sampled_from([5, -1, 0, 1.5, "x", None, True, [], {}, [[1.0, 0.0]]])))
    elif mutation == "huge":
        scale = draw(st.sampled_from([1e150, 1e160, 1e200, 1e300, 1.7e308]))
        for _ in range(draw(st.integers(1, 3))):
            put(payload, draw(st.sampled_from(entries(payload))),
                [scale * draw(st.sampled_from([1.0, -1.0])), scale * draw(st.sampled_from([0.0, 1.0, -1.0]))])
    elif mutation == "huge_block":
        path = draw(st.sampled_from(blocks_of(payload)))
        scale = draw(st.sampled_from([1e150, 1e200, 1e308]))
        put(payload, path, [[[scale * z for z in e] for e in row] for row in get(payload, path)])
    elif mutation == "nonfinite":
        value = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        put(payload, draw(st.sampled_from(entries(payload))), draw(st.sampled_from([[value, 0.0], [0.0, value]])))
    elif mutation == "block_shape":
        path = draw(st.sampled_from(blocks_of(payload)))
        rows = get(payload, path)
        change = draw(st.sampled_from(["drop_row", "add_row", "drop_entry", "add_entry", "drop_block"]))
        if change == "drop_row":
            rows.pop()
        elif change == "add_row":
            rows.append(list(rows[0]))
        elif change == "drop_entry":
            rows[draw(st.integers(0, len(rows) - 1))].pop()
        elif change == "add_entry":
            rows[draw(st.integers(0, len(rows) - 1))].append([0.0, 0.0])
        else:
            get(payload, path[:-1]).pop(path[-1])
    elif mutation == "shapes":
        other = draw(st.sampled_from([b for b in BLOCKS if list(b) != payload["shape"]["block_dims"]]))
        put(payload, draw(st.sampled_from(elements(payload))), gen_right_ideal(other, 0)["payload"]["support_projection"])
    else:
        gen = draw(st.sampled_from(payload["generators"]))
        change = draw(st.sampled_from(["payload_k", "element_k", "drop_coord", "extra_coord"]))
        if change == "payload_k":
            payload["k"] += draw(st.sampled_from([-1, 1]))
        elif change == "element_k":
            gen["k"] += draw(st.sampled_from([-1, 1]))
        elif change == "drop_coord":
            gen["coords"].pop()
        else:
            gen["coords"].append(gen["coords"][0])
    return mutation, json.dumps(doc)


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_documents())
def test_mutated_float_documents_end_in_an_exit_code(case, tmp_path, capfd):
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
