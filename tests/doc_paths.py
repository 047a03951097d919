"""Paths into JSON documents, for the mutation fuzz tests: a path is the
tuple of keys and indices that leads from a document to one of its values.
`text_mutations` writes faults that only the text of a document can hold."""

import json

from hypothesis import strategies as st

# Stands in for the value a text mutation replaces; no generated document holds a NUL.
MARK = "\u0000mark\u0000"
LITERALS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]


def nodes(doc, path=()):
    """Every (path, value) below doc, containers included."""
    out = [(path, doc)] if path else []
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return out
    for key, value in items:
        out.extend(nodes(value, path + (key,)))
    return out


def put(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def text_mutations(draw, doc):
    """(mutation, text): the JSON text of doc with one fault that json.dumps
    cannot write: a key repeated in one object, one value wrapped in 2 to
    5,000 nested lists, or a NaN, Infinity or 1e400 literal in place of one
    value."""
    targets = [((), doc)] + nodes(doc)
    mutation = draw(st.sampled_from(["duplicate_key", "nesting", "literal"]))
    if mutation == "duplicate_key":
        path, obj = draw(st.sampled_from([(p, v) for p, v in targets if isinstance(v, dict) and v]))
        key = draw(st.sampled_from(sorted(obj)))
        text = "{" + json.dumps(key) + ": " + json.dumps(obj[key]) + ", " + json.dumps(obj)[1:]
    else:
        path, value = draw(st.sampled_from(targets[1:]))
        if mutation == "nesting":
            depth = draw(st.integers(2, 5000))
            text = "[" * depth + json.dumps(value) + "]" * depth
        else:
            text = draw(st.sampled_from(LITERALS))
    if not path:
        return mutation, text
    marked = json.loads(json.dumps(doc))
    put(marked, path, MARK)
    return mutation, json.dumps(marked).replace(json.dumps(MARK), text)
