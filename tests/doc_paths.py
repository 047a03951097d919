"""Paths into JSON documents, for the mutation fuzz tests: a path is the
tuple of keys and indices that leads from a document to one of its values."""


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
