"""Every statement of the exact deciders' root and rank kernels is reached
by a pinned document.

A stdlib `sys.settrace` line counter runs `run_check` and `run_witness` on
the documents of tests/hard_docs.py and the rows of SERIES_ROWS, whose
outcomes tests/test_corpus_pins.py pins. It asserts that every statement
inside a function of `polynomials` and `rationals`, and inside `fields`'
`_minors`, `_rank_drop`, `_root_in`, `check_generator_spanning`, `_walk`
and `_residual_set`, ran at least once, so a wrong rewrite of any of them
moves a pinned outcome or is a dead line. A statement counts as reached
when one of its lines runs; a compound statement's lines are its header's.
Module-level statements run at import and are not counted. EXEMPT names
each statement no document reaches, by its text, with the reason.
"""

import ast
import inspect
import sys

from hard_docs import hard_docs
from series_docs import SERIES_ROWS, row_doc

from essmod import fields, polynomials, rationals, runner
from essmod.errors import EssmodError

FIELDS_FUNCTIONS = {"_minors", "_rank_drop", "_root_in", "check_generator_spanning", "_walk", "_residual_set"}

EXEMPT = {
    'raise ValueError("zero polynomial vanishes everywhere")':
        "certify_only_rational_roots is asked only for a nonzero gcd: exact_zero_points returns None for zero "
        "parts, and _root_in passes a nonconstant h",
    "return tuple(tuple((int(i == j), 0) for i in range(d)) for j in range(d))":
        "identity_columns builds documents (generate); no decider calls it",
}


def _statements(module, names=None) -> dict:
    """(file line, its text) -> the lines that count for it, for every
    statement inside the module's top-level functions (only those in
    `names`, if given), docstrings left out."""
    source = inspect.getsource(module)
    lines = source.splitlines()
    out = {}
    for top in ast.parse(source).body:
        if not isinstance(top, ast.FunctionDef) or names is not None and top.name not in names:
            continue
        for node in ast.walk(top):
            if node is top or not isinstance(node, ast.stmt):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                continue
            body = getattr(node, "body", None)
            if isinstance(node, ast.FunctionDef):
                end = node.lineno  # a nested def runs as its header line
            elif isinstance(body, list):
                end = body[0].lineno - 1  # a compound statement: its header
            else:
                end = node.end_lineno
            out[node.lineno, lines[node.lineno - 1].strip()] = range(node.lineno, end + 1)
    return out


def _reached_lines(docs) -> dict:
    """file -> the lines that ran in `polynomials`, `rationals` and
    `fields` while checking and witnessing the documents."""
    files = {m.__file__ for m in (polynomials, rationals, fields)}
    hit = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        for doc in docs:
            for call in (runner.run_check, runner.run_witness):
                try:
                    call(doc)
                except EssmodError:
                    pass
    finally:
        sys.settrace(previous)
    return hit


def test_pinned_documents_reach_every_decider_statement():
    targets = [(polynomials, None), (rationals, None), (fields, FIELDS_FUNCTIONS)]
    statements = {(m.__file__, *key): span for m, names in targets for key, span in _statements(m, names).items()}
    texts = [text for _, _, text in statements]
    assert all(texts.count(text) == 1 for text in EXEMPT), "an exemption names no statement, or several"
    hit = _reached_lines([doc for _, doc in hard_docs()] + [row_doc(*row) for row in SERIES_ROWS])
    unreached = [f"{path.rsplit('/', 1)[-1]}:{line}: {text}" for (path, line, text), span in statements.items()
                 if text not in EXEMPT and not hit[path].intersection(span)]
    assert not unreached, unreached
