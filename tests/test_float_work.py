"""The LAPACK work of the float stack, counted call by call.

Every `np.linalg.svd` and `np.linalg.eigh` call is recorded while check and
witness run over the right-ideal and module documents of the gen caps (the
grid of `test_float_check_reports_pass_the_report_oracle`). The counts are
deterministic: they depend on the documents, not on timing.
"""

import json

import numpy as np
import pytest
import report_oracle

from essmod import linalg, runner, serialize
from essmod.errors import PreconditionFailed
from essmod.generate import gen_module_submodule, gen_right_ideal

# gen_right_ideal / gen_module_submodule block dims from 1 up to the gen cap of 6
CAP_BLOCKS = [(1,), (6,), (2, 3), (6, 6, 6)]
RIGHT_IDEALS = [gen_right_ideal(blocks, seed) for blocks in CAP_BLOCKS for seed in range(4)]
MODULES = [gen_module_submodule(blocks, k, seed) for blocks in CAP_BLOCKS for k in (1, 4) for seed in range(4)]

# LAPACK calls of one check and one witness of every document above. The
# grid took 665 while zero matrices reached LAPACK, every block of an ideal
# was eigendecomposed and the certificate re-orthonormalised eigenvectors,
# and 343 while a module element took its norm through the Gram matrix and
# its zero test per coordinate slice.
MAX_CALLS = 319


@pytest.fixture
def lapack(monkeypatch) -> list:
    """The (name, input is all zero) of each svd / eigh call, in call order."""
    calls = []

    def counted(name, original):
        def call(a, *args, **kwargs):
            calls.append((name, not np.asarray(a).any()))
            return original(a, *args, **kwargs)
        return call

    for name in ("svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


def run_both(doc):
    runner.run_check(doc)
    try:
        runner.run_witness(doc)
    except PreconditionFailed:
        pass


def test_no_lapack_call_takes_a_zero_matrix(lapack):
    """A zero matrix's norm, basis, SVD and eigendecomposition are known:
    none of them reaches LAPACK, and the whole grid stays under its pinned
    count."""
    for doc in RIGHT_IDEALS + MODULES:
        run_both(doc)
    assert lapack and not [call for call in lapack if call[1]]
    assert len(lapack) <= MAX_CALLS, len(lapack)


def test_ideal_check_eigendecomposes_one_block_only_when_not_essential(lapack, monkeypatch):
    """An essential ideal is decided by traces alone. A non-essential one
    eigendecomposes its first non-identity block once, and that block takes
    LAPACK's eigh only if it is nonzero."""
    blocks = []
    herm_eig = linalg.herm_eig
    monkeypatch.setattr(linalg, "herm_eig", lambda a: blocks.append(a) or herm_eig(a))
    decisions = set()
    for doc in RIGHT_IDEALS + MODULES:
        lapack.clear()
        blocks.clear()
        report = runner.run_check(doc)
        eighs = [call for call in lapack if call[0] == "eigh"]
        if report["decision"]:
            assert blocks == [] and eighs == []
        else:
            (block,) = blocks
            assert len(eighs) == int(block.any())
        decisions.add((doc["kind"], report["decision"]))
    assert decisions == {(kind, d) for kind in ("right_ideal", "module_submodule") for d in (False, True)}


def test_right_ideal_witness_takes_one_svd_per_block_and_two_norms(lapack):
    """closed_subideal takes one SVD per nonzero block of x, reads x's zero
    test off it, and adds only the op-norm SVDs of ‖a‖ and of fa·p − p, per
    nonzero block. A zero x takes none."""
    witnessed = 0
    for doc in RIGHT_IDEALS:
        x = report_oracle.subideal_generator(doc["payload"])
        lapack.clear()
        try:
            report = json.loads(serialize.dumps(runner.run_witness(doc)))
        except PreconditionFailed:
            assert not any(b.any() for b in x) and lapack == []
            continue
        calls = list(lapack)
        a, p, fa = (report_oracle._blocks(report["witness"][key]) for key in ("a", "p", "fa"))
        expected = sum(b.any() for b in x) + sum(b.any() for b in a)
        expected += sum((f @ q - q).any() for f, q in zip(fa, p))
        assert calls == [("svd", False)] * expected, (doc["seed"], calls, expected)
        witnessed += 1
    assert witnessed > len(RIGHT_IDEALS) / 2


def test_module_witness_norm_takes_one_svd_per_nonzero_block(monkeypatch):
    """The certificate's witness m is an element of A^k with one cached norm,
    max_b ‖X_b‖: each module check and witness takes one norm SVD per
    nonzero block X_b of m, none per coordinate slice of X_b and none of
    its Gram matrix X_b*·X_b."""
    norm_inputs = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            norm_inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    ranks = set()
    for doc in MODULES:
        k = doc["payload"]["k"]
        for run, keys in ((runner.run_check, ("certificate", "witness")), (runner.run_witness, ("witness", "m"))):
            norm_inputs.clear()
            report = json.loads(serialize.dumps(run(doc)))
            if report["decision"]:
                continue
            m = report[keys[0]][keys[1]]
            x = [np.vstack(coords) for coords in zip(*(report_oracle._blocks(c) for c in m["coords"]))]
            blocks = [x_b for x_b in x if x_b.any()]
            parts = [y for x_b in x for y in (x_b.conj().T @ x_b, *np.split(x_b, k))]
            about_m = [a for a in norm_inputs if any(np.array_equal(a, y) for y in blocks + parts)]
            assert len(about_m) == len(blocks), (doc["seed"], k, len(about_m), len(blocks))
            assert all(any(np.array_equal(a, y) for y in blocks) for a in about_m)
            ranks.add(k)
    assert ranks == {4}  # the grid's k = 1 documents are all essential
