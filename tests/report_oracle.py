"""An independent verifier of float check reports.

`verify(doc, report)` re-derives every claim of a right-ideal or module
`check_report` from the instance document and the report's JSON alone,
with numpy: it imports nothing from essmod, so a fault in a decider or in
its certificate cannot hide behind the same fault here.

- Right ideal: pA is essential iff every hermitized block of p has its
  least eigenvalue above 1/2. An essential report's `identity_error` is
  max_b ‖p_b − I‖₂; a non-essential one names a unit `vector` v with
  ‖p_b v‖ ≤ ACCEPT_TOL·(1 + ‖p‖₂) in its `block`, so qA = vv*A meets pA
  trivially, and `intersection_dim` 0.
- Submodule of A^k: N is essential iff, for every block b, the numpy rank
  of the generators' stacked block-b coordinates is k·n_b. A non-essential
  report's `vector` is a unit vector that the projector onto their column
  space nearly kills.

Witness reports and field reports are not covered yet.
"""

import numpy as np

# The acceptance tolerance a float certificate is held to (README, "Tolerances").
ACCEPT_TOL = 1e-8


def verify(doc: dict, report: dict):
    """Raise AssertionError unless `report` is a correct check report on `doc`."""
    if report["kind"] != "check_report":
        raise NotImplementedError(f"no oracle for {report['kind']} yet")
    payload = doc["payload"]
    if doc["kind"] == "right_ideal":
        p = _blocks(payload["support_projection"])
        essential = all(np.linalg.eigvalsh((b + b.conj().T) / 2)[0] > 0.5 for b in p)
        cert = report["certificate"]
    elif doc["kind"] == "module_submodule":
        k, dims = payload["k"], payload["shape"]["block_dims"]
        stacked = _stacked_coordinates(payload)
        ranks = [np.linalg.matrix_rank(m_b) for m_b in stacked]
        essential = all(r == k * n for r, n in zip(ranks, dims))
        p = [_range_projector(m_b, r) for m_b, r in zip(stacked, ranks)]  # J_N's support projection
        assert report["essential"] is report["topologically_essential"] is essential
        cert = report["certificate"]["ideal"]
    else:
        raise NotImplementedError(f"no oracle for {doc['kind']} reports yet")
    assert report["decision"] is essential and report["checks_ok"] is True
    assert cert["essential"] is essential
    if essential:
        if doc["kind"] == "right_ideal":
            error = max(np.linalg.norm(b - np.eye(len(b)), 2) for b in p)
            assert abs(cert["identity_error"] - error) <= 1e-12, (cert["identity_error"], error)
        return
    b, v = cert["block"], _vector(cert["vector"])
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    scale = 1.0 + max(np.linalg.norm(pb, 2) for pb in p)
    assert np.linalg.norm(p[b] @ v) <= ACCEPT_TOL * scale, np.linalg.norm(p[b] @ v)
    assert cert["intersection_dim"] == 0


def _blocks(element: dict) -> list:
    """The complex blocks of an algebra element's document."""
    return [np.array(b, dtype=float).view(complex)[..., 0] for b in element["blocks"]]


def _vector(pairs: list) -> np.ndarray:
    return np.array(pairs, dtype=float).view(complex)[:, 0]


def _stacked_coordinates(payload: dict) -> list:
    """Per block b, M_b: each generator's block-b coordinates stacked k
    high, the generators side by side."""
    k, dims = payload["k"], payload["shape"]["block_dims"]
    coords = [[_blocks(c) for c in g["coords"]] for g in payload["generators"]]
    return [np.hstack([np.vstack([c[b] for c in g]) for g in coords] or [np.zeros((k * n, 0))])
            for b, n in enumerate(dims)]


def _range_projector(m: np.ndarray, rank: int) -> np.ndarray:
    """The orthogonal projector onto the column space of m, of the given rank."""
    u = np.linalg.svd(m)[0][:, :rank]
    return u @ u.conj().T
