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
- Field: once the generators span C^d off the defect set (a passing
  report says so), the defect set {x : some generator leaves L_x} is
  exactly where L_x is a proper subspace: the union of the partition
  regions whose basis has rank < d, by a Fraction elimination, less 0 and
  1 for sections that vanish there. A check report's `defect_set` must be
  that union in normal form, merged here by testing every boundary and
  every gap's midpoint; `decision` (essential) must hold exactly when the
  union holds no interval, and `checks_ok` must be true. A witness report
  must agree on `decision`; an essential one's `checks_ok` must be true. A
  non-essential one's inductive samples must lie in the union and in its
  `interval`, and its `m` is rebuilt by the bump rule and compared
  exactly: r_j is half the distance from x_j to the nearest earlier sample
  or end, a_j = (t − x_j + r_j)(x_j + r_j − t)/r_j² on (x_j ∓ r_j) and 0
  elsewhere, and m = Σ λ_j g_{k_j} a_j. g_{k_j} and m must leave L at
  x_j, and λ_j is 2^-j, or 2^-(j+1) only where 2^-j puts the partial sum
  at x_j (the earlier terms plus 2^-j·g_{k_j}(x_j)) in L. Its
  `all_verified` must be `sample_defects_verified` AND the `direct`
  block's `closure_equal`, `ma_nonzero` and `probes_ok`, and `checks_ok`
  must equal it, false too: a report whose failing direct probe makes it
  false is verified, not refused. The `direct` block's geometric claims are
  not checked: that supp(ma) and the residual set of ma have one closure,
  that ma ≠ 0, and each probe's implication. An essential one's `a`, `ma`
  and `support` are checked whole: a is
  (x − α)(β − x) on `support` = (α, β) and 0 elsewhere, ma equals g·a
  exactly on the common refinement (g the generator `section_index`
  picks), ma is nonzero, and ma(x) ∈ L_x everywhere: every coefficient
  column of ma on each region's intervals, and its value at each point.
  Section arithmetic here is Fraction pairs.
- Right-ideal witness: from the document's x (its first generator, or
  the support projection when there is none), `a` must be x·x*, `p` a
  Hermitian idempotent of numpy rank `rank`, and `fa_p_error`,
  `max_probe_error` and `max_membership_error`, recomputed on the probes
  p·E_rc, must each lie within ACCEPT_TOL of the reported value;
  `checks_ok` must say whether all three are within ACCEPT_TOL. The
  membership error factors each probe b as x·(V_r Σ_r⁻¹ U_r* b), from
  x's own SVD x_b = U Σ V* with r = {σ² > eps}: that factor is
  x*·g(a)·p for g = 1/t on the kept spectrum.
- Module witness: `decision` must match the rank oracle above. An
  essential report has no witness and `checks_ok` true. A non-essential
  one's `m` must be nonzero, and `probe_found` must say whether some
  block has ‖X_b K_b‖ > DEFAULT_TOL·(1 + ‖m‖), with X_b m's stacked
  block-b coordinates, P_b the projector onto col M_b and
  K_b = ker((1 − P_b)X_b) by numpy's rank; `checks_ok` must say whether
  the probe failed, as a certificate's m must.
"""

from fractions import Fraction
from itertools import groupby

import numpy as np

# The acceptance tolerance a float certificate is held to, and the absolute
# tolerance scaled by (1 + norm) (README, "Tolerances").
ACCEPT_TOL = 1e-8
DEFAULT_TOL = 1e-10


def verify(doc: dict, report: dict, section_index: int = 0):
    """Raise AssertionError unless `report` is a correct check report on `doc`
    (or a correct right-ideal or module witness report, or, for a field, a
    correct witness report, built on the generator that `section_index` picks)."""
    if doc["kind"] == "field":
        return _verify_field(doc["payload"], report, section_index)
    payload = doc["payload"]
    if doc["kind"] == "right_ideal" and report["kind"] == "witness_report":
        return _verify_subideal_witness(payload, report)
    if doc["kind"] == "module_submodule" and report["kind"] == "witness_report":
        return _verify_module_witness(payload, report)
    if report["kind"] != "check_report":
        raise NotImplementedError(f"no oracle for {report['kind']} yet")
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


def subideal_generator(payload: dict) -> list:
    """The blocks of the x a right-ideal witness builds on: the first generator, or else the support projection."""
    return _blocks((payload.get("generators") or [payload["support_projection"]])[0])


def _verify_subideal_witness(payload: dict, report: dict):
    w = report["witness"]
    x = subideal_generator(payload)
    a, p, fa = (_blocks(w[key]) for key in ("a", "p", "fa"))
    xx = [x_b @ x_b.conj().T for x_b in x]
    assert _norm(u - v for u, v in zip(a, xx)) <= 1e-12 * _norm(xx), "a is not x·x*"
    assert _norm(q - q.conj().T for q in p) <= ACCEPT_TOL and _norm(q @ q - q for q in p) <= ACCEPT_TOL
    assert sum(int(np.linalg.matrix_rank(q)) for q in p) == w["rank"], w["rank"]
    errors = {"fa_p_error": _norm(f @ q - q for f, q in zip(fa, p)) / (1.0 + _norm(a)),
              "max_probe_error": 0.0, "max_membership_error": 0.0}
    for x_b, p_b, fa_b in zip(x, p, fa):
        u, s, vh = np.linalg.svd(x_b)
        r = s * s > w["eps"]
        factor = vh[r].conj().T @ np.diag(1.0 / s[r]) @ u[:, r].conj().T  # V_r Σ_r⁻¹ U_r*
        n = len(x_b)
        b = p_b @ np.eye(n * n, dtype=complex).reshape(n * n, n, n)  # the probes p·E_rc
        scale = 1.0 + np.linalg.norm(b, 2, axis=(1, 2))
        images = {"max_probe_error": fa_b @ (p_b @ b), "max_membership_error": x_b @ (factor @ b)}
        for key, image in images.items():
            errors[key] = max(errors[key], float(np.max(np.linalg.norm(image - b, 2, axis=(1, 2)) / scale)))
    for key, value in errors.items():
        assert abs(w[key] - value) <= ACCEPT_TOL, (key, w[key], value)
    assert report["checks_ok"] is (max(w[key] for key in errors) <= ACCEPT_TOL)


def _verify_module_witness(payload: dict, report: dict):
    k, dims = payload["k"], payload["shape"]["block_dims"]
    stacked = _stacked_coordinates(payload)
    ranks = [np.linalg.matrix_rank(m_b) for m_b in stacked]
    assert report["decision"] is all(r == k * n for r, n in zip(ranks, dims))
    if report["decision"]:
        assert report["witness"] is None and report["checks_ok"] is True
        return
    w = report["witness"]
    x = [np.vstack(coords) for coords in zip(*(_blocks(c) for c in w["m"]["coords"]))]  # X_b
    assert any(x_b.any() for x_b in x), "m is zero"
    scale = 1.0 + _norm(x)  # ‖m‖ = ‖⟨m, m⟩‖^½ = max_b ‖X_b‖
    found = False
    for m_b, r, x_b in zip(stacked, ranks, x):
        residual = x_b - _range_projector(m_b, r) @ x_b
        kernel = np.linalg.svd(residual)[2][np.linalg.matrix_rank(residual):].conj().T
        if kernel.size and np.linalg.norm(x_b @ kernel, 2) > DEFAULT_TOL * scale:
            found = True
    assert w["probe_found"] is found, (w["probe_found"], found)
    assert report["checks_ok"] is (not found)


def _norm(blocks) -> float:
    """The C*-norm of blocks: their largest operator norm."""
    return max(np.linalg.norm(b, 2) for b in blocks)


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


def _verify_field(payload: dict, report: dict, section_index: int):
    defect = _field_defect(payload)
    assert report["decision"] is (not defect["intervals"])
    if report["kind"] == "check_report":
        assert report["checks_ok"] is True
        assert _subset(report["defect_set"]) == defect, (report["defect_set"], defect)
    elif not report["decision"]:
        w, direct = report["witness"], report["witness"]["direct"]
        _verify_inductive_witness(payload, w, defect)
        assert direct is not None, "a non-essential witness without its direct block"
        direct_ok = direct["closure_equal"] and direct["ma_nonzero"] and direct["probes_ok"]
        assert w["all_verified"] is (w["inductive"]["sample_defects_verified"] and direct_ok), w["all_verified"]
        assert report["checks_ok"] is w["all_verified"]
    else:
        assert report["checks_ok"] is True
        generators = payload["generators"]
        _verify_essential_witness(payload, generators[section_index % len(generators)], report["witness"])


def _verify_essential_witness(payload: dict, g: dict, w: dict):
    assert w["kind"] == "essential" and w["residual_empty"] is True and w["ma_nonzero"] is True
    alpha, beta = (Fraction(x) for x in w["support"])
    a, ma, gen = (_section(s) for s in (w["a"], w["ma"], g))
    assert 0 <= alpha < beta <= 1 and a["d"] == 1 and ma["d"] == gen["d"] == payload["d"]
    bump = [(-alpha * beta, ZERO), (alpha + beta, ZERO), (-ONE, ZERO)]
    for lo, hi, (p,) in _cells(a):
        assert p == (bump if alpha <= lo and hi <= beta else [] if hi <= alpha or beta <= lo else None), (lo, hi, p)
    for lo, hi, row in _cells(ma, a, gen):
        (s,), q = _piece_on(a, lo), _piece_on(gen, lo)
        assert row == [_mul(s, c) for c in q], (lo, hi)
    assert any(p for _, _, row in _cells(ma) for p in row)
    for region, basis in zip(payload["partition"], payload["subspace_bases"]):
        region, rank = _subset(region), _rank(basis)
        for x in region["points"]:
            value = [_value(p, x) for p in _piece_on(ma, x)]
            assert _rank(basis + [value]) == rank, ("ma leaves L at", x)
        for lo, hi, *_ in region["intervals"]:
            for c_lo, c_hi, row in _cells(ma):
                if c_lo < hi and lo < c_hi:
                    for k in range(max(map(len, row))):
                        column = [p[k] if k < len(p) else (ZERO, ZERO) for p in row]
                        assert _rank(basis + [column]) == rank, ("ma leaves L on", lo, hi)


def _verify_inductive_witness(payload: dict, w: dict, defect: dict):
    """m = Σ_j λ_j g_{k_j} a_j, rebuilt from `samples`, `picks` and
    `lambdas` by the bump rule, must equal the reported m exactly; each
    g_{k_j} and m must leave L at x_j, and λ_j must be 2^-j unless that
    value puts the partial sum at x_j in L, when it is 2^-(j+1)."""
    ind = w["inductive"]
    xs, lambdas, picks = [Fraction(x) for x in w["samples"]], [Fraction(x) for x in ind["lambdas"]], ind["picks"]
    lo, hi = (Fraction(x) for x in w["interval"])
    gens, m, inside = [_section(g) for g in payload["generators"]], _section(ind["m"]), _member(defect)
    assert w["kind"] == "non_essential" and m["d"] == payload["d"] and ind["sample_defects_verified"] is True
    assert 0 < len(xs) == len(set(xs)) == len(lambdas) == len(picks)
    assert all(0 < x < 1 and lo <= x <= hi and inside(x) for x in xs), "a sample outside the defect interval"
    terms = []  # (a, b, s, g): the term s·(t − a)(b − t)·g(t) on (a, b)
    for j, (x, lam, k) in enumerate(zip(xs, lambdas, picks), start=1):
        g = gens[k]
        step = _value_of(g, x)
        assert not _in_subspace(payload, x, step), ("the picked generator stays in L at", x)
        partial = _add_all([_scaled(_bump_at(a, b, s, x), _value_of(h, x)) for a, b, s, h in terms], len(step))
        first = Fraction(1, 2 ** j)
        assert lam in (first, first / 2), ("λ out of range", j, lam)
        if lam != first:
            assert _in_subspace(payload, x, _add_all([partial, _scaled(first, step)], len(step))), ("needless λ fallback", j)
        r = min([x, 1 - x] + [abs(x - y) for y in xs[:j - 1]]) / 2  # half the distance to the nearest earlier sample or end
        terms.append((x - r, x + r, lam / (r * r), g))
    cuts = sorted({*m["breakpoints"], *(t for a, b, *_ in terms for t in (a, b)), *(t for g in gens for t in g["breakpoints"])})
    for c_lo, c_hi in zip(cuts, cuts[1:]):
        expected = [[] for _ in range(m["d"])]
        for a, b, s, g in terms:
            if a <= c_lo and c_hi <= b:
                bump = [(-a * b * s, ZERO), ((a + b) * s, ZERO), (-s, ZERO)]
                expected = [_add(e, _mul(bump, p)) for e, p in zip(expected, _piece_on(g, c_lo))]
        assert _piece_on(m, c_lo) == expected, ("m differs from Σ λ_j g_{k_j} a_j on", c_lo, c_hi)
    assert all(not _in_subspace(payload, x, _value_of(m, x)) for x in xs), "m stays in L at a sample"


def _bump_at(a: Fraction, b: Fraction, s: Fraction, x: Fraction) -> Fraction:
    return s * (x - a) * (b - x) if a < x < b else ZERO


def _value_of(m: dict, x: Fraction) -> list:
    return [_value(p, x) for p in _piece_on(m, x)]


def _scaled(c: Fraction, v: list) -> list:
    return [(c * re, c * im) for re, im in v]


def _add_all(vectors: list, d: int) -> list:
    return [(sum((v[i][0] for v in vectors), ZERO), sum((v[i][1] for v in vectors), ZERO)) for i in range(d)]


def _add(p: list, q: list) -> list:
    p, q = (r + [(ZERO, ZERO)] * (max(len(p), len(q)) - len(r)) for r in (p, q))
    return _trimmed([(a + c, b + e) for (a, b), (c, e) in zip(p, q)])


def _in_subspace(payload: dict, x: Fraction, v: list) -> bool:
    """v ∈ L_x, for the partition region that holds x."""
    for region, basis in zip(payload["partition"], payload["subspace_bases"]):
        if _member(_subset(region))(x):
            return _rank(basis + [v]) == _rank(basis)
    raise AssertionError(f"no partition region holds {x}")


ZERO, ONE = Fraction(0), Fraction(1)


def _section(doc: dict) -> dict:
    """A section document as Fractions: its breakpoints, and per piece one
    ascending (re, im) coefficient list per coordinate, trailing zeros dropped."""
    pieces = [[_trimmed([(Fraction(re), Fraction(im)) for re, im in p]) for p in row] for row in doc["pieces"]]
    return {"d": doc["d"], "breakpoints": [Fraction(b) for b in doc["breakpoints"]], "pieces": pieces}


def _trimmed(p: list) -> list:
    while p and p[-1] == (ZERO, ZERO):
        p = p[:-1]
    return p


def _piece_on(m: dict, x: Fraction) -> list:
    """The piece of m on the breakpoint interval [b_i, b_{i+1}) holding x (the last one at 1)."""
    i = max(i for i, b in enumerate(m["breakpoints"][:-1]) if b <= x)
    return m["pieces"][i]


def _cells(m: dict, *others: dict) -> list:
    """(lo, hi, piece of m) on every cell of the common refinement of m and others."""
    cuts = sorted({b for s in (m, *others) for b in s["breakpoints"]})
    return [(lo, hi, _piece_on(m, lo)) for lo, hi in zip(cuts, cuts[1:])]


def _mul(p: list, q: list) -> list:
    out = [(ZERO, ZERO)] * max(0, len(p) + len(q) - 1)
    for i, (a, b) in enumerate(p):
        for j, (c, e) in enumerate(q):
            re, im = out[i + j]
            out[i + j] = (re + a * c - b * e, im + a * e + b * c)
    return _trimmed(out)


def _value(p: list, x: Fraction) -> tuple:
    re = im = ZERO
    for a, b in reversed(p):
        re, im = re * x + a, im * x + b
    return re, im


def _field_defect(payload: dict) -> dict:
    """{x : rank L_x < d} in normal form, as Fractions: sorted points, and
    sorted maximal (lo, hi, lo_closed, hi_closed) intervals."""
    d = payload["d"]
    regions = [_subset(r) for r, basis in zip(payload["partition"], payload["subspace_bases"]) if _rank(basis) < d]
    inside = [_member(r) for r in regions]
    ends = set() if payload.get("vanish_at_boundary") else {Fraction(0), Fraction(1)}
    bounds = sorted({Fraction(0), Fraction(1), *(x for r in regions for x in _ends(r))})
    # region 2i: the point bounds[i]; region 2i + 1: the open gap after it, tested at its midpoint
    probes = [x for a, b in zip(bounds, bounds[1:]) for x in (a, (a + b) / 2)] + [bounds[-1]]
    flags = [any(f(x) for f in inside) and (x in ends or 0 < x < 1) for x in probes]
    points, intervals, r = [], [], 0
    for kept, run in groupby(flags):
        n = len(list(run))
        if kept and n == 1 and r % 2 == 0:
            points.append(bounds[r // 2])
        elif kept:
            intervals.append((bounds[r // 2], bounds[(r + n) // 2], r % 2 == 0, (r + n - 1) % 2 == 0))
        r += n
    return {"points": points, "intervals": intervals}


def _subset(doc: dict) -> dict:
    return {"points": [Fraction(x) for x in doc["points"]],
            "intervals": [(Fraction(iv["lo"]), Fraction(iv["hi"]), iv["lo_closed"], iv["hi_closed"])
                          for iv in doc["intervals"]]}


def _ends(s: dict) -> list:
    return s["points"] + [x for iv in s["intervals"] for x in iv[:2]]


def _member(s: dict):
    def contains(x) -> bool:
        return x in s["points"] or any(lo < x < hi or (x == lo and lc) or (x == hi and hc)
                                       for lo, hi, lc, hc in s["intervals"])
    return contains


def _rank(basis: list) -> int:
    """Rank over Q(i) of the basis columns, each a list of [re, im] pairs of
    rational strings or Fractions:
    half the rank of their realification, where a column v gives the real
    rows (Re v, Im v) and (−Im v, Re v), by Gauss-Jordan on Fractions."""
    cols = [[(Fraction(re), Fraction(im)) for re, im in col] for col in basis]
    rows = [[z[0] for z in col] + [z[1] for z in col] for col in cols]
    rows += [[-z[1] for z in col] + [z[0] for z in col] for col in cols]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank // 2
