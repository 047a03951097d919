"""JSON (de)serialization for the value types that instances and reports
carry, plus instance and report envelopes.

Conventions: floating scalars are [re, im] pairs; exact scalars are
rational strings "p/q" or "p" of decimal integers, each at most MAX_DIGITS
digits long; exact complex scalars are ["p/q", "p/q"] pairs.
Instance documents carry schema "essmod/1" and one of the kinds
right_ideal / module_submodule / field.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import re
import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from math import gcd, lcm

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, RightIdeal
from .errors import NonFinite, NotProjection, SchemaError, SizeCap
from .fields import FieldModuleSpec, FieldPiece, SubspaceField
from .modules import ModuleElement, Submodule
from .polynomials import GaussianPoly, _over_lcm
from .rationals import GaussianIntVector
from .sections import PiecewiseSection
from .subsets import Interval, SymbolicSubset

SCHEMA = "essmod/1"
KINDS = ("right_ideal", "module_submodule", "field")


# --- scalars ----------------------------------------------------------------

def frac_to_json(x: Fraction) -> str:
    return _ratio_to_json(x.numerator, x.denominator)


def _ratio_to_json(p: int, q: int) -> str:
    """The text "p/q" of the rational p/q (q > 0), in lowest terms."""
    g = gcd(p, q)
    try:
        return f"{p // g}/{q // g}"
    except ValueError as exc:  # past Python's limit on int/str conversion
        raise SizeCap("a report integer is past Python's printing limit (4300 digits by default)") from exc


# Digits allowed in each integer of an exact scalar: far below Python's
# 4300-digit limit on int/str conversion, so every value read can be
# written back, and parsing cost grows with the text, never with a magnitude.
MAX_DIGITS = 1000
_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")
# Distinct scalar strings whose parse is kept: documents repeat a few
# ("0/1" above all), and a bad string is never kept, since it raises.
_PARSE_CACHE_SIZE = 1024


def _excerpt(value) -> str:
    """repr of an input value, cut short for an error message."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _require(value, kind: type, what: str):
    """`value` if it is a `kind` (list, dict, bool or int), else SchemaError.
    A bool is no int here, though Python makes it one."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        article = {list: "a list", dict: "an object", bool: "a boolean", int: "an integer"}[kind]
        raise SchemaError(f"{what} must be {article}, got {type(value).__name__}")
    return value


def _ratio_from_json(s) -> tuple[int, int]:
    """The integers (p, q) of an exact scalar "p/q" or "p", q > 0, not reduced."""
    if not isinstance(s, str):
        raise SchemaError(f"expected rational string, got {_excerpt(s)}")
    return _parse_ratio(s)


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse_ratio(s: str) -> tuple[int, int]:
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise SchemaError(f"bad rational {_excerpt(s)}: expected p/q with decimal integers p, q")
    sign, num, den = match.groups()
    if max(len(num), len(den or "")) > MAX_DIGITS:
        raise SchemaError(f"bad rational {_excerpt(s)}: an integer has more than {MAX_DIGITS} digits")
    q = int(den or "1")
    if not q:
        raise SchemaError(f"bad rational {_excerpt(s)}: zero denominator")
    return int(sign + num), q


def frac_from_json(s) -> Fraction:
    return Fraction(*_ratio_from_json(s))


def _crat_parts(v) -> tuple[tuple[int, int], tuple[int, int]]:
    if not isinstance(v, list) or len(v) != 2:
        raise SchemaError(f"expected [re, im] rational pair, got {_excerpt(v)}")
    return _ratio_from_json(v[0]), _ratio_from_json(v[1])


def complex_from_json(v) -> complex:
    if not isinstance(v, list) or len(v) != 2:
        raise SchemaError(f"expected [re, im] pair, got {_excerpt(v)}")
    try:
        if any(isinstance(x, (bool, str)) for x in v):  # float() would read true and "1" as 1.0
            raise TypeError
        z = complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"expected [re, im] pair of numbers, got {_excerpt(v)}") from exc
    if not cmath.isfinite(z):
        raise SchemaError(f"expected finite [re, im] pair, got {_excerpt(v)}")
    return z


# --- float-layer types -------------------------------------------------------

def shape_to_json(shape: AlgebraShape) -> dict:
    return {"block_dims": list(shape.block_dims)}


def shape_from_json(doc) -> AlgebraShape:
    if not isinstance(doc, dict) or "block_dims" not in doc:
        raise SchemaError("shape must be {block_dims: [...]}")
    dims = doc["block_dims"]
    if not isinstance(dims, list) or not dims or any(_require(n, int, "block_dims entry") < 1 for n in dims):
        raise SchemaError("block_dims must be a nonempty list of positive ints")
    return AlgebraShape(tuple(dims))


def element_to_json(a: AlgebraElement) -> dict:
    return _blocks_to_json(a.shape, a.blocks)


def _blocks_to_json(shape: AlgebraShape, blocks) -> dict:
    """An algebra element's document: each block an (n, n, 2) list of [re, im] pairs."""
    return {"shape": shape_to_json(shape), "blocks": [np.stack((b.real, b.imag), -1).tolist() for b in blocks]}


def element_from_json(doc) -> AlgebraElement:
    if not isinstance(doc, dict) or "shape" not in doc or "blocks" not in doc:
        raise SchemaError("algebra element must have shape and blocks")
    shape = shape_from_json(doc["shape"])
    docs = _require(doc["blocks"], list, "element blocks")
    if len(docs) != shape.num_blocks:
        raise SchemaError("block count does not match shape")
    return AlgebraElement._of(shape, tuple(_block_from_json(blk, n) for n, blk in zip(shape.block_dims, docs)))


def _block_from_json(blk, n: int) -> np.ndarray:
    """An n×n block of [re, im] pairs: one float array if it is JSON numbers
    of that shape, else read entry by entry, whose errors name the entry."""
    try:
        if set(map(type, chain.from_iterable(chain.from_iterable(blk)))) <= {float, int}:
            m = np.array(blk, dtype=np.float64)
            if m.shape == (n, n, 2) and np.isfinite(m).all():
                return m.view(np.complex128).reshape(n, n)
    except (TypeError, ValueError, OverflowError):
        pass
    try:
        m = np.array([[complex_from_json(z) for z in row] for row in blk], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad block data: {exc}") from exc
    if m.shape != (n, n):
        raise SchemaError(f"block of shape {m.shape}, expected ({n}, {n})")
    return m


def right_ideal_from_json(doc) -> tuple[RightIdeal, list[AlgebraElement]]:
    """The ideal pA of a right_ideal payload and its generators, each
    over the payload's shape."""
    if not isinstance(doc, dict) or "support_projection" not in doc:
        raise SchemaError("right_ideal payload needs a support_projection")
    shape = shape_from_json(doc.get("shape", {}))
    p = element_from_json(doc["support_projection"])
    if p.shape != shape:
        raise SchemaError("support projection over a shape other than the payload's")
    try:
        ideal = RightIdeal(p)
    except (NotProjection, NonFinite) as exc:
        raise SchemaError(f"bad support projection: {exc}") from exc
    gens = [element_from_json(g) for g in _require(doc.get("generators", []), list, "generators")]
    if any(g.shape != shape for g in gens):
        raise SchemaError("generator over a different shape")
    return ideal, gens


def module_element_to_json(x: ModuleElement) -> dict:
    """{"shape", "k", "coords"}: the stacked blocks split into coordinates."""
    dims = x.shape.block_dims
    coords = [_blocks_to_json(x.shape, (x_b[i * n:(i + 1) * n] for x_b, n in zip(x.blocks, dims)))
              for i in range(x.k)]
    return {"shape": shape_to_json(x.shape), "k": x.k, "coords": coords}


def module_element_from_json(doc) -> ModuleElement:
    if not isinstance(doc, dict) or "coords" not in doc:
        raise SchemaError("module element must have coords")
    coords = [element_from_json(c) for c in _require(doc["coords"], list, "module element coords")]
    if not coords:
        raise SchemaError("module element needs k >= 1 coordinates")
    if "k" in doc and _require(doc["k"], int, "k") != len(coords):
        raise SchemaError("k does not match the number of coordinates")
    if any(c.shape != coords[0].shape for c in coords):
        raise SchemaError("module element coordinates over different shapes")
    return ModuleElement.from_coords(coords)


def submodule_from_json(doc) -> Submodule:
    if not isinstance(doc, dict) or "generators" not in doc:
        raise SchemaError("submodule must have generators")
    shape = shape_from_json(doc.get("shape", {}))
    k = doc.get("k")
    gens = tuple(module_element_from_json(g) for g in _require(doc["generators"], list, "submodule generators"))
    if _require(k, int, "k") < 1:
        raise SchemaError("submodule needs a positive integer k")
    for g in gens:
        if g.k != k or g.shape != shape:
            raise SchemaError("generator shape or rank mismatch")
    return Submodule(shape, k, gens)


# --- exact-layer types --------------------------------------------------------

def subset_to_json(s: SymbolicSubset) -> dict:
    return {
        "points": [frac_to_json(p) for p in s.points],
        "intervals": [
            {
                "lo": frac_to_json(iv.lo),
                "hi": frac_to_json(iv.hi),
                "lo_closed": iv.lo_closed,
                "hi_closed": iv.hi_closed,
            }
            for iv in s.intervals
        ],
    }


def subset_from_json(doc) -> SymbolicSubset:
    _require(doc, dict, "subset")
    pts = [frac_from_json(p) for p in _require(doc.get("points", []), list, "subset points")]
    ivs = []
    for iv in _require(doc.get("intervals", []), list, "subset intervals"):
        _require(iv, dict, "interval")
        try:
            ivs.append(
                Interval._of(
                    frac_from_json(iv["lo"]),
                    frac_from_json(iv["hi"]),
                    _require(iv["lo_closed"], bool, "lo_closed"),
                    _require(iv["hi_closed"], bool, "hi_closed"),
                )
            )
        except KeyError as exc:
            raise SchemaError(f"interval missing field {exc}") from exc
    return SymbolicSubset(points=tuple(pts), intervals=tuple(ivs))


def _poly_to_json(p: GaussianPoly) -> list:
    """Each coefficient as a pair: each part's integer numerators over its denominator."""
    re, im = p.re, p.im
    return [[_ratio_to_json(a, re.den), _ratio_to_json(b, im.den)]
            for a, b in zip_longest(re.nums, im.nums, fillvalue=0)]


def _poly_from_json(doc) -> GaussianPoly:
    """Each part's integer numerators over the lcm of its denominators."""
    parts = [_crat_parts(c) for c in _require(doc, list, "polynomial")]
    return GaussianPoly(*(_over_lcm([c[k] for c in parts]) for k in (0, 1)))


def section_to_json(m: PiecewiseSection) -> dict:
    return {
        "d": m.d,
        "breakpoints": [frac_to_json(b) for b in m.breakpoints],
        "pieces": [[_poly_to_json(p) for p in row] for row in m.pieces],
    }


def section_from_json(doc) -> PiecewiseSection:
    if not isinstance(doc, dict) or "breakpoints" not in doc or "pieces" not in doc:
        raise SchemaError("section must have breakpoints and pieces")
    d = doc.get("d")
    if _require(d, int, "section d") < 1:
        raise SchemaError("section needs a positive fiber dimension d")
    bps = tuple(frac_from_json(b) for b in _require(doc["breakpoints"], list, "breakpoints"))
    pieces = tuple(
        tuple(_poly_from_json(p) for p in _require(row, list, "section piece"))
        for row in _require(doc["pieces"], list, "section pieces")
    )
    try:
        return PiecewiseSection(d, bps, pieces)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _basis_to_json(basis: tuple[GaussianIntVector, ...]) -> list:
    return [[[f"{x}/1", f"{y}/1"] for x, y in col] for col in basis]


def _basis_from_json(doc, d: int) -> tuple[GaussianIntVector, ...]:
    """Each written column times the lcm of its entries' denominators."""
    columns = _require(doc, list, "basis")
    cols = [[_crat_parts(e) for e in _require(col, list, "basis column")] for col in columns]
    for col in cols:
        if len(col) != d:
            raise SchemaError(f"basis column of length {len(col)}, expected {d}")
    out = []
    for col in cols:
        den = lcm(*(q for z in col for _, q in z))
        out.append(tuple((p * (den // q), r * (den // t)) for (p, q), (r, t) in col))
    return tuple(out)


def field_spec_to_json(spec: FieldModuleSpec) -> dict:
    return {
        "d": spec.d,
        "partition": [subset_to_json(p.region) for p in spec.subfield.pieces],
        "subspace_bases": [_basis_to_json(p.basis) for p in spec.subfield.pieces],
        "generators": [section_to_json(g) for g in spec.generators],
        "vanish_at_boundary": spec.vanish_at_boundary,
    }


def field_spec_from_json(doc) -> FieldModuleSpec:
    _require(doc, dict, "field spec")
    for key in ("d", "partition", "subspace_bases", "generators"):
        if key not in doc:
            raise SchemaError(f"field spec missing {key!r}")
    d = doc["d"]
    if _require(d, int, "d") < 1:
        raise SchemaError("field spec needs a positive fiber dimension d")
    try:  # a constructor's ValueError, such as an interval with lo > hi, is an input error
        regions = [subset_from_json(p) for p in _require(doc["partition"], list, "partition")]
        bases = _require(doc["subspace_bases"], list, "subspace_bases")
        if len(bases) != len(regions):
            raise SchemaError("partition and subspace_bases lengths differ")
        pieces = tuple(FieldPiece(region, _basis_from_json(basis, d)) for region, basis in zip(regions, bases))
        field = SubspaceField(d, pieces)
        return FieldModuleSpec(
            d,
            tuple(section_from_json(g) for g in _require(doc["generators"], list, "generators")),
            field,
            _require(doc.get("vanish_at_boundary", False), bool, "vanish_at_boundary"),
        )
    except (ValueError, SchemaError) as exc:
        raise SchemaError(str(exc)) from exc


# --- instance envelope ---------------------------------------------------------

def instance_to_json(kind: str, payload: dict, seed: int | None) -> dict:
    doc = {"schema": SCHEMA, "kind": kind, "payload": payload}
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def validate_instance(doc) -> tuple[str, dict]:
    """Structural validation of an instance document; returns (kind, payload)."""
    if not isinstance(doc, dict):
        raise SchemaError("instance must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {_excerpt(doc.get('schema'))}, expected {SCHEMA!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {_excerpt(kind)}, expected one of {KINDS}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("instance payload must be an object")
    seed = doc.get("seed")
    if seed is not None and _require(seed, int, "seed") < 0:
        raise SchemaError("seed must be a nonnegative integer")
    return kind, payload


# The one canonical encoder: sorted keys, no spaces. Documents come from
# json.load or from this package, so none holds itself.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def canonical_json(doc) -> str:
    try:
        return _encode(doc)
    except RecursionError as exc:  # json.load reads a little deeper than this encodes
        raise SchemaError("document nested too deeply to encode") from exc


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(doc) -> str:
    return _text_digest(canonical_json(doc))


def _read_only(self, *args, **kwargs):
    raise TypeError("a finished report is read-only; dict(report) is an editable copy")


class Report(dict):
    """A finished check, witness or suite report: a dict that carries `text`,
    its canonical JSON, which `dumps` returns without encoding it again. Every
    top-level mutation raises, so the text cannot go stale; nested values
    are shared, not copied, and must be left as they are. `dict(report)`
    is an editable copy, and copy, deepcopy and pickle give plain dicts."""

    __slots__ = ("text",)
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __new__(cls, items: dict, text: str):
        report = super().__new__(cls)
        dict.update(report, items)
        report.text = text
        return report

    def __init__(self, items: dict, text: str):
        """__new__ built the report whole; calling this again changes nothing."""

    def __reduce__(self):
        return dict, (dict(self),)


def finish(report: dict, t0: float, **outside) -> Report:
    """The read-only report: `report` plus `digest`, the sha256 of its
    canonical JSON, then `timing_ms`, the milliseconds since `t0`, and each
    `outside` entry, none of which the digest covers.

    Each top-level value is encoded once. The members joined in key order
    are the body the digest hashes; joined again with the keys added here
    they are the report's canonical text, which `dumps` returns.
    """
    members = {key: f"{_encode(key)}:{_encode(value)}" for key, value in report.items()}
    added = {"digest": _text_digest(_joined(members)),
             "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3), **outside}
    members.update((key, f"{_encode(key)}:{_encode(value)}") for key, value in added.items())
    return Report({**report, **added}, _joined(members))


def _joined(members: dict) -> str:
    """The JSON object whose member texts are `members`, in key order."""
    return "{" + ",".join(members[key] for key in sorted(members)) + "}"


def dumps(doc, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if isinstance(doc, Report):
        return doc.text + "\n"
    return canonical_json(doc) + "\n"
