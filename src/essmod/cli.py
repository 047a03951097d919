"""Command-line front end: gen / check / witness / suite.

JSON travels on stdin/stdout by default or through --in/--out paths.
Exit codes: 0 all checks pass, 1 a check or property failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

import numpy as np

from . import generate, properties, runner, serialize
from .errors import EssmodError, SchemaError, SizeCap


def _object(pairs: list) -> dict:
    """A JSON object, refused if it names a key twice: json.load keeps the last."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise SchemaError(f"invalid JSON input: duplicate key {serialize._excerpt(key)}")
    return doc


def _constant(name: str):
    raise SchemaError(f"invalid JSON input: {name} is not JSON")


def _float(text: str) -> float:
    """A JSON number with a fraction or exponent, refused past float range:
    json.load reads 1e400 as inf, which the digest would write as Infinity."""
    value = float(text)
    if math.isinf(value):
        raise SchemaError(f"invalid JSON input: number {serialize._excerpt(text)} is past float range")
    return value


def _read_doc(path: str | None):
    strict = {"object_pairs_hook": _object, "parse_constant": _constant, "parse_float": _float}
    try:
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh, **strict)
        return json.load(sys.stdin, **strict)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise SchemaError(f"invalid JSON input: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON input: nested too deeply") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc


def _write_doc(doc, args):
    text = serialize.dumps(doc, pretty=args.json_pretty)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report, args, ok_key: str) -> int:
    """Write the report; exit 0 when its `ok_key` holds, else 1."""
    _write_doc(report, args)
    return 0 if report[ok_key] else 1


def _parse_blocks(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SchemaError(f"bad --blocks value {text!r}") from exc
    if not dims:
        raise SchemaError("--blocks must list at least one dimension")
    return dims


def cmd_gen(args) -> int:
    if args.seed < 0:
        raise SchemaError("--seed must be >= 0")
    if args.kind == "right_ideal":
        doc = generate.gen_right_ideal(_parse_blocks(args.blocks), args.seed)
    elif args.kind == "module_submodule":
        doc = generate.gen_module_submodule(_parse_blocks(args.blocks), args.k, args.seed)
    else:
        doc = generate.gen_field(args.d, args.pieces, args.generators, args.defect, args.seed)
    _write_doc(doc, args)
    return 0


def cmd_check(args) -> int:
    return _emit(runner.run_check(_read_doc(getattr(args, "in"))), args, "checks_ok")


def cmd_witness(args) -> int:
    report = runner.run_witness(_read_doc(getattr(args, "in")), samples=args.samples, section_index=args.section)
    return _emit(report, args, "checks_ok")


def cmd_suite(args) -> int:
    if args.trials < 1:
        raise SchemaError("--trials must be >= 1")
    return _emit(properties.run_suite(args.seed, args.trials), args, "passed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essmod",
        description="Essentiality checks and witness constructions for right "
        "ideals, module submodules, and continuous fields of Hilbert spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None)
    output.add_argument("--json-pretty", action="store_true")

    gen = sub.add_parser("gen", parents=[output], help="generate a seeded random instance")
    gen.add_argument("--kind", required=True, choices=serialize.KINDS)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--blocks", default="2", help="comma-separated block dims")
    gen.add_argument("--k", type=int, default=2, help="module rank")
    gen.add_argument("--d", type=int, default=2, help="fiber dimension")
    gen.add_argument("--pieces", type=int, default=4, help="partition pieces")
    gen.add_argument("--generators", type=int, default=2, help="field generators")
    gen.add_argument("--defect", default="none", choices=("none", "points", "interval"))
    gen.set_defaults(fn=cmd_gen)

    check = sub.add_parser("check", parents=[output], help="decide essentiality of an instance")
    check.add_argument("--in", default=None, help="instance path (default stdin)")
    check.set_defaults(fn=cmd_check)

    witness = sub.add_parser("witness", parents=[output], help="construct and verify witness objects")
    witness.add_argument("--in", default=None, help="instance path (default stdin)")
    witness.add_argument("--samples", type=int, default=8, help="defect samples (fields)")
    witness.add_argument("--section", type=int, default=0, help="generator index (fields)")
    witness.set_defaults(fn=cmd_witness)

    suite = sub.add_parser("suite", parents=[output], help="run the seeded property suite")
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--trials", type=int, default=20)
    suite.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # an overflow stays inf, and linalg.op_norm rejects it
            return args.fn(args)
    except (SchemaError, SizeCap) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except EssmodError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
