"""Command-line front end.

Every command reads JSON specs, computes, and writes a JSON object with
lexicographically sorted keys to stdout (or TSV with --format tsv).
Validation failures exit with status 2 and a machine-readable error object
on stderr, carrying the library's stable error codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import lcp as lcp_mod
from .codes import (
    CertStep,
    LinearCode,
    Matrix,
    encode_messages,
    min_distance,
    stored_code_fault,
    verify_stored_pair,
)
from .curve import Divisor, KummerCurve, curve_from_json, parse_place
from .errors import KummerError, UsageError
from .field import Field, field_from_json, json_int
from .nonspecial import (
    classify,
    nonspecial_effective_g,
    nonspecial_g,
    nonspecial_gminus1,
    separable_family,
    support_feasibility,
    unit_multiplicity_family,
)
from .semigroup import QTuple


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "tsv":
        for key in sorted(obj):
            val = obj[key]
            if not isinstance(val, str):
                val = json.dumps(val, sort_keys=True)
            sys.stdout.write(f"{key}\t{val}\n")
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"input file {path} does not exist")
    try:
        return json.loads(p.read_text())
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on binary input
        raise UsageError(f"input file {path} is not valid JSON: {exc}") from None


def _read(path: str, what: str, parse):
    """parse(the file's JSON object), a parse error raised as UsageError."""
    obj = _load_json(path)
    try:
        return parse(obj)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise UsageError(f"input file {path} is not {what}: {exc!r}") from None


def _load_curve(path: str) -> KummerCurve:
    return _read(path, "a curve spec", curve_from_json)


def _load_divisor(curve: KummerCurve, path: str) -> Divisor:
    return _read(path, "a divisor spec", lambda obj: Divisor.from_json(curve, obj))


def _code_from_json(field: Field, obj: dict, path: str) -> LinearCode:
    """A stored code whose generator is an integer matrix of encodings in [0, q).

    An empty generator is the 0 x N matrix of an [N, 0] code.  numpy reads a
    JSON true or false among integers as 1 or 0, so the entries' own types
    are checked as well."""
    rows = obj["generator"]
    data = np.asarray(rows) if rows != [] else np.zeros((0, json_int(obj["N"])), dtype=np.int64)
    if (data.dtype.kind not in "iu" or data.ndim != 2
            or np.any((data < 0) | (data >= field.q))
            or bool in map(type, chain.from_iterable(rows))):
        raise UsageError(f"input file {path}: generator is not a matrix over [0, {field.q})")
    return LinearCode(Matrix(field, data.astype(np.int64)), json_int(obj["N"]), json_int(obj["k"]))


def _tuple_from_args(curve: KummerCurve, args) -> QTuple:
    # --places and --tuple are mutually exclusive (make_parser)
    if not args.places:
        return QTuple.all_ramified(curve)
    places = [parse_place(curve, s) for s in args.places.split(",")]
    return QTuple.of(curve, places)


def _alpha_from_args(args) -> list[int]:
    if args.alpha is None:
        raise UsageError("--alpha is required unless --necessary-only is given")
    try:
        return [int(v) for v in args.alpha.split(",")]
    except ValueError:
        raise UsageError(f"--alpha needs comma-separated integers, got {args.alpha!r}") from None


def cmd_curve_info(args) -> dict:
    curve = _load_curve(args.curve)
    ramified = [p.id() for p in curve.totally_ramified_places()]
    split = curve.split_x_values()
    return {
        "genus": curve.genus(),
        "m": curve.m,
        "q": curve.field.q,
        "deg_f": curve.deg_f,
        "rational_places": len(ramified) + curve.affine_point_count(),
        "totally_ramified": ramified,
        "split_x_count": len(split),
        "max_code_length": curve.m * len(split),
        "partial": not curve.has_rational_infinity,
    }


def cmd_curve_places(args) -> dict:
    """The ids of curve.rational_places(), formatted from the point arrays."""
    curve = _load_curve(args.curve)
    xs, ys = curve.affine_points()
    ids = [p.id() for p in curve.totally_ramified_places()]
    ids += map("aff:{}:{}".format, xs.tolist(), ys.tolist())
    return {
        "count": len(ids),
        "places": ids,
        "partial": not curve.has_rational_infinity,
    }


def cmd_dim(args) -> dict:
    curve = _load_curve(args.curve)
    qtuple = _tuple_from_args(curve, args)
    alpha = _alpha_from_args(args)
    cls = classify(qtuple, alpha)
    return {"dim": cls.dim, "degree": cls.degree, "classification": cls.verdict}


def cmd_nonspecial_check(args) -> dict:
    curve = _load_curve(args.curve)
    qtuple = _tuple_from_args(curve, args)
    if args.necessary_only:
        return support_feasibility(qtuple).to_json()
    alpha = _alpha_from_args(args)
    out = {
        "gminus1": nonspecial_gminus1(qtuple, alpha),
        "g": nonspecial_g(qtuple, alpha),
        "classification": classify(qtuple, alpha).to_json(),
    }
    if all(0 <= a <= curve.m - 1 for a in alpha):
        out["effective_g"] = nonspecial_effective_g(qtuple, alpha)
    return out


def cmd_nonspecial_enumerate(args) -> dict:
    curve = _load_curve(args.curve)
    if args.family == "separable":
        if args.all_alpha0:
            fams = [separable_family(curve, a0) for a0 in range(curve.m)]
            return {"families": [f.to_json() for f in fams]}
        if args.alpha0 is None:
            raise UsageError("--alpha0 or --all-alpha0 required for the separable family")
        return separable_family(curve, args.alpha0).to_json()
    qtuple = _tuple_from_args(curve, args)
    return unit_multiplicity_family(curve, qtuple).to_json()


def cmd_lcp_build(args) -> dict:
    curve = _load_curve(args.curve)
    E = _load_divisor(curve, args.E) if args.E else None
    E2 = _load_divisor(curve, args.E2) if args.E2 else None
    try:
        eval_x = [int(v) for v in args.eval_x.split(",")] if args.eval_x is not None else None
    except ValueError:
        raise UsageError(f"--eval-x needs comma-separated integers, got {args.eval_x!r}") from None
    result = lcp_mod.build(curve, args.construction, args.s, E, E2, eval_x)
    return result.to_json()


def cmd_lcp_verify(args) -> dict:
    """codes.verify_stored_pair on an lcp-build result, read from its file."""
    path = args.result

    def parse(obj):  # this order decides the error of a file bad in several parts
        curve = curve_from_json(obj["curve"])
        G, H = Divisor.from_json(curve, obj["G"]), Divisor.from_json(curve, obj["H"])
        d_places = [parse_place(curve, s) for s in obj["D"]]
        certificates = [CertStep.from_json(c) for c in obj["certificates"]]
        return (curve, d_places, G, H, certificates,
                [_code_from_json(curve.field, cj, path) for cj in obj["codes"]])

    *pair, stored = _read(path, "an lcp-build result", parse)
    if len(stored) != 2:
        raise UsageError(f"result file {path} must hold two codes, not {len(stored)}")
    return verify_stored_pair(*pair, stored)


def _load_code(path: str) -> LinearCode:
    code = _read(path, "a code",
                 lambda obj: _code_from_json(field_from_json(obj["field"]), obj, path))
    if (fault := stored_code_fault(code)) is not None:
        raise UsageError(f"input file {path}: {fault}")
    return code


def cmd_code_info(args) -> dict:
    if args.sample < 0:
        raise UsageError(f"--sample needs a count >= 0, got {args.sample}")
    code = _load_code(args.code)
    out = {"N": code.N, "k": code.k, "q": code.field.q, "rank": code.k}  # _load_code checked it
    if args.sample:
        rng = np.random.default_rng(args.seed)
        msgs = rng.integers(0, code.field.q, size=(args.sample, code.k), dtype=np.int64)
        # the nonzero messages only, so an [N, 0] code encodes no word of length N
        words = encode_messages(code, msgs[np.any(msgs != 0, axis=1)])
        weights = np.count_nonzero(words, axis=1)
        out["sampled_min_weight"] = int(weights.min()) if weights.size else None
    else:
        d = min_distance(code)
        out["min_distance"] = d.to_json()
    return out


def make_parser() -> _Parser:
    parser = _Parser(prog="kummerlcp", description=__doc__)
    parser.add_argument("--format", choices=["json", "tsv"], default="json")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve-info", help="genus, place counts and ramification data")
    p.add_argument("--curve", required=True)

    p = sub.add_parser("curve-places", help="enumerate rational places")
    p.add_argument("--curve", required=True)

    def add_tuple_args(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--places", help="comma-separated place ids binding alpha")
        group.add_argument("--tuple", choices=["all-ramified"], dest="tuple")

    p = sub.add_parser("dim", help="Riemann-Roch dimension of a divisor on a tuple")
    p.add_argument("--curve", required=True)
    add_tuple_args(p)
    p.add_argument("--alpha", required=True, help="comma-separated integers")

    p = sub.add_parser("nonspecial-check", help="small-degree non-specialness checks")
    p.add_argument("--curve", required=True)
    add_tuple_args(p)
    p.add_argument("--alpha")
    p.add_argument("--necessary-only", action="store_true")

    p = sub.add_parser("nonspecial-enumerate", help="explicit degree-(g-1) families")
    p.add_argument("--curve", required=True)
    p.add_argument("--family", choices=["separable", "unit"], required=True)
    p.add_argument("--alpha0", type=int)
    p.add_argument("--all-alpha0", action="store_true")
    add_tuple_args(p)

    p = sub.add_parser("lcp-build", help="build and verify an LCP of AG codes")
    p.add_argument("--curve", required=True)
    p.add_argument("--construction", choices=["1", "2", "R"], required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--E")
    p.add_argument("--E2")
    p.add_argument("--eval-x", dest="eval_x")

    p = sub.add_parser("lcp-verify", help="re-check a serialized LCP result")
    p.add_argument("--result", required=True)

    p = sub.add_parser("code-info", help="parameters of a serialized code")
    p.add_argument("--code", required=True)
    p.add_argument("--sample", type=int, default=0,
                   help="sample this many random codewords instead of exhausting")

    return parser


_VALUE_FLAGS = {"--alpha", "--eval-x"}


def _preprocess(argv: list[str]) -> list[str]:
    # let --alpha -2,2,3 survive argparse by folding the value into the flag
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


_PARSER: _Parser | None = None  # built by the first main() call


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = make_parser()
    try:
        args = _PARSER.parse_args(_preprocess(sys.argv[1:] if argv is None else list(argv)))
        # looked up at call time, so a cmd_* replaced on the module is the one run
        out = globals()["cmd_" + args.command.replace("-", "_")](args)
    except KummerError as exc:
        sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
        return 2
    _emit(out, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
