"""Command line interface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success or
Verified, 1 failed verification, 2 invalid input, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import enumeration, exactla, transform
from .core import triangle_stats
from .enumeration import TriangleClass
from .errors import InvalidInputError, ParseError, ResourceLimitError
from .evaluate import alpha
from .report import FAILED, VERIFIED
from .serialize import deserialize, serialize
from .verify import IDENTITIES, verify

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def _row(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidInputError(f"cannot parse row {text!r}; expected comma-separated integers")


def _emit(value, fmt: str) -> None:
    sys.stdout.write(serialize(value, fmt).decode())
    if fmt == "json":
        sys.stdout.write("\n")


def _cmd_alpha(args) -> int:
    print(alpha(_row(args.row), args.method))
    return EXIT_OK


def _cmd_enum(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise InvalidInputError(f"--limit must be non-negative, got {args.limit}")
    cls = args.cls
    if cls in ("mt", "dmt"):
        if args.row is None:
            raise InvalidInputError(f"--class {cls} needs --row")
        stream = enumeration.enum_triangles(_row(args.row), TriangleClass(cls))
    elif cls in ("asm", "2asm"):
        if args.n is None:
            raise InvalidInputError(f"--class {cls} needs --n")
        stream = enumeration.enum_matrices(cls, args.n)
    else:  # wni
        if args.n is None or args.i is None:
            raise InvalidInputError("--class wni needs --n and --i")
        stream = (o.matrix for o in enumeration.enum_wni_objects(args.n, args.i))
    count = 0
    for obj in stream:
        # checked after the pull, so that a bad row is rejected even at --limit 0
        if count == args.limit:
            break
        count += 1
        if not args.count_only:
            _emit(obj, args.format)
            if args.format != "json":
                sys.stdout.write("\n")
    if args.count_only:
        print(count)
    return EXIT_OK


def _cmd_stats(args) -> int:
    with open(args.input, "rb") as fh:
        t = deserialize(fh.read(), "triangle")
    st = triangle_stats(t)
    print(json.dumps({
        "pairs_per_row": list(st.pairs_per_row),
        "newcomers": st.newcomers,
        "peaks": st.peaks,
        "base_pairs": st.base_pairs,
        "dd": st.dd,
        "dd_bar": st.dd_bar,
        "sc": st.sc,
    }))
    return EXIT_OK


def _cmd_biject(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    kind, direction = args.kind, args.direction
    if kind in ("mt-asm", "dmt-2asm"):
        bkind = transform.BijectionKind(kind)
        if direction == "fwd":
            result = transform.triangle_to_matrix(deserialize(data, "triangle"), bkind)
        else:
            result = transform.matrix_to_triangle(deserialize(data, "matrix"), bkind)
    else:  # s1-mt
        t = deserialize(data, "triangle")
        result = transform.s1_to_mt(t) if direction == "fwd" else transform.mt_to_s1(t)
    _emit(result, "json")
    return EXIT_OK


def _cmd_verify(args) -> int:
    params = {}
    ident = IDENTITIES.get(args.id)
    if ident is None:
        raise InvalidInputError(f"unknown identity {args.id!r}")
    if args.n is not None:
        params[ident.primary] = args.n
    if args.seed is not None:
        if "seed" not in ident.defaults:
            print(f"note: identity {args.id!r} ignores --seed", file=sys.stderr)
        else:
            params["seed"] = args.seed
    report = verify(args.id, params)
    _emit(report, args.format)
    if report.status == VERIFIED:
        return EXIT_OK
    if report.status == FAILED:
        return EXIT_FAILED
    print(f"skipped: {report.reason}", file=sys.stderr)
    return EXIT_INVALID


def _cmd_det(args) -> int:
    print(exactla.det_exact(exactla.build_matrix(args.kind, args.n)))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monotri",
        description="Exact counting, enumeration and identity verification for "
        "monotone triangles, their decreasing relatives and ASM-like matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="evaluate the counting polynomial at a bottom row")
    p.add_argument("--row", required=True, help="comma-separated integers")
    p.add_argument("--method", choices=["auto", "op", "mt", "dmt"], default="auto")
    p.set_defaults(fn=_cmd_alpha)

    p = sub.add_parser("enum", help="enumerate triangles, matrices or W-objects")
    p.add_argument("--class", dest="cls", required=True,
                   choices=["mt", "dmt", "asm", "2asm", "wni"])
    p.add_argument("--row", help="bottom row for triangle classes")
    p.add_argument("--n", type=int, help="size for matrix classes")
    p.add_argument("--i", type=int, help="index for the wni class")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--limit", type=int)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("stats", help="sign statistics of a triangle read from a file")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("biject", help="apply a triangle/matrix correspondence")
    p.add_argument("--kind", required=True, choices=["mt-asm", "dmt-2asm", "s1-mt"])
    p.add_argument("--direction", required=True, choices=["fwd", "rev"])
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_biject)

    p = sub.add_parser("verify", help="run one identity check")
    p.add_argument("--id", required=True)
    p.add_argument("--n", type=int, help="override the identity's primary size parameter")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("det", help="determinant of a named matrix")
    p.add_argument("--kind", required=True, choices=["behrend", "sprime"])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_det)

    return parser


def run_cli(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (InvalidInputError, ParseError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
