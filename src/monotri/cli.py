"""Command line interface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success or
Verified, 1 failed verification, 2 invalid input, 3 resource limit (a
guard, or memory run out).  A reader closing stdout early ends the run
quietly with exit 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

from . import enumeration, exactla, transform
from .core import triangle_stats
from .enumeration import TriangleClass
from .errors import InvalidInputError, ParseError, ResourceLimitError
from .evaluate import AlphaMethod, alpha
from .report import FAILED, VERIFIED
from .serialize import _DECIMAL, deserialize, serialize
from .verify import IDENTITIES, verify

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def _is_row(text: str) -> bool:
    """Decimal integers, each held to the CSV cell rule, joined by bare commas."""
    return all(map(_DECIMAL.fullmatch, text.split(",")))


def _row(text: str) -> tuple[int, ...]:
    """The row in ``--row``, by ``_is_row``'s rule."""
    try:
        if not _is_row(text):
            raise ValueError(text)
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise InvalidInputError(
            f"cannot parse row {text!r}; expected comma-separated integers") from None


def _emit(value, fmt: str) -> None:
    sys.stdout.write(serialize(value, fmt).decode())
    if fmt == "json":
        sys.stdout.write("\n")


def _print_int(value: int) -> None:
    """Print an integer result; one past str()'s digit limit is a budget stop."""
    try:
        text = str(value)
    except ValueError as e:
        raise ResourceLimitError(f"result too long to print: {e}") from None
    print(text)


def _cmd_alpha(args) -> int:
    _print_int(alpha(_row(args.row), args.method))
    return EXIT_OK


def _cmd_enum(args) -> int:
    if args.limit is not None and not 0 <= args.limit <= sys.maxsize:
        raise InvalidInputError(f"--limit must be in [0, {sys.maxsize}], got {args.limit}")
    cls, csv = args.cls, args.format == "csv" and not args.count_only
    if cls in ("mt", "dmt"):
        if args.row is None:
            raise InvalidInputError(f"--class {cls} needs --row")
        if csv:
            raise InvalidInputError("csv is only defined for matrices and report tables")
        stream = enumeration.enum_triangles(_row(args.row), TriangleClass(cls))
    elif cls in ("asm", "2asm"):
        if args.n is None:
            raise InvalidInputError(f"--class {cls} needs --n")
        stream = enumeration.enum_matrices(cls, args.n)
    else:  # wni
        if args.n is None or args.i is None:
            raise InvalidInputError("--class wni needs --n and --i")
        stream = (o.matrix for o in enumeration.enum_wni_objects(args.n, args.i))
        # a csv matrix of no column is blank lines, as is the separator
        if csv and args.n == 1:
            raise InvalidInputError("csv cannot delimit the zero-column W-objects of n = 1")
    count = 0
    for obj in itertools.islice(stream, args.limit):
        count += 1
        if not args.count_only:
            _emit(obj, args.format)
            if args.format != "json":
                sys.stdout.write("\n")
    if args.count_only:
        _print_int(count)
    return EXIT_OK


def _cmd_stats(args) -> int:
    with open(args.input, "rb") as fh:
        t = deserialize(fh.read(), "triangle")
    print(json.dumps(dataclasses.asdict(triangle_stats(t))))
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
    _print_int(exactla.det_exact(exactla.build_matrix(args.kind, args.n)))
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
    p.add_argument("--method", choices=[m.value for m in AlphaMethod], default="auto")
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
    argv = list(argv)
    # argparse reads a row opening with a minus sign as an option: bind it
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--row" and _is_row(argv[i + 1]):
            argv[i:i + 2] = [f"--row={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: send what is still buffered, at exit too, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (InvalidInputError, ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
