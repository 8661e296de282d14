"""JSON-emitting command line front end.

Every subcommand is a thin adapter: parse arguments, call one library entry
point, serialize the result.  No arithmetic lives in this module.

Exit codes: 0 success, 1 usage error, 2 domain/input error or a closed
stdout, 3 verification failure or counterexample, 4 resource cap.
Exactly one JSON document goes to stdout on success; diagnostics
(timings, tables) go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import random
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bent import _bent_images, dual_bent, is_bent, two_flat_sum_distribution
from .bounds import bound_report, format_report_table, load_known_counts
from .census import enumerate_bent_by_degree, enumerate_bent_naive
from .core import MAX_ARITY, BooleanFunction, ParseError, ResourceCapError, format_bf, pack_bits
from .core import _check_int, _read_bounded, parse_bf
from .geometry import coset_spectrum
from .reconstruct import reconstruct_from_ball
from .suites import SUITES
from .transforms import degree, moebius, walsh_fast

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_FAILED = 3
EXIT_RESOURCE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; remap to the usage code.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# no more is ever read from an @path file than the largest input it can hold:
# one literal, bf:26: and 2^24 hex digits, plus 64 bytes of whitespace; or the
# ball B_26 of n=26, 2^26 bits at 3 bytes each as json.dumps writes them
# ("0, "), plus 128 bytes of keys and whitespace
_FUNCTION_FILE_BYTES = len(f"bf:{MAX_ARITY}:") + (1 << MAX_ARITY) // 4 + 64
_BALL_FILE_BYTES = 3 * (1 << MAX_ARITY) + 128


def _load_function(text: str) -> BooleanFunction:
    if text.startswith("@"):
        text = _read_bounded(text[1:], _FUNCTION_FILE_BYTES, "the longest literal").strip()
    return parse_bf(text)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_function_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--f",
        required=True,
        metavar="BF",
        help="function as bf:<n>:<hex>, or @path to a file holding one",
    )


def _cmd_wht(args: argparse.Namespace):
    return {"n": args.f.n, "values": walsh_fast(args.f)}, EXIT_OK


def _cmd_anf(args: argparse.Namespace):
    return {"n": args.f.n, "values": moebius(args.f).bits()}, EXIT_OK


def _cmd_degree(args: argparse.Namespace):
    return {"n": args.f.n, "degree": degree(args.f)}, EXIT_OK


def _cmd_bent_test(args: argparse.Namespace):
    f = args.f
    return {"n": f.n, "function": format_bf(f), "bent": is_bent(f)}, EXIT_OK


def _cmd_bent_dual(args: argparse.Namespace):
    f = args.f
    return {"n": f.n, "function": format_bf(f), "dual": format_bf(dual_bent(f))}, EXIT_OK


def _cmd_bent_flats(args: argparse.Namespace):
    f = args.f
    dist = two_flat_sum_distribution(f)
    return {
        "n": f.n,
        "function": format_bf(f),
        "total": dist.total,
        "counts": {str(k): v for k, v in sorted(dist.counts.items())},
    }, EXIT_OK


def _cmd_bent_affine(args: argparse.Namespace):
    f = args.f
    if not is_bent(f):
        raise ValueError(f"{format_bf(f)} is not bent; affine images would not be")
    images = [
        {"function": format_bf(BooleanFunction(f.n, pack_bits(row))), "bent": ok}
        for _, row, ok in _bent_images([f], args.count, random.Random(args.seed))
    ]
    all_bent = all(image["bent"] for image in images)
    payload = {
        "n": f.n,
        "function": format_bf(f),
        "seed": args.seed,
        "count": args.count,
        "images": images,
        "all_bent": all_bent,
    }
    return payload, EXIT_OK if all_bent else EXIT_FAILED


def _cmd_coset_spectrum(args: argparse.Namespace):
    f = args.f
    # exactly the forms --help names: int(text, 0) would also take 1_0, +3, 0b11
    if not re.fullmatch(r"0[xX][0-9a-fA-F]+|[0-9]+", args.mask):
        raise ValueError(f"mask must be decimal digits or 0x hex, got {args.mask!r}")
    mask = int(args.mask, 16 if args.mask[:2] in ("0x", "0X") else 10)
    return {
        "n": f.n,
        "function": format_bf(f),
        "mask": f"{mask:#x}",
        "dim": mask.bit_count(),
        "sums": {str(rep): value for rep, value in coset_spectrum(f, mask).items()},
    }, EXIT_OK


def _cmd_reconstruct(args: argparse.Namespace):
    text = args.ball
    if text.startswith("@"):
        text = _read_bounded(text[1:], _BALL_FILE_BYTES, "the largest ball")
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("ball JSON is nested too deeply") from None
    if not (isinstance(data, dict) and isinstance(data.get("values"), list)
            and all(type(data.get(key)) is int for key in ("n", "r"))):
        raise ValueError('ball must be a JSON object {"n": int, "r": int, "values": [bits]}')
    n, r, values = data["n"], data["r"], data["values"]
    if set(map(type, values)) - {int}:  # bytes() would take true and false as bits
        _check_int(next(v for v in values if type(v) is not int), "assignment entries")
    try:
        block = np.frombuffer(bytes(values), dtype=np.uint8)[None]
    except ValueError:  # an entry outside 0..255
        bad = next(v for v in values if v not in (0, 1))
        raise ValueError(f"assignment entries must be bits, got {bad}") from None
    f = BooleanFunction(n, pack_bits(reconstruct_from_ball(n, r, block)))
    return {"n": n, "r": r, "function": format_bf(f), "degree": degree(f)}, EXIT_OK


def _cmd_census(args: argparse.Namespace):
    runs = {}
    if args.method in ("naive", "both"):
        runs["naive"] = enumerate_bent_naive(args.n)
    if args.method in ("degree", "both"):
        runs["degree"] = enumerate_bent_by_degree(args.n)
    for name, result in runs.items():
        print(f"census {name}: n={args.n} count={result.count} "
              f"elapsed={result.elapsed:.3f}s", file=sys.stderr)
    payload = {
        "n": args.n,
        "method": args.method,
        "counts": {name: result.count for name, result in runs.items()},
    }
    code = EXIT_OK
    if args.method == "both":
        agree = runs["naive"].tables == runs["degree"].tables
        payload["agreement"] = agree
        if not agree:
            code = EXIT_FAILED
    if args.emit:
        source = runs.get("degree") or runs["naive"]
        Path(args.emit).write_text(
            "".join(format_bf(f) + "\n" for f in source.functions)
        )
        payload["emitted"] = args.emit
    return payload, code


def _cmd_bounds(args: argparse.Namespace):
    known = load_known_counts(args.known) if args.known else None
    report = bound_report(args.n, known)
    print(format_report_table(report), file=sys.stderr)
    return report, EXIT_OK


def _cmd_verify(args: argparse.Namespace):
    suite = SUITES[args.suite]
    accepted = set(inspect.signature(suite).parameters)
    kwargs = {}
    for name in ("n", "samples", "seed", "maps"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in accepted:
            raise _UsageError(f"suite {args.suite} does not accept --{name}")
        kwargs[name] = value
    report = suite(**kwargs)
    print(
        f"verify {args.suite}: {report['checks']} checks, "
        f"{report['failures']} failures",
        file=sys.stderr,
    )
    return report, EXIT_OK if report["passed"] else EXIT_FAILED


def _dumps(payload: dict) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, with each top-level
    non-empty list of exact ints formatted by json's C encoder.

    With ``indent`` set, json formats every list item in Python; without it,
    the C encoder runs, here with the layout's newline and indent as its item
    separator.  Every other member is one stock ``json.dumps`` of a
    one-member dict, which puts it at the same depth as in the whole payload.
    """
    # exact ints only: bool and IntEnum items keep the stock encoder
    fast = [
        type(key) is str and type(value) is list and set(map(type, value)) == {int}
        for key, value in payload.items()
    ]
    if not any(fast):
        return json.dumps(payload, indent=2)
    members = []
    for (key, value), is_int_list in zip(payload.items(), fast):
        if is_int_list:
            items = json.dumps(value, separators=(",\n    ", ": "))
            members.append(f"  {json.dumps(key)}: [\n    {items[1:-1]}\n  ]")
        else:
            members.append(json.dumps({key: value}, indent=2)[2:-2])
    return "{\n" + ",\n".join(members) + "\n}"


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, built on the first call.

    Cached: every later call, and so every ``main`` call in this process,
    reuses that parser, whose handlers and ``--suite`` choices are bound at
    the first call.  ``parse_args`` returns a fresh namespace each time, so
    no value carries over from one call to the next.
    """
    parser = _Parser(prog="bentkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("wht", help="Walsh-Hadamard spectrum of a function")
    _add_function_arg(p)
    p.set_defaults(handler=_cmd_wht)

    p = sub.add_parser("anf", help="algebraic normal form coefficients")
    _add_function_arg(p)
    p.set_defaults(handler=_cmd_anf)

    p = sub.add_parser("degree", help="algebraic degree")
    _add_function_arg(p)
    p.set_defaults(handler=_cmd_degree)

    bent = sub.add_parser("bent", help="bent-function analysis")
    bent_sub = bent.add_subparsers(dest="bent_command", metavar="check", required=True)

    p = bent_sub.add_parser("test", help="is the function bent?")
    _add_function_arg(p)
    p.set_defaults(handler=_cmd_bent_test)

    p = bent_sub.add_parser("dual", help="dual of a bent function")
    _add_function_arg(p)
    p.set_defaults(handler=_cmd_bent_dual)

    p = bent_sub.add_parser("flats", help="sum distribution over 2-dimensional flats")
    _add_function_arg(p)
    p.set_defaults(handler=_cmd_bent_flats)

    p = bent_sub.add_parser("affine", help="random invertible affine images")
    _add_function_arg(p)
    p.add_argument("--count", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(handler=_cmd_bent_affine)

    p = sub.add_parser("coset-spectrum", help="sums of (-1)^f over cosets of a face")
    _add_function_arg(p)
    p.add_argument("--mask", required=True, help="coordinate mask, e.g. 0x3 or 3")
    p.set_defaults(handler=_cmd_coset_spectrum)

    p = sub.add_parser("reconstruct", help="rebuild a low-degree function from a ball")
    p.add_argument(
        "--ball",
        required=True,
        help='JSON {"n","r","values"} inline, or @path to a file holding it',
    )
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("census", help="enumerate all bent functions at an arity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("naive", "degree", "both"), default="both")
    # kept for scripts that pass it; a str choice, as argparse matches the raw text
    p.add_argument("--jobs", choices=("1",), default="1", help="the census runs in one process")
    p.add_argument("--emit", metavar="PATH", help="write one bf literal per line")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("bounds", help="exact bound arithmetic report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--known", metavar="PATH", help="known-count JSON table")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--maps", type=_positive_int, default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "f" in args:
            args.f = _load_function(args.f)
        payload, code = args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    text = _dumps(payload)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (the flush above raises here what would
        # otherwise surface at exit): point it at /dev/null so that the
        # flush at interpreter exit finds nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the JSON document was written", file=sys.stderr)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
