"""JSON-emitting command line front end.

Every subcommand is a thin adapter: parse arguments, call one library entry
point, serialize the result.  No arithmetic lives in this module.

Exit codes: 0 success, 1 usage error, 2 domain/input error,
3 verification failure or counterexample, 4 resource cap.
Exactly one JSON document goes to stdout on success; diagnostics
(timings, tables) go to stderr.
"""

from __future__ import annotations

import argparse
import inspect
import json
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

from .bent import (
    apply_affine,
    dual_bent,
    is_bent,
    random_invertible,
    two_flat_sum_distribution,
)
from .bounds import bound_report, format_report_table, load_known_counts
from .census import enumerate_bent_by_degree, enumerate_bent_naive
from .core import BooleanFunction, ParseError, ResourceCapError, format_bf, parse_bf
from .geometry import FaceMask, coset_spectrum
from .reconstruct import BallAssignment, reconstruct_from_ball
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


def _load_function(text: str) -> BooleanFunction:
    if text.startswith("@"):
        text = Path(text[1:]).read_text().strip()
    return parse_bf(text)


def _add_function_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--f",
        required=True,
        metavar="BF",
        help="function as bf:<n>:<hex>, or @path to a file holding one",
    )


def _cmd_wht(args: argparse.Namespace):
    f = _load_function(args.f)
    return {"n": f.n, "values": list(walsh_fast(f).values)}, EXIT_OK


def _cmd_anf(args: argparse.Namespace):
    f = _load_function(args.f)
    return {"n": f.n, "values": moebius(f).bits()}, EXIT_OK


def _cmd_degree(args: argparse.Namespace):
    f = _load_function(args.f)
    return {"n": f.n, "degree": degree(f)}, EXIT_OK


def _cmd_bent_test(args: argparse.Namespace):
    f = _load_function(args.f)
    return {"n": f.n, "function": format_bf(f), "bent": is_bent(f)}, EXIT_OK


def _cmd_bent_dual(args: argparse.Namespace):
    f = _load_function(args.f)
    return {"n": f.n, "function": format_bf(f), "dual": format_bf(dual_bent(f))}, EXIT_OK


def _cmd_bent_flats(args: argparse.Namespace):
    f = _load_function(args.f)
    dist = two_flat_sum_distribution(f)
    return {
        "n": f.n,
        "function": format_bf(f),
        "total": dist.total,
        "counts": {str(k): v for k, v in sorted(dist.counts.items())},
    }, EXIT_OK


def _cmd_bent_affine(args: argparse.Namespace):
    if args.count < 1:
        raise _UsageError(f"--count must be >= 1, got {args.count}")
    f = _load_function(args.f)
    if not is_bent(f):
        raise ValueError(f"{format_bf(f)} is not bent; affine images would not be")
    rng = random.Random(args.seed)
    images = []
    for _ in range(args.count):
        image = apply_affine(f, random_invertible(f.n, rng))
        images.append({"function": format_bf(image), "bent": is_bent(image)})
    all_bent = all(entry["bent"] for entry in images)
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
    f = _load_function(args.f)
    mask = FaceMask(f.n, int(args.mask, 0))
    sums = coset_spectrum(f, mask)
    return {
        "n": f.n,
        "function": format_bf(f),
        "mask": f"{mask.mask:#x}",
        "dim": mask.dim,
        "sums": {str(rep): value for rep, value in sums.items()},
    }, EXIT_OK


def _cmd_reconstruct(args: argparse.Namespace):
    text = args.ball
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("ball JSON is nested too deeply") from None
    if not (isinstance(data, dict) and isinstance(data.get("values"), list)
            and all(type(data.get(key)) is int for key in ("n", "r"))):
        raise ValueError('ball must be a JSON object {"n": int, "r": int, "values": [bits]}')
    assignment = BallAssignment(data["n"], data["r"], tuple(data["values"]))
    f = reconstruct_from_ball(assignment)
    return {
        "n": assignment.n,
        "r": assignment.r,
        "function": format_bf(f),
        "degree": degree(f),
    }, EXIT_OK


def _cmd_census(args: argparse.Namespace):
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    runs = {}
    if args.method in ("naive", "both"):
        runs["naive"] = enumerate_bent_naive(args.n, jobs=args.jobs)
    if args.method in ("degree", "both"):
        runs["degree"] = enumerate_bent_by_degree(args.n, jobs=args.jobs)
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
        agree = runs["naive"].count == runs["degree"].count and (
            runs["naive"].functions == runs["degree"].functions
        )
        payload["agreement"] = agree
        if not agree:
            code = EXIT_FAILED
    if args.emit:
        source = runs.get("degree") or runs["naive"]
        if source.functions is None:
            raise ValueError("census kept no function list to emit")
        Path(args.emit).write_text(
            "".join(format_bf(f) + "\n" for f in source.functions)
        )
        payload["emitted"] = args.emit
    return payload, code


def _cmd_bounds(args: argparse.Namespace):
    known = load_known_counts(args.known) if args.known else None
    report = bound_report(args.n, known)
    print(format_report_table(report), file=sys.stderr)
    return report.to_json_dict(), EXIT_OK


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
        if name in ("samples", "maps") and value < 1:
            raise _UsageError(f"--{name} must be >= 1, got {value}")
        kwargs[name] = value
    report = suite(**kwargs)
    print(
        f"verify {args.suite}: {report['checks']} checks, "
        f"{report['failures']} failures",
        file=sys.stderr,
    )
    return report, EXIT_OK if report["passed"] else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--count", type=int, default=10)
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
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--emit", metavar="PATH", help="write one bf literal per line")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("bounds", help="exact bound arithmetic report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--known", metavar="PATH", help="known-count JSON table")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--maps", type=int, default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(json.dumps(payload, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
