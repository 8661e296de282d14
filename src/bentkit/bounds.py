"""Exact evaluation of the counting bounds and a comparison report.

Integer-valued exponents are computed with arbitrary-precision arithmetic;
only logarithms of the affine group size and of 6 are floating point
(relative error < 1e-12).  Upper-bound formulas that come from asymptotic
arguments can dip below actual counts at small n; the report flags those
instead of suppressing them, and never ships literature counts of its own.
Each report row is its own formula of n, listed once in ``_ROWS``; a report
sums the theorem row from its a_n, T_n and Q rows, each evaluated once.
"""

from __future__ import annotations

import json
import math
from math import comb
from typing import Optional, Sequence

from .census import enumerate_bent_by_degree
from .core import _check_even, _check_int, _read_bounded
from .geometry import ball_size, covering_coset_count

_LOG2_6 = math.log2(6)
# past this arity 2^(n-6) and T_n no longer convert to a float
_FLOAT_ARITY_LIMIT = 1024
# a known-count file is read up to one entry per even n that bound_report takes:
# a 4300-digit count (int()'s default string limit) and 1 KiB for the rest
_KNOWN_FILE_BYTES = _FLOAT_ARITY_LIMIT // 2 * (4300 + 1024)
_ASYMPTOTIC_NOTE = (
    "theorem_upper_log2 and headline_log2 evaluate exact surrogates of "
    "asymptotic formulas; they are not certified bounds at any fixed n"
)


def _half_central_binomial(n: int) -> int:
    # C(n, n/2) / 2 = C(n-1, n/2-1) exactly, by Pascal's rule and symmetry
    return comb(n - 1, n // 2 - 1)


def trivial_upper_log2(n: int) -> int:
    """2^(n-1) + C(n, n/2)/2: the degree-restricted space size, exactly."""
    _check_even(n)
    return (1 << (n - 1)) + _half_central_binomial(n)


def tokareva_lower_log2(n: int) -> int:
    """2^(n-2) + C(n, n/2)/2: conjectured lower bound exponent."""
    _check_even(n)
    return (1 << (n - 2)) + _half_central_binomial(n)


def t_n_log2(n: int) -> int:
    """Sum of C(n-2, i) for i = 0..n/2: restriction-count exponent."""
    _check_even(n, 4)
    return ball_size(n - 2, n // 2)


def q_n(n: int) -> int:
    """Cosets of the face on the two highest coordinates that meet B_{n/2}."""
    _check_even(n, 4)
    return covering_coset_count(n, n // 2, 0b11 << (n - 2))


def a_n_log2(n: int) -> float:
    """log2 of the affine-orbit size |GL(n,2)| * 2^n * 2^(n+1): matrix,
    translation, affine term."""
    _check_int(n, "arity")
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    # |GL(n,2)| = prod_i (2^n - 2^i) = prod_{i=1..n} (2^i - 1) * 2^(n(n-1)/2),
    # the same exact int without multiplying out the trailing zeros
    odd = math.prod((1 << i) - 1 for i in range(1, n + 1))
    return math.log2(odd << (n * (n - 1) // 2 + 2 * n + 1))


def _theorem_log2(rows: dict) -> float:
    q = rows["q_n"]
    # 3q/8 before the float factor: 3q * log2(6) overflows a float at n=1024
    return rows["a_n_log2"] + rows["t_n_log2"] + q + 3 * q / 8 * _LOG2_6


def theorem_upper_log2(n: int) -> float:
    """a_n + T_n + 4^(Q/2) + 6^(3Q/8) combined in log2."""
    _check_even(n, 4)
    return _theorem_log2({"a_n_log2": a_n_log2(n), "t_n_log2": t_n_log2(n), "q_n": q_n(n)})


def headline_log2(n: int) -> float:
    """3 * 2^(n-6) * log2(6) + 2^(n-2)."""
    _check_even(n, 6)
    return 3 * (1 << (n - 6)) * _LOG2_6 + (1 << (n - 2))


def simplified_log2(n: int) -> int:
    """3 * 2^(n-3): the round envelope the headline bound stays under."""
    _check_even(n, 4)
    return 3 << (n - 3)


def load_known_counts(path: str) -> list[dict]:
    """Read user-supplied counts: [{"n": int, "count": decimal string, "source": str}]."""
    text = _read_bounded(path, _KNOWN_FILE_BYTES, "a 4300-digit count per even n")
    try:
        raw = json.loads(text)
    except RecursionError:
        raise ValueError("known-count file is nested too deeply") from None
    if not isinstance(raw, list):
        raise ValueError("known-count file must hold a JSON list")
    entries = []
    for item in raw:
        if not isinstance(item, dict):
            raise ValueError(f"known-count entries must be objects, got {item!r}")
        try:
            n = item["n"]
            count = item["count"]
            source = item["source"]
        except KeyError as exc:
            raise ValueError(f"known-count entry missing key {exc}") from None
        _check_int(n, "known-count arity")
        if n < 1:
            raise ValueError(f"known-count arity must be a positive int, got {n!r}")
        if type(count) is int:
            count = str(count)
        # isdigit alone admits digits int() refuses, or reads, outside ASCII
        if not (isinstance(count, str) and count.isascii() and count.isdigit()) or int(count) < 1:
            raise ValueError(f"count for n={n} must be a positive decimal string")
        if not isinstance(source, str) or not source:
            raise ValueError(f"entry for n={n} needs a nonempty source string")
        entries.append({"n": n, "count": count, "source": source})
    return entries


# (JSON name, formula, least even n it is defined at, whether it is an upper
# bound a known count can exceed), in the order of the JSON form
_ROWS = (
    ("trivial_upper_log2", trivial_upper_log2, 2, True),
    ("tokareva_lower_log2", tokareva_lower_log2, 2, False),
    ("t_n_log2", t_n_log2, 4, False),
    ("q_n", q_n, 4, False),
    ("a_n_log2", a_n_log2, 2, False),
    ("theorem_upper_log2", theorem_upper_log2, 4, True),
    ("headline_log2", headline_log2, 6, True),
    ("simplified_log2", simplified_log2, 4, True),
)


def bound_report(n: int, known: Optional[Sequence[dict]] = None) -> dict:
    """Evaluate every bound at n and compare against a known count if one is
    available (supplied externally, or the census itself for n <= 4).

    Returns the JSON form: "n", then each ``_ROWS`` entry defined at n (a row
    that is not is a missing key), the known count with its source and
    provenance when there is one, "asymptotic_only" (the upper bounds below
    the known count), "warnings" and "note".
    """
    _check_even(n)
    if n > _FLOAT_ARITY_LIMIT:
        raise ValueError(f"log2 values overflow a float past n={_FLOAT_ARITY_LIMIT}, got {n}")
    report: dict = {"n": n}
    for name, formula, least, _ in _ROWS:
        if n >= least:  # the theorem sums the rows above it, each evaluated once
            report[name] = _theorem_log2(report) if formula is theorem_upper_log2 else formula(n)

    entry = next((e for e in known or () if e.get("n") == n), None)
    if entry is not None:
        report["known_count_log2"] = math.log2(int(entry["count"]))
        report["known_source"] = str(entry["source"])
        report["known_provenance"] = "external"
    elif n <= 4:
        # the degree census is exhaustive too, and counts without listing
        # the 2^(2^n) truth tables that the brute-force scan visits
        count = enumerate_bent_by_degree(n).count
        report["known_count_log2"] = math.log2(count)
        report["known_source"] = "exhaustive census at this arity"
        report["known_provenance"] = "census"

    # without a known count, or without a theorem row, nothing is flagged
    known_log = report.get("known_count_log2", -math.inf)
    report["asymptotic_only"] = [
        name for name, _, _, upper in _ROWS
        if upper and name in report and report[name] < known_log - 1e-12
    ]
    report["warnings"] = []
    if report.get("theorem_upper_log2", -math.inf) > report["trivial_upper_log2"]:
        report["warnings"].append(
            "theorem_upper_log2 exceeds trivial_upper_log2 at this n; "
            "asymptotic formula only, vacuous as a bound here"
        )
    report["note"] = _ASYMPTOTIC_NOTE
    return report


def format_report_table(report: dict) -> str:
    """Fixed-width text rendering of a ``bound_report`` dict: one line per
    numeric entry but n, in the dict's order, then the flags, warnings and note."""
    rows = [("quantity", "log2 value"), ("-" * 24, "-" * 18)]
    for name, value in report.items():
        if name != "n" and isinstance(value, (int, float)):
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            rows.append((name, shown))
    lines = [f"bounds at n={report['n']}"]
    lines += [f"  {name:<24} {shown:>18}" for name, shown in rows]
    for flagged in report["asymptotic_only"]:
        lines.append(f"  [asymptotic-only] {flagged} is below the known count")
    for warning in report["warnings"]:
        lines.append(f"  [warning] {warning}")
    lines.append(f"  note: {report['note']}")
    return "\n".join(lines)
