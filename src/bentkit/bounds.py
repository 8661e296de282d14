"""Exact evaluation of the counting bounds and a comparison report.

Integer-valued exponents are computed with arbitrary-precision arithmetic;
only logarithms of the affine group size and of 6 are floating point
(relative error < 1e-12).  Upper-bound formulas that come from asymptotic
arguments can dip below actual counts at small n; the report flags those
instead of suppressing them, and never ships literature counts of its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .geometry import FaceMask, covering_coset_count

_LOG2_6 = math.log2(6)
# past this arity 2^(n-6) and T_n no longer convert to a float
_FLOAT_ARITY_LIMIT = 1024
_ASYMPTOTIC_NOTE = (
    "theorem_upper_log2 and headline_log2 evaluate exact surrogates of "
    "asymptotic formulas; they are not certified bounds at any fixed n"
)


def _check_even(n: int, minimum: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"arity must be an int, got {n!r}")
    if n < minimum or n % 2:
        raise ValueError(f"need even n >= {minimum}, got {n}")


def _half_central_binomial(n: int) -> int:
    # C(n, n/2) / 2 = C(n-1, n/2-1) exactly, by Pascal's rule and symmetry
    return comb(n - 1, n // 2 - 1)


def trivial_upper_log2(n: int) -> int:
    """2^(n-1) + C(n, n/2)/2: the degree-restricted space size, exactly."""
    _check_even(n, 2)
    return (1 << (n - 1)) + _half_central_binomial(n)


def tokareva_lower_log2(n: int) -> int:
    """2^(n-2) + C(n, n/2)/2: conjectured lower bound exponent."""
    _check_even(n, 2)
    return (1 << (n - 2)) + _half_central_binomial(n)


def t_n_log2(n: int) -> int:
    """Sum of C(n-2, i) for i = 0..n/2: restriction-count exponent."""
    _check_even(n, 4)
    return sum(comb(n - 2, i) for i in range(n // 2 + 1))


def q_n(n: int) -> int:
    """Cosets of the face on the two highest coordinates that meet B_{n/2}."""
    _check_even(n, 4)
    return covering_coset_count(n, n // 2, FaceMask(n, 0b11 << (n - 2)))


def a_n_log2(n: int) -> float:
    """log2 of the affine-orbit size |GL(n,2)| * 2^n * 2^(n+1): matrix,
    translation, affine term."""
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    gl = 1
    for i in range(n):
        gl *= (1 << n) - (1 << i)
    return math.log2(gl * (1 << n) * (1 << (n + 1)))


def theorem_upper_log2(n: int) -> float:
    """a_n + T_n + 4^(Q/2) + 6^(3Q/8) combined in log2."""
    _check_even(n, 4)
    q = q_n(n)
    return a_n_log2(n) + t_n_log2(n) + q + 3 * q * _LOG2_6 / 8


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
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
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
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"known-count arity must be a positive int, got {n!r}")
        if isinstance(count, int) and not isinstance(count, bool):
            count = str(count)
        if not isinstance(count, str) or not count.isdigit() or int(count) < 1:
            raise ValueError(f"count for n={n} must be a positive decimal string")
        if not isinstance(source, str) or not source:
            raise ValueError(f"entry for n={n} needs a nonempty source string")
        entries.append({"n": n, "count": count, "source": source})
    return entries


@dataclass(frozen=True)
class BoundReport:
    n: int
    trivial_upper_log2: int
    tokareva_lower_log2: int
    a_n_log2: float
    t_n_log2: Optional[int] = None
    q_n: Optional[int] = None
    theorem_upper_log2: Optional[float] = None
    headline_log2: Optional[float] = None
    simplified_log2: Optional[int] = None
    known_count_log2: Optional[float] = None
    known_source: Optional[str] = None
    known_provenance: Optional[str] = None
    asymptotic_only: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    note: str = _ASYMPTOTIC_NOTE

    def to_json_dict(self) -> dict:
        out: dict = {"n": self.n}
        for name in (
            "trivial_upper_log2",
            "tokareva_lower_log2",
            "t_n_log2",
            "q_n",
            "a_n_log2",
            "theorem_upper_log2",
            "headline_log2",
            "simplified_log2",
            "known_count_log2",
            "known_source",
            "known_provenance",
        ):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        out["asymptotic_only"] = list(self.asymptotic_only)
        out["warnings"] = list(self.warnings)
        out["note"] = self.note
        return out


def bound_report(n: int, known: Optional[Sequence[dict]] = None) -> BoundReport:
    """Evaluate every bound at n and compare against a known count if one is
    available (supplied externally, or the census itself for n <= 4)."""
    _check_even(n, 2)
    if n > _FLOAT_ARITY_LIMIT:
        raise ValueError(f"log2 values overflow a float past n={_FLOAT_ARITY_LIMIT}, got {n}")
    trivial = trivial_upper_log2(n)
    tokareva = tokareva_lower_log2(n)
    a_log = a_n_log2(n)
    t_log = t_n_log2(n) if n >= 4 else None
    q_val = q_n(n) if n >= 4 else None
    theorem = theorem_upper_log2(n) if n >= 4 else None
    headline = headline_log2(n) if n >= 6 else None
    simplified = simplified_log2(n) if n >= 4 else None

    known_log = None
    known_source = None
    known_provenance = None
    if known:
        for entry in known:
            if entry.get("n") == n:
                known_log = math.log2(int(entry["count"]))
                known_source = str(entry["source"])
                known_provenance = "external"
                break
    if known_log is None and n <= 4:
        from .census import bent_count

        known_log = math.log2(bent_count(n, "naive"))
        known_source = "exhaustive census at this arity"
        known_provenance = "census"

    asymptotic = []
    if known_log is not None:
        for name, value in (
            ("trivial_upper_log2", trivial),
            ("theorem_upper_log2", theorem),
            ("headline_log2", headline),
            ("simplified_log2", simplified),
        ):
            if value is not None and value < known_log - 1e-12:
                asymptotic.append(name)

    warnings = []
    if theorem is not None and theorem > trivial:
        warnings.append(
            "theorem_upper_log2 exceeds trivial_upper_log2 at this n; "
            "asymptotic formula only, vacuous as a bound here"
        )

    return BoundReport(
        n=n,
        trivial_upper_log2=trivial,
        tokareva_lower_log2=tokareva,
        a_n_log2=a_log,
        t_n_log2=t_log,
        q_n=q_val,
        theorem_upper_log2=theorem,
        headline_log2=headline,
        simplified_log2=simplified,
        known_count_log2=known_log,
        known_source=known_source,
        known_provenance=known_provenance,
        asymptotic_only=tuple(asymptotic),
        warnings=tuple(warnings),
    )


def format_report_table(report: BoundReport) -> str:
    """Fixed-width text rendering of a BoundReport."""
    rows = [("quantity", "log2 value"), ("-" * 24, "-" * 18)]
    # every numeric field of the JSON form but n, in its order
    for name, value in report.to_json_dict().items():
        if name != "n" and isinstance(value, (int, float)):
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            rows.append((name, shown))
    lines = [f"bounds at n={report.n}"]
    lines += [f"  {name:<24} {shown:>18}" for name, shown in rows]
    for flagged in report.asymptotic_only:
        lines.append(f"  [asymptotic-only] {flagged} is below the known count")
    for warning in report.warnings:
        lines.append(f"  [warning] {warning}")
    lines.append(f"  note: {report.note}")
    return "\n".join(lines)
