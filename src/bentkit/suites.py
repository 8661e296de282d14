"""Verification suites behind the CLI ``verify`` command.

Each suite runs a batch of checks and returns a JSON-ready report:
{"suite", "mode", "params", "checks", "failures", "counterexamples",
 "passed", "details"}.  Counterexample lists are truncated to ten entries.
Randomized suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from math import comb
from typing import Optional

import numpy as np

from .bent import (
    apply_affine,
    is_bent,
    random_invertible,
    two_flat_sum_distribution,
)
from .census import enumerate_bent_by_degree, enumerate_bent_naive
from .core import BooleanFunction, format_bf, pack_bits, random_function, weight
from .core import unpack_bits, unpack_rows
from .geometry import FaceMask, ball_points, coset_value_class_sizes
from .reconstruct import BallAssignment, check_lemma1, reconstruct_from_ball
from .transforms import NAIVE_ARITY_CAP, moebius, walsh_fast, walsh_naive
from .transforms import check_restriction_identity, truth_rows_from_anf

_MAX_REPORTED = 10


def _report(
    suite: str,
    mode: str,
    params: dict,
    checks: int,
    counterexamples: list,
    details: Optional[dict] = None,
) -> dict:
    return {
        "suite": suite,
        "mode": mode,
        "params": params,
        "checks": checks,
        "failures": len(counterexamples),
        "counterexamples": counterexamples[:_MAX_REPORTED],
        "passed": checks > 0 and not counterexamples,
        "details": details or {},
    }


def suite_lemma1(n: int = 3, samples: int = 1000, seed: int = 1) -> dict:
    """Spectra equal on a face implies equal coset sums on the dual face.

    Exhaustive over all function pairs and dimension-1 coordinate faces for
    n <= 3; randomized triples above that.
    """
    checks = 0
    premise_true = 0
    counterexamples: list[dict] = []

    def record(f: BooleanFunction, g: BooleanFunction, gamma: FaceMask) -> None:
        nonlocal checks, premise_true
        result = check_lemma1(f, g, gamma)
        checks += 1
        premise_true += result["premise"]
        if not result["holds"]:
            counterexamples.append(
                {
                    "f": format_bf(f),
                    "g": format_bf(g),
                    "mask": f"{gamma.mask:#x}",
                    **result,
                }
            )

    if n <= 3:
        mode = "exhaustive"
        funcs = [BooleanFunction(n, t) for t in range(1 << (1 << n))]
        for i in range(n):
            gamma = FaceMask(n, 1 << i)
            for f in funcs:
                for g in funcs:
                    record(f, g, gamma)
    else:
        mode = "randomized"
        rng = random.Random(seed)
        for _ in range(samples):
            f = random_function(n, rng)
            g = random_function(n, rng)
            gamma = FaceMask(n, rng.randrange(1 << n))
            record(f, g, gamma)

    return _report(
        "lemma1",
        mode,
        {"n": n, "samples": samples, "seed": seed},
        checks,
        counterexamples,
        {"premise_true": premise_true},
    )


def suite_lemma2(n: int = 4, samples: int = 256, seed: int = 1, r: Optional[int] = None) -> dict:
    """Degree-bounded functions are pinned down by their ball restriction.

    For n <= 4 and every radius: all degree-<=r functions have pairwise
    distinct restrictions to B_r, and round-trips through reconstruction are
    exact (exhaustive when the space has at most 2048 members, sampled
    otherwise).  For larger n: sampled round-trips at one radius.
    """
    rng = random.Random(seed)
    checks = 0
    counterexamples: list[dict] = []
    per_radius: dict[str, int] = {}

    def round_trip(truth: np.ndarray, radius: int) -> None:
        nonlocal checks
        checks += 1
        f = BooleanFunction(n, pack_bits(truth))
        back = reconstruct_from_ball(BallAssignment.from_function(f, radius))
        if back != f:
            counterexamples.append(
                {"r": radius, "function": format_bf(f), "rebuilt": format_bf(back)}
            )

    def render(truth: np.ndarray) -> str:
        return format_bf(BooleanFunction(n, pack_bits(truth)))

    if n <= 4:
        mode = "exhaustive"
        for radius in range(n + 1):
            points = ball_points(n, radius).points
            total = 1 << len(points)
            coeffs = unpack_rows(np.arange(total, dtype=np.uint64), len(points))
            truth = truth_rows_from_anf(n, points, coeffs)
            # first[inverse[k]] is the first candidate sharing k's restriction
            _, first, inverse = np.unique(
                truth[:, list(points)], axis=0, return_index=True, return_inverse=True
            )
            earlier = first[inverse.ravel()]
            checks += total
            for k in np.flatnonzero(earlier != np.arange(total)):
                counterexamples.append(
                    {
                        "r": radius,
                        "first": render(truth[earlier[k]]),
                        "second": render(truth[k]),
                        "reason": "restrictions collide",
                    }
                )
            if total <= 2048:
                picks = range(total)
            else:
                picks = rng.sample(range(total), min(samples, total))
            for candidate in picks:
                round_trip(truth[candidate], radius)
            per_radius[str(radius)] = total
    else:
        mode = "randomized"
        radius = n // 2 if r is None else r
        points = ball_points(n, radius).points
        for _ in range(samples):
            coeffs = unpack_bits(rng.getrandbits(len(points)), len(points))
            round_trip(truth_rows_from_anf(n, points, coeffs[None])[0], radius)
        per_radius[str(radius)] = samples

    return _report(
        "lemma2",
        mode,
        {"n": n, "samples": samples, "seed": seed},
        checks,
        counterexamples,
        {"functions_per_radius": per_radius},
    )


def suite_prop1(n: int = 4, maps: int = 10, seed: int = 1) -> dict:
    """Random invertible affine maps preserve bent-ness across the census."""
    members = enumerate_bent_by_degree(n).functions or ()
    rng = random.Random(seed)
    checks = 0
    counterexamples: list[dict] = []
    for f in members:
        for _ in range(maps):
            t = random_invertible(n, rng)
            image = apply_affine(f, t)
            checks += 1
            if not is_bent(image):
                counterexamples.append(
                    {"function": format_bf(f), "image": format_bf(image)}
                )
    return _report(
        "prop1",
        "census x random maps",
        {"n": n, "maps": maps, "seed": seed},
        checks,
        counterexamples,
        {"census_size": len(members)},
    )


def suite_convolution(samples: int = 1000, seed: int = 1, max_n: int = 10) -> dict:
    """Both routes of the face-restriction identity agree exactly.

    Exhaustive at n=2 over every function and mask, then random pairs.
    """
    checks = 0
    counterexamples: list[dict] = []

    def record(f: BooleanFunction, gamma: FaceMask) -> None:
        nonlocal checks
        checks += 1
        if not check_restriction_identity(f, gamma):
            counterexamples.append({"f": format_bf(f), "mask": f"{gamma.mask:#x}"})

    for table in range(16):
        for mask in range(4):
            record(BooleanFunction(2, table), FaceMask(2, mask))
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, max_n)
        record(random_function(n, rng), FaceMask(n, rng.randrange(1 << n)))

    return _report(
        "convolution",
        "exhaustive n=2 + randomized",
        {"samples": samples, "seed": seed, "max_n": max_n},
        checks,
        counterexamples,
    )


def suite_parseval(samples: int = 1000, seed: int = 1, max_n: int = 12) -> dict:
    """Spectrum invariants: Parseval, parity, W(0), fast/naive agreement."""
    checks = 0
    counterexamples: list[dict] = []

    def record(f: BooleanFunction) -> None:
        nonlocal checks
        spectrum = walsh_fast(f)
        problems = []
        if sum(v * v for v in spectrum.values) != 1 << (2 * f.n):
            problems.append("parseval")
        parity = (1 << f.n) & 1
        if any((v & 1) != parity for v in spectrum.values):
            problems.append("parity")
        if spectrum.values[0] != (1 << f.n) - 2 * weight(f):
            problems.append("w0")
        if f.n <= NAIVE_ARITY_CAP and f.n <= 10:
            if walsh_naive(f).values != spectrum.values:
                problems.append("naive-disagrees")
        checks += 1
        if problems:
            counterexamples.append({"f": format_bf(f), "problems": problems})

    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            record(BooleanFunction(n, table))
    rng = random.Random(seed)
    for _ in range(samples):
        record(random_function(rng.randint(1, max_n), rng))

    return _report(
        "parseval",
        "exhaustive n<=3 + randomized",
        {"samples": samples, "seed": seed, "max_n": max_n},
        checks,
        counterexamples,
    )


def suite_involution(samples: int = 1000, seed: int = 1, max_n: int = 16) -> dict:
    """The normal-form transform undoes itself on every table."""
    checks = 0
    counterexamples: list[dict] = []

    def record(f: BooleanFunction) -> None:
        nonlocal checks
        checks += 1
        if moebius(moebius(f)) != f:
            counterexamples.append({"f": format_bf(f)})

    for n in range(1, 5):
        for table in range(1 << (1 << n)):
            record(BooleanFunction(n, table))
    rng = random.Random(seed)
    for _ in range(samples):
        record(random_function(rng.randint(1, max_n), rng))

    return _report(
        "involution",
        "exhaustive n<=4 + randomized",
        {"samples": samples, "seed": seed, "max_n": max_n},
        checks,
        counterexamples,
    )


def suite_flats(n: int = 4) -> dict:
    """2-flat sum statistics over the whole census at one arity.

    Checks the 16-pattern class sizes against binomial counts, then verifies
    every bent function shares one absolute-value distribution.  Only |sum|
    can be census-constant: complementing a bent function negates every flat
    sum, so the signed split varies.  The measured +-2 share is reported as
    data, not asserted against a constant.
    """
    checks = 0
    counterexamples: list[dict] = []

    sizes = coset_value_class_sizes(2)
    expected = {4 - 2 * k: comb(4, k) for k in range(5)}
    checks += 1
    if sizes != expected:
        counterexamples.append({"reason": "pattern classes", "got": sizes})

    members = enumerate_bent_by_degree(n).functions or ()
    common: Optional[dict[int, int]] = None
    total = None
    for f in members:
        dist = two_flat_sum_distribution(f)
        total = dist.total
        abs_counts = {0: dist.counts[0]}
        for magnitude in (2, 4):
            abs_counts[magnitude] = dist.counts[magnitude] + dist.counts[-magnitude]
        checks += 2
        if sum(dist.counts.values()) != dist.total:
            counterexamples.append(
                {"function": format_bf(f), "reason": "counts do not cover all flats"}
            )
        if common is None:
            common = abs_counts
        elif abs_counts != common:
            counterexamples.append(
                {
                    "function": format_bf(f),
                    "reason": "absolute distribution differs across census",
                    "got": {str(k): v for k, v in abs_counts.items()},
                }
            )

    if common is None or total is None:
        raise ValueError(f"no bent functions at n={n}")
    plus_minus_two = common[2]
    return _report(
        "flats",
        "census-wide",
        {"n": n},
        checks,
        counterexamples,
        {
            "census_size": len(members),
            "abs_distribution": {str(k): v for k, v in common.items()},
            "total_flats": total,
            "plus_minus_two": plus_minus_two,
            "plus_minus_two_share": f"{plus_minus_two}/{total}",
        },
    )


def suite_census_agreement(n: int = 4) -> dict:
    """Both census methods produce the identical ascending function stream."""
    checks = 0
    counterexamples: list[dict] = []
    naive = enumerate_bent_naive(n)
    by_degree = enumerate_bent_by_degree(n)
    checks += 1
    if naive.functions != by_degree.functions:
        counterexamples.append(
            {
                "reason": "method outputs differ",
                "naive_count": naive.count,
                "degree_count": by_degree.count,
            }
        )
    details = {"count": naive.count, "naive_s": round(naive.elapsed, 6)}
    if n == 2:
        checks += 1
        analytic = tuple(
            BooleanFunction(2, t) for t in range(16) if t.bit_count() % 2
        )
        if naive.functions != analytic:
            counterexamples.append({"reason": "odd-weight analytic check failed"})
        details["analytic_odd_weight_count"] = len(analytic)
    return _report(
        "census-agreement",
        "cross-method",
        {"n": n},
        checks,
        counterexamples,
        details,
    )


SUITES = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "prop1": suite_prop1,
    "convolution": suite_convolution,
    "parseval": suite_parseval,
    "involution": suite_involution,
    "flats": suite_flats,
    "census-agreement": suite_census_agreement,
}
