"""Verification suites behind the CLI ``verify`` command.

A suite is a stream of checks: it yields ``None`` for each check that passes
and a JSON-ready counterexample for each that fails, and fills its
``details`` dict while the stream runs.  ``_report`` alone consumes the
stream, counts checks and failures, keeps the first ten counterexamples and
builds the report {"suite", "mode", "params", "checks", "failures",
"counterexamples", "passed", "details"}.  Randomized suites are deterministic
for a fixed seed.
"""

from __future__ import annotations

import random
from itertools import repeat, starmap
from math import comb
from typing import Iterable, Iterator, Optional

import numpy as np

from .bent import _bent_images, two_flat_sum_distribution, two_flats
from .census import enumerate_bent_by_degree, enumerate_bent_naive
from .core import BooleanFunction, _check_arity, format_bf, pack_bits, random_function, weight
from .core import pack_rows, unpack_bits, unpack_rows
from .geometry import FaceMask, ball_points, coset_value_class_sizes, subcube_points
from .reconstruct import BallAssignment, check_lemma1, reconstruct_from_ball
from .transforms import moebius, walsh_fast, walsh_naive
from .transforms import check_restriction_identity, truth_rows_from_anf

_MAX_REPORTED = 10


def _report(
    suite: str,
    mode: str,
    params: dict,
    problems: Iterable[Optional[dict]],
    details: Optional[dict] = None,
) -> dict:
    """Run a check stream to its end and report on it.

    Each item of ``problems`` is one check: ``None`` if it passed, else its
    counterexample.  ``details`` is read only after the stream ends.
    """
    checks = failures = 0
    counterexamples: list[dict] = []
    for checks, problem in enumerate(problems, 1):
        if problem is not None:
            failures += 1
            if failures <= _MAX_REPORTED:
                counterexamples.append(problem)
    return {
        "suite": suite,
        "mode": mode,
        "params": params,
        "checks": checks,
        "failures": failures,
        "counterexamples": counterexamples,
        "passed": checks > 0 and not failures,
        "details": {} if details is None else details,
    }


def _functions(exhaustive_n: int, samples: int, seed: int, max_n: int) -> Iterator[BooleanFunction]:
    """Every table for n = 1..exhaustive_n in index order, then random functions."""
    for n in range(1, exhaustive_n + 1):
        for table in range(1 << (1 << n)):
            yield BooleanFunction(n, table)
    rng = random.Random(seed)
    for _ in range(samples):
        yield random_function(rng.randint(1, max_n), rng)


def suite_lemma1(n: int = 3, samples: int = 1000, seed: int = 1) -> dict:
    """Spectra equal on a face implies equal coset sums on the dual face.

    Exhaustive over all function pairs and dimension-1 coordinate faces for
    n <= 3: each function's spectrum is computed once, a pair whose spectra
    differ on the face passes by its premise alone, and ``check_lemma1``
    evaluates both sides for every other pair.  Randomized triples above that,
    each through ``check_lemma1``.
    """
    _check_arity(n)
    details = {"premise_true": 0}

    def check(f: BooleanFunction, g: BooleanFunction, gamma: FaceMask) -> Optional[dict]:
        result = check_lemma1(f, g, gamma)
        details["premise_true"] += result["premise"]
        if result["holds"]:
            return None
        return {"f": format_bf(f), "g": format_bf(g), "mask": f"{gamma.mask:#x}", **result}

    def exhaustive() -> Iterator[Optional[dict]]:
        funcs = [BooleanFunction(n, t) for t in range(1 << (1 << n))]
        spectra = [walsh_fast(f) for f in funcs]
        for gamma in (FaceMask(n, 1 << i) for i in range(n)):
            points = subcube_points(gamma)
            keys = [tuple(values[y] for y in points) for values in spectra]
            groups: dict[tuple[int, ...], list[BooleanFunction]] = {}
            for g, key in zip(funcs, keys):
                groups.setdefault(key, []).append(g)
            for f, key in zip(funcs, keys):
                yield from (check(f, g, gamma) for g in groups[key])
                yield from repeat(None, len(funcs) - len(groups[key]))

    if n <= 3:
        mode, problems = "exhaustive", exhaustive()
    else:
        mode = "randomized"
        rng = random.Random(seed)
        triples = (
            (random_function(n, rng), random_function(n, rng), FaceMask(n, rng.randrange(1 << n)))
            for _ in range(samples)
        )
        problems = starmap(check, triples)
    params = {"n": n, "samples": samples, "seed": seed}
    return _report("lemma1", mode, params, problems, details)


def suite_lemma2(n: int = 4, samples: int = 256, seed: int = 1) -> dict:
    """Degree-bounded functions are pinned down by their ball restriction.

    For n <= 4 and every radius: all degree-<=r functions have pairwise
    distinct restrictions to B_r, and round-trips through reconstruction are
    exact (exhaustive when the space has at most 2048 members, sampled
    otherwise).  For larger n: sampled round-trips at radius n/2.
    """
    _check_arity(n)
    rng = random.Random(seed)
    per_radius: dict[str, int] = {}

    def render(truth: np.ndarray) -> str:
        return format_bf(BooleanFunction(n, pack_bits(truth)))

    def round_trip(truth: np.ndarray, radius: int) -> Optional[dict]:
        f = BooleanFunction(n, pack_bits(truth))
        back = reconstruct_from_ball(BallAssignment.from_function(f, radius))
        if back == f:
            return None
        return {"r": radius, "function": format_bf(f), "rebuilt": format_bf(back)}

    def exhaustive() -> Iterator[Optional[dict]]:
        for radius in range(n + 1):
            points = ball_points(n, radius)
            total = 1 << len(points)
            per_radius[str(radius)] = total
            coeffs = unpack_rows(np.arange(total, dtype=np.uint64), len(points))
            truth = truth_rows_from_anf(n, points, coeffs)
            # one key per row: its restriction to the ball, |B_r| <= 16 bits at n <= 4
            keys = pack_rows(truth[:, list(points)])
            # first[inverse[k]] is the first candidate sharing k's restriction
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            earlier = first[inverse]
            collide = np.flatnonzero(earlier != np.arange(total))
            for k in collide:
                yield {
                    "r": radius,
                    "first": render(truth[earlier[k]]),
                    "second": render(truth[k]),
                    "reason": "restrictions collide",
                }
            yield from repeat(None, total - len(collide))
            picks = range(total) if total <= 2048 else rng.sample(range(total), min(samples, total))
            for candidate in picks:
                yield round_trip(truth[candidate], radius)

    def randomized() -> Iterator[Optional[dict]]:
        radius = n // 2
        points = ball_points(n, radius)
        per_radius[str(radius)] = samples
        for _ in range(samples):
            coeffs = unpack_bits(rng.getrandbits(len(points)), len(points))
            yield round_trip(truth_rows_from_anf(n, points, coeffs[None])[0], radius)

    return _report(
        "lemma2",
        "exhaustive" if n <= 4 else "randomized",
        {"n": n, "samples": samples, "seed": seed},
        exhaustive() if n <= 4 else randomized(),
        {"functions_per_radius": per_radius},
    )


def suite_prop1(n: int = 4, maps: int = 10, seed: int = 1) -> dict:
    """Random invertible affine maps preserve bent-ness across the census."""
    members = enumerate_bent_by_degree(n).functions or ()
    rng = random.Random(seed)

    def checks(f: BooleanFunction) -> Iterator[Optional[dict]]:
        for image, ok in zip(*_bent_images(f, maps, rng)):
            yield None if ok else {"function": format_bf(f), "image": format_bf(image)}

    return _report(
        "prop1",
        "census x random maps",
        {"n": n, "maps": maps, "seed": seed},
        (problem for f in members for problem in checks(f)),
        {"census_size": len(members)},
    )


def suite_convolution(samples: int = 1000, seed: int = 1, max_n: int = 10) -> dict:
    """Both routes of the face-restriction identity agree exactly.

    Exhaustive at n=2 over every function and mask, then random pairs.
    """

    def pairs() -> Iterator[tuple[BooleanFunction, FaceMask]]:
        for table in range(16):
            for mask in range(4):
                yield BooleanFunction(2, table), FaceMask(2, mask)
        rng = random.Random(seed)
        for _ in range(samples):
            n = rng.randint(1, max_n)
            yield random_function(n, rng), FaceMask(n, rng.randrange(1 << n))

    return _report(
        "convolution",
        "exhaustive n=2 + randomized",
        {"samples": samples, "seed": seed, "max_n": max_n},
        (
            None if check_restriction_identity(f, gamma)
            else {"f": format_bf(f), "mask": f"{gamma.mask:#x}"}
            for f, gamma in pairs()
        ),
    )


def _spectrum_problems(f: BooleanFunction) -> Optional[dict]:
    """The spectrum invariants f breaks, as a counterexample, or None."""
    spectrum = walsh_fast(f)
    failed = []
    if sum(v * v for v in spectrum) != 1 << (2 * f.n):
        failed.append("parseval")
    parity = (1 << f.n) & 1
    if any((v & 1) != parity for v in spectrum):
        failed.append("parity")
    if spectrum[0] != (1 << f.n) - 2 * weight(f):
        failed.append("w0")
    if f.n <= 10 and walsh_naive(f) != spectrum:
        failed.append("naive-disagrees")
    return {"f": format_bf(f), "problems": failed} if failed else None


def suite_parseval(samples: int = 1000, seed: int = 1, max_n: int = 12) -> dict:
    """Spectrum invariants: Parseval, parity, W(0), fast/naive agreement."""
    return _report(
        "parseval",
        "exhaustive n<=3 + randomized",
        {"samples": samples, "seed": seed, "max_n": max_n},
        map(_spectrum_problems, _functions(3, samples, seed, max_n)),
    )


def suite_involution(samples: int = 1000, seed: int = 1, max_n: int = 16) -> dict:
    """The normal-form transform undoes itself on every table."""
    return _report(
        "involution",
        "exhaustive n<=4 + randomized",
        {"samples": samples, "seed": seed, "max_n": max_n},
        (
            None if moebius(moebius(f)) == f else {"f": format_bf(f)}
            for f in _functions(4, samples, seed, max_n)
        ),
    )


def suite_flats(n: int = 4) -> dict:
    """2-flat sum statistics over the whole census at one arity.

    Checks the 16-pattern class sizes against binomial counts, then that each
    member's closed form equals a direct sign count over ``two_flats`` (no
    spectrum) and that all share one absolute-value distribution.  Only |sum|
    can be census-constant: complementing a bent function negates every flat
    sum, so the signed split varies.  The measured +-2 share is reported as
    data, not asserted against a constant.
    """
    details: dict = {}

    def problems() -> Iterator[Optional[dict]]:
        sizes = coset_value_class_sizes(2)
        expected = {4 - 2 * k: comb(4, k) for k in range(5)}
        yield None if sizes == expected else {"reason": "pattern classes", "got": sizes}

        members = enumerate_bent_by_degree(n).functions or ()
        # ones[i, j] = ones of member i on flat j; column k of direct counts sum 4 - 2k
        truth = unpack_rows(np.array([f.table for f in members], np.uint64), 1 << n)
        ones = truth[:, np.array(list(two_flats(n)))].sum(axis=2)
        direct = np.stack([(ones == k).sum(axis=1) for k in range(5)], axis=1).tolist()
        common: Optional[dict[int, int]] = None
        for f, row in zip(members, direct):
            dist = two_flat_sum_distribution(f)
            counted = {4 - 2 * k: v for k, v in enumerate(row)}
            yield None if dist.counts == counted else {
                "function": format_bf(f),
                "reason": "closed form differs from the direct count",
                "got": {str(k): v for k, v in sorted(dist.counts.items())},
                "direct": {str(k): v for k, v in sorted(counted.items())},
            }
            abs_counts = {0: dist.counts[0]}
            for magnitude in (2, 4):
                abs_counts[magnitude] = dist.counts[magnitude] + dist.counts[-magnitude]
            if common is None:
                common = abs_counts
            yield None if abs_counts == common else {
                "function": format_bf(f),
                "reason": "absolute distribution differs across census",
                "got": {str(k): v for k, v in abs_counts.items()},
            }

        if common is None:
            raise ValueError(f"no bent functions at n={n}")
        details.update(
            census_size=len(members),
            abs_distribution={str(k): v for k, v in common.items()},
            total_flats=dist.total,
            plus_minus_two=common[2],
            plus_minus_two_share=f"{common[2]}/{dist.total}",
        )

    return _report("flats", "census-wide", {"n": n}, problems(), details)


def suite_census_agreement(n: int = 4) -> dict:
    """Both census methods produce the identical ascending function stream."""
    naive = enumerate_bent_naive(n)
    by_degree = enumerate_bent_by_degree(n)
    details = {"count": naive.count, "naive_s": round(naive.elapsed, 6)}
    problems: list[Optional[dict]] = [None]
    if naive.functions != by_degree.functions:
        problems[0] = {
            "reason": "method outputs differ",
            "naive_count": naive.count,
            "degree_count": by_degree.count,
        }
    if n == 2:
        analytic = tuple(BooleanFunction(2, t) for t in range(16) if t.bit_count() % 2)
        details["analytic_odd_weight_count"] = len(analytic)
        problems.append(
            None if naive.functions == analytic
            else {"reason": "odd-weight analytic check failed"}
        )
    return _report("census-agreement", "cross-method", {"n": n}, problems, details)


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
