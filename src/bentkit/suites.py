"""Verification suites behind the CLI ``verify`` command.

A suite is a stream of checks: each item is either an ``int`` k >= 0, k
checks that passed, or a ``dict``, the JSON-ready counterexample of one check
that failed.  A suite that computes a block of checks as an array yields the
block's counterexamples, then the count of the rest.  It fills its
``details`` dict while the stream runs.  ``_report`` alone consumes the
stream, counts checks and failures, keeps the first ten counterexamples and
builds the report {"suite", "mode", "params", "checks", "failures",
"counterexamples", "passed", "details"}.  Randomized suites are deterministic
for a fixed seed.  ``parseval`` and ``convolution`` run their butterflies
through ``_in_blocks``: their whole stream grouped by arity, each arity in
``core.blocks`` slices, the results read back in stream order.  They and
``involution`` draw n uniform on 1..max_n, a constant of each suite that its
report names as ``params["max_n"]``, and refuse up front a stream of over
2^MAX_WORK_LOG2 expected truth-table points.
"""

from __future__ import annotations

import random
from itertools import chain, starmap
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

import numpy as np

from . import core
from .bent import _bent_images, two_flat_sum_distribution, two_flats
from .census import enumerate_bent_by_degree, enumerate_bent_naive
from .core import BooleanFunction, _check_arity, _check_work, format_bf, pack_bits, random_function
from .core import pack_rows, unpack_bits, unpack_rows
from .geometry import _ball_index, ball_size, coset_value_class_sizes, subcube_points
from .reconstruct import check_lemma1, reconstruct_from_ball
from .transforms import _moebius_table, _naive_spectra, _peak, moebius, walsh_truth_rows
from .transforms import check_restriction_identity, truth_rows_from_anf

_MAX_REPORTED = 10
# parseval meets the O(4^n) naive oracle only up to this arity: checking n = 11
# and 12 too takes the default suite from 36-38 ms to 88 ms in process CPU time
# (2-core Xeon), past everything else it checks
_NAIVE_CHECK_MAX_N = 10

Item = TypeVar("Item")
# one item of a check stream: a count of passing checks, or one counterexample
Check = Union[int, dict]


def _report(
    suite: str,
    mode: str,
    params: dict,
    problems: Iterable[Check],
    details: Optional[dict] = None,
) -> dict:
    """Run a check stream to its end and report on it.

    Each item of ``problems`` is a Python ``int`` k >= 0, that k more checks
    passed, or a ``dict``, the counterexample of one check that failed.  Any
    other item (``None``, a bool, a numpy integer, a negative int) is a
    TypeError.  ``details`` is read only after the stream ends.
    """
    checks = failures = 0
    counterexamples: list[dict] = []
    for item in problems:
        if type(item) is int and item >= 0:
            checks += item
        elif type(item) is dict:
            checks += 1
            failures += 1
            if failures <= _MAX_REPORTED:
                counterexamples.append(item)
        else:
            raise TypeError(f"a check stream item is an int >= 0 or a dict, got {item!r}")
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


def _render(n: int, truth: np.ndarray) -> str:
    return format_bf(BooleanFunction(n, pack_bits(truth)))


def _functions(exhaustive_n: int, samples: int, seed: int, max_n: int) -> Iterator[BooleanFunction]:
    """Every table for n = 1..exhaustive_n in index order, then random functions."""
    for n in range(1, exhaustive_n + 1):
        for table in range(1 << (1 << n)):
            yield BooleanFunction(n, table)
    rng = random.Random(seed)
    for _ in range(samples):
        yield random_function(rng.randint(1, max_n), rng)


def _check_stream(samples: int, max_n: int) -> None:
    points = -(-samples * ((2 << max_n) - 2) // max_n)  # samples x mean 2^n, rounded up
    what = f"expected truth-table points for {samples} samples at n <= {max_n} ({points})"
    _check_work((points - 1).bit_length(), what)


def _in_blocks(
    items: Iterable[Item], arity: Callable[[Item], int], run: Callable[[list[Item]], Sequence]
) -> Iterator[tuple[Item, object]]:
    """(item, result) in stream order, where ``run`` maps a list of items of
    one arity to one result each.  The whole stream is grouped by arity, in
    order of first appearance, and each arity n runs in the ``core.blocks``
    slices of its items.  The stream is held whole: the sampled suites cap
    it up front."""
    stream = list(items)
    groups: dict[int, list[int]] = {}
    for i, item in enumerate(stream):
        groups.setdefault(arity(item), []).append(i)
    results: list = [None] * len(stream)
    for n, where in groups.items():
        for cut in core.blocks(len(where), n):
            block = where[cut]
            for i, result in zip(block, run([stream[i] for i in block])):
                results[i] = result
    yield from zip(stream, results)


def suite_lemma1(n: int = 3, samples: int = 1000, seed: int = 1) -> dict:
    """Spectra equal on a face implies equal coset sums on the dual face.

    Exhaustive over all function pairs and dimension-1 coordinate faces for
    n <= 3: all 2^(2^n) spectra are computed once, as one block of
    truth-table rows through ``walsh_truth_rows``, and the functions are
    grouped by their spectrum on the face.  A pair from two groups passes by
    its premise alone.  Within a group, ``check_lemma1`` compares the first
    member with each member g; when every such call meets premise and
    conclusion, every pair of the group does, equality being transitive.  A
    group with any other result is checked pair by pair.  Randomized triples
    above that, each through ``check_lemma1``, for n <= 12, whose all-ones
    mask needs 2^(2n) truth-table points, and for at most 2^24 drawn points,
    samples x 2^(n+1); a run in which no triple meets the premise does not
    pass.
    """
    _check_arity(n)
    details = {"premise_true": 0}

    def check(f: BooleanFunction, g: BooleanFunction, mask: int) -> Check:
        result = check_lemma1(f, g, mask)
        details["premise_true"] += result["premise"]
        if result["holds"]:
            return 1
        return {"f": format_bf(f), "g": format_bf(g), "mask": f"{mask:#x}", **result}

    def exhaustive() -> Iterator[Check]:
        total = 1 << (1 << n)
        funcs = [BooleanFunction(n, t) for t in range(total)]
        spectra = walsh_truth_rows(unpack_rows(np.arange(total, dtype=np.uint64), 1 << n))
        for mask in (1 << i for i in range(n)):
            keys = list(map(tuple, spectra[:, subcube_points(n, mask)].tolist()))
            groups: dict[tuple[int, ...], list[BooleanFunction]] = {}
            for g, key in zip(funcs, keys):
                groups.setdefault(key, []).append(g)
            whole = {
                key: all(
                    result["premise"] and result["conclusion"]
                    for result in (check_lemma1(group[0], g, mask) for g in group)
                )
                for key, group in groups.items()
            }
            for f, key in zip(funcs, keys):
                group = groups[key]
                if whole[key]:
                    details["premise_true"] += len(group)
                    yield len(funcs)
                else:
                    yield from (check(f, g, mask) for g in group)
                    yield len(funcs) - len(group)

    if n <= 3:
        mode, problems = "exhaustive", exhaustive()
    else:
        mode = "randomized"
        # the all-ones mask leaves the dual face a point: 2^n cosets of 2^n points
        _check_work(2 * n, f"truth-table points for 2^{n} coset sums at n={n}")
        points = samples << (n + 1)  # two drawn tables a triple
        what = f"drawn truth-table points for {samples} samples at n={n} ({points})"
        _check_work((points - 1).bit_length(), what)
        rng = random.Random(seed)
        triples = (
            (random_function(n, rng), random_function(n, rng), rng.randrange(1 << n))
            for _ in range(samples)
        )
        problems = starmap(check, triples)
    params = {"n": n, "samples": samples, "seed": seed}
    report = _report("lemma1", mode, params, problems, details)
    # a run in which the premise never held has tested the implication on nothing
    report["passed"] = report["passed"] and details["premise_true"] > 0
    return report


def suite_lemma2(n: int = 4, samples: int = 256, seed: int = 1) -> dict:
    """Degree-bounded functions are pinned down by their ball restriction.

    For n <= 4 and every radius: all degree-<=r functions have pairwise
    distinct restrictions to B_r, and round-trips through reconstruction are
    exact (exhaustive when the space has at most 2048 members, sampled
    otherwise).  For larger n: sampled round-trips at radius n/2, so both
    the ball and samples x |B_{n/2}| must be at most 2^MAX_WORK_LOG2 points
    (the default 256 samples run up to n=17).  ``reconstruct_from_ball``
    rebuilds the candidates one ``core.blocks`` slice at a time from their
    ``truth_rows_from_anf`` tables' ball values, checked against those tables.
    """
    _check_arity(n)
    if n > 4:
        size = ball_size(n, n // 2)
        _check_work((size - 1).bit_length(), f"points in the ball B_{n // 2} at n={n} ({size})")
        work = samples * size
        what = f"ball points over {samples} round trips in B_{n // 2} at n={n} ({work})"
        _check_work((work - 1).bit_length(), what)
    rng = random.Random(seed)
    per_radius: dict[str, int] = {}

    def round_trips(truth: np.ndarray, radius: int, ball: np.ndarray) -> Iterator[Check]:
        # each row rebuilt from its restriction to the ball, one block a call
        for block in core.blocks(len(truth), n):
            want = truth[block]
            back = reconstruct_from_ball(n, radius, want[:, ball])
            bad = np.flatnonzero((back != want).any(axis=1)).tolist()
            for i in bad:
                yield {"r": radius, "function": _render(n, want[i]), "rebuilt": _render(n, back[i])}
            yield len(want) - len(bad)

    def exhaustive() -> Iterator[Check]:
        for radius in range(n + 1):
            ball = _ball_index(n, radius)
            total = 1 << len(ball)
            per_radius[str(radius)] = total
            truth = truth_rows_from_anf(n, radius, np.arange(total, dtype=np.uint64))
            # one key per row: its restriction to the ball, |B_r| <= 16 bits at n <= 4
            keys = pack_rows(truth[:, ball])
            # first[inverse[k]] is the first candidate sharing k's restriction
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            earlier = first[inverse]
            collide = np.flatnonzero(earlier != np.arange(total))
            for k in collide:
                pair = {"first": _render(n, truth[earlier[k]]), "second": _render(n, truth[k])}
                yield {"r": radius, **pair, "reason": "restrictions collide"}
            yield total - len(collide)
            picks = range(total) if total <= 2048 else rng.sample(range(total), min(samples, total))
            yield from round_trips(truth[list(picks)], radius, ball)

    def randomized() -> Iterator[Check]:
        radius, ball = n // 2, _ball_index(n, n // 2)
        per_radius[str(radius)] = samples
        for block in core.blocks(samples, n):
            draws = [rng.getrandbits(len(ball)) for _ in range(block.stop - block.start)]
            yield from round_trips(truth_rows_from_anf(n, radius, draws), radius, ball)

    return _report(
        "lemma2",
        "exhaustive" if n <= 4 else "randomized",
        {"n": n, "samples": samples, "seed": seed},
        exhaustive() if n <= 4 else randomized(),
        {"functions_per_radius": per_radius},
    )


def suite_prop1(n: int = 4, maps: int = 10, seed: int = 1) -> dict:
    """Random invertible affine maps preserve bent-ness across the census.

    The whole census goes through one ``_bent_images`` stream, so its images
    are bent-tested a chunk at a time across members, not member by member,
    within the work budget on truth-table points (census size x maps x 2^n),
    which the stream checks before it draws a map."""
    members = enumerate_bent_by_degree(n).functions
    return _report(
        "prop1",
        "census x random maps",
        {"n": n, "maps": maps, "seed": seed},
        (
            1 if ok else {"function": format_bf(f), "image": _render(n, row)}
            for f, row, ok in _bent_images(members, maps, random.Random(seed))
        ),
        {"census_size": len(members)},
    )


def suite_convolution(samples: int = 1000, seed: int = 1) -> dict:
    """Both routes of the face-restriction identity agree exactly.

    Exhaustive at n=2 over every function and mask, then random pairs, each
    ``_in_blocks`` block of same-arity pairs checked by one
    ``check_restriction_identity``, so one ``convolve_pm`` block too.  The
    up-front stream check counts points; ``convolve_pm`` caps each row's terms.
    """
    max_n = 10
    _check_stream(samples, max_n)

    def pairs() -> Iterator[tuple[BooleanFunction, int]]:
        for table in range(16):
            for mask in range(4):
                yield BooleanFunction(2, table), mask
        rng = random.Random(seed)
        for _ in range(samples):
            n = rng.randint(1, max_n)
            yield random_function(n, rng), rng.randrange(1 << n)

    return _report(
        "convolution",
        "exhaustive n=2 + randomized",
        {"samples": samples, "seed": seed, "max_n": max_n},
        (
            1 if same else {"f": format_bf(f), "mask": f"{mask:#x}"}
            for (f, mask), same in _in_blocks(
                pairs(), lambda pair: pair[0].n, check_restriction_identity
            )
        ),
    )


def _sums_of_squares(block: np.ndarray) -> np.ndarray:
    # int32 squares wrap silently: the row sums run in int64, or past 2^63 on ints
    peak = _peak(block)
    wide = block.astype(np.int64 if peak * peak * block.shape[1] < 1 << 63 else object)
    return (wide * wide).sum(axis=1)


def _spectrum_problems(functions: list[BooleanFunction], spectra: np.ndarray) -> list[Check]:
    """One check per function of one arity, given their butterfly spectra as
    a (rows, 2^n) block: each invariant is one test of the whole block, and
    a function that breaks any of them gets a counterexample naming them."""
    n, tables = functions[0].n, [f.table for f in functions]
    weights = np.array([t.bit_count() for t in tables], dtype=np.int64)
    parity = (1 << n) & 1
    broken = {
        "parseval": _sums_of_squares(spectra) != 1 << (2 * n),
        "parity": ((spectra & 1) != parity).any(axis=1),
        "w0": spectra[:, 0] != (1 << n) - 2 * weights,
    }
    if n <= _NAIVE_CHECK_MAX_N:
        broken["naive-disagrees"] = (_naive_spectra(n, tables) != spectra).any(axis=1)
    failed = np.stack(list(broken.values()), axis=1)
    checks: list[Check] = [1] * len(functions)
    for i in np.flatnonzero(failed.any(axis=1)).tolist():
        problems = [name for name, bad in zip(broken, failed[i]) if bad]
        checks[i] = {"f": format_bf(functions[i]), "problems": problems}
    return checks


def _spectrum_block(functions: list[BooleanFunction]) -> list[Check]:
    truth = unpack_rows([f.table for f in functions], functions[0].size)
    return _spectrum_problems(functions, walsh_truth_rows(truth))


def suite_parseval(samples: int = 1000, seed: int = 1) -> dict:
    """Spectrum invariants: Parseval, parity, W(0), and agreement with the
    popcount oracle ``_naive_spectra`` up to n = ``_NAIVE_CHECK_MAX_N``.
    Each ``_in_blocks`` block's spectra come as one ``walsh_truth_rows``
    call, and every invariant, the oracle included, is checked on the whole
    block."""
    max_n = 12
    _check_stream(samples, max_n)
    functions = _functions(3, samples, seed, max_n)
    return _report(
        "parseval",
        "exhaustive n<=3 + randomized",
        {"samples": samples, "seed": seed, "max_n": max_n},
        (check for _, check in _in_blocks(functions, lambda f: f.n, _spectrum_block)),
    )


def suite_involution(samples: int = 1000, seed: int = 1) -> dict:
    """The normal-form transform undoes itself on every table.

    Exhaustive for n <= 4 as one packed block per arity: all 2^(2^n) tables
    in index order, put through the packed Moebius kernel twice.  Then
    ``samples`` random functions, each through ``moebius`` twice.
    """
    max_n = 16
    _check_stream(samples, max_n)

    def exhaustive() -> Iterator[Check]:
        for n in range(1, 5):
            size = 1 << n
            total = 1 << size
            tables = pack_bits(unpack_rows(np.arange(total, dtype=np.uint64), size))
            back = _moebius_table(_moebius_table(tables, n, total), n, total)
            wrong = unpack_bits(back ^ tables, total * size).reshape(total, size).any(axis=1)
            bad = np.flatnonzero(wrong).tolist()
            for table in bad:
                yield {"f": format_bf(BooleanFunction(n, table))}
            yield total - len(bad)

    randomized = (
        1 if moebius(moebius(f)) == f else {"f": format_bf(f)}
        for f in _functions(0, samples, seed, max_n)
    )
    return _report(
        "involution",
        "exhaustive n<=4 + randomized",
        {"samples": samples, "seed": seed, "max_n": max_n},
        chain(exhaustive(), randomized),
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

    def problems() -> Iterator[Check]:
        sizes = coset_value_class_sizes(2)
        expected = {4 - 2 * k: comb(4, k) for k in range(5)}
        yield 1 if sizes == expected else {"reason": "pattern classes", "got": sizes}

        census = enumerate_bent_by_degree(n)
        members = census.functions
        # ones[i, j] = ones of member i on flat j; column k of direct counts sum 4 - 2k
        truth = unpack_rows(np.array(census.tables, np.uint64), 1 << n)
        ones = truth[:, np.array(list(two_flats(n)))].sum(axis=2)
        direct = np.stack([(ones == k).sum(axis=1) for k in range(5)], axis=1).tolist()
        common: Optional[dict[int, int]] = None
        for f, row in zip(members, direct):
            dist = two_flat_sum_distribution(f)
            counted = {4 - 2 * k: v for k, v in enumerate(row)}
            yield 1 if dist.counts == counted else {
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
            yield 1 if abs_counts == common else {
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
    """Both census methods produce the identical ascending truth-table list."""
    naive = enumerate_bent_naive(n)
    by_degree = enumerate_bent_by_degree(n)
    details = {"count": naive.count}
    problems: list[Check] = [1]
    if naive.tables != by_degree.tables:
        problems[0] = {
            "reason": "method outputs differ",
            "naive_count": naive.count,
            "degree_count": by_degree.count,
        }
    if n == 2:
        analytic = tuple(t for t in range(16) if t.bit_count() % 2)
        details["analytic_odd_weight_count"] = len(analytic)
        problems.append(
            1 if naive.tables == analytic
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
