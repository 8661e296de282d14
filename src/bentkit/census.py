"""Exhaustive bent-function census at desk scale.

Two independent methods: brute force over every truth table, and search over
normal forms supported on the ball B_d, d = max(2, n/2): a bent function has
degree <= n/2 for n >= 4, and all 8 at n=2 have degree 2.  Both stream
results in ascending truth-table order for any job count: min(jobs, cores)
spawned workers each take one contiguous shard of the candidates.
Candidates are (rows, 2^n) bit arrays: the degree method turns normal forms
into truth tables with the packed Moebius kernel, and both filter each chunk
with ``bent.bent_rows``, the one bent test.  Hard caps keep infeasible
arities from hanging: the brute-force space is 2^(2^n) and the
degree-restricted space is 2^42 at n=6.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .bent import bent_rows
from .core import BooleanFunction, ResourceCapError, _check_arity, pack_rows, unpack_rows
from .geometry import ball_points
from .transforms import degree_space_log2, truth_rows_from_anf

NAIVE_ARITY_CAP = 4
DEGREE_EXPONENT_CAP = 24
_CHUNK = 1 << 16


def _degree_bound(n: int) -> int:
    """The degree bound of bent functions at even arity n."""
    return max(2, n // 2)


@dataclass(frozen=True)
class CensusResult:
    n: int
    method: str
    count: int
    elapsed: float
    functions: Optional[tuple[BooleanFunction, ...]]


def _bent_tables_in_range(n: int, lo: int, hi: int) -> list[int]:
    """Truth-table ints of the bent functions with lo <= table < hi, ascending."""
    out: list[int] = []
    for start in range(lo, hi, _CHUNK):
        tables = np.arange(start, min(start + _CHUNK, hi), dtype=np.uint64)
        keep = bent_rows(unpack_rows(tables, 1 << n), n)
        out.extend(tables[keep].tolist())
    return out


def _bent_tables_from_anf_range(n: int, lo: int, hi: int) -> list[int]:
    """Truth-table ints of bent functions among candidates lo..hi (unsorted).

    Candidate k sets the normal-form coefficient at point j of the ball B_d,
    d = ``_degree_bound(n)``, wherever bit j of k is set.
    """
    points = ball_points(n, _degree_bound(n))
    out: list[int] = []
    for start in range(lo, hi, _CHUNK):
        candidates = np.arange(start, min(start + _CHUNK, hi), dtype=np.uint64)
        truth = truth_rows_from_anf(n, points, unpack_rows(candidates, len(points)))
        out.extend(pack_rows(truth[bent_rows(truth, n)]))
    return out


def _check_even(n: int) -> None:
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if n % 2:
        raise ValueError(f"bent functions need even arity, got {n}")


def _census(method: str, worker, n: int, total: int, jobs: int, keep: bool) -> CensusResult:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        tables = worker(n, 0, total)
    else:
        bounds = [total * k // workers for k in range(workers + 1)]
        # spawn, not fork: numpy has already started threads in this process
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            parts = pool.map(worker, [n] * workers, bounds[:-1], bounds[1:])
            tables = [t for part in parts for t in part]
    tables.sort()
    elapsed = time.perf_counter() - started
    functions = tuple(BooleanFunction(n, t) for t in tables) if keep else None
    return CensusResult(n, method, len(tables), elapsed, functions)


def enumerate_bent_naive(n: int, *, jobs: int = 1, include_functions: bool = True) -> CensusResult:
    """Filter all 2^(2^n) truth tables through the bent test."""
    _check_even(n)
    if n > NAIVE_ARITY_CAP:
        raise ResourceCapError(
            f"brute-force census is capped at n <= {NAIVE_ARITY_CAP} "
            f"(2^(2^n) tables); got n={n}"
        )
    return _census("naive", _bent_tables_in_range, n, 1 << (1 << n), jobs, include_functions)


def enumerate_bent_by_degree(
    n: int, *, jobs: int = 1, include_functions: bool = True
) -> CensusResult:
    """Search normal forms of degree <= max(2, n/2) and filter by the bent test."""
    _check_even(n)
    _check_arity(n)  # before the exponent, a sum of n/2 big binomials
    exponent = degree_space_log2(n, _degree_bound(n))
    if exponent > DEGREE_EXPONENT_CAP:
        raise ResourceCapError(
            f"degree-restricted census needs 2^{exponent} candidates at n={n}, "
            f"over the 2^{DEGREE_EXPONENT_CAP} cap"
        )
    return _census(
        "degree", _bent_tables_from_anf_range, n, 1 << exponent, jobs, include_functions
    )


@lru_cache(maxsize=None)
def bent_count(n: int, method: str = "naive") -> int:
    """Cached census count for (n, method); method is 'naive' or 'degree'."""
    if method == "naive":
        return enumerate_bent_naive(n, include_functions=False).count
    if method == "degree":
        return enumerate_bent_by_degree(n, include_functions=False).count
    raise ValueError(f"unknown census method {method!r}")
