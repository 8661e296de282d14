"""Exhaustive bent-function census at desk scale.

Two independent methods: brute force over every truth table, and search over
normal forms supported on the ball B_d, d = max(2, n/2): a bent function has
degree <= n/2 for n >= 4, and all 8 at n=2 have degree 2.  Each runs in this
process as one scan of one (rows, 2^n) bit block and returns its bent
truth tables as ascending ints, ``CensusResult.tables``; ``.functions``
wraps them in ``BooleanFunction`` objects on each read.  The degree method
turns its normal forms into truth tables with the packed Moebius kernel, and
both filter the block with one call of ``bent.bent_rows``, the one bent test.
Both refuse a space of more than 2^24 candidates, the one work budget
``core.MAX_WORK_LOG2``: the brute-force space is 2^(2^n), 2^64 at n=6, and
the degree-restricted space is 2^42 at n=6.  So the largest census the
budget admits is the brute-force scan at n=4, one block of 65,536 tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bent import bent_rows
from .core import BooleanFunction, _check_arity, _check_even, _check_work, pack_rows, unpack_rows
from .geometry import ball_points, ball_size
from .transforms import truth_rows_from_anf


def _degree_bound(n: int) -> int:
    """The degree bound of bent functions at even arity n."""
    return max(2, n // 2)


@dataclass(frozen=True)
class CensusResult:
    n: int
    method: str
    count: int
    elapsed: float
    tables: tuple[int, ...]

    @property
    def functions(self) -> tuple[BooleanFunction, ...]:
        """The bent functions, in ascending truth-table order."""
        return tuple(BooleanFunction(self.n, t) for t in self.tables)


def _bent_tables(n: int, total: int) -> list[int]:
    """Truth-table ints of the bent functions among all ``total`` = 2^(2^n)."""
    tables = np.arange(total, dtype=np.uint64)
    return tables[bent_rows(unpack_rows(tables, 1 << n), n)].tolist()


def _bent_tables_from_anf(n: int, total: int) -> list[int]:
    """Truth-table ints of the bent functions among the ``total`` normal
    forms on the ball B_d, d = ``_degree_bound(n)`` (unsorted).

    Candidate k sets the normal-form coefficient at point j of the ball
    wherever bit j of k is set.
    """
    points = ball_points(n, _degree_bound(n))
    candidates = np.arange(total, dtype=np.uint64)
    truth = truth_rows_from_anf(n, points, unpack_rows(candidates, len(points)))
    return pack_rows(truth[bent_rows(truth, n)])


def _census(method: str, scan, n: int, total: int) -> CensusResult:
    started = time.perf_counter()
    tables = tuple(sorted(scan(n, total)))
    elapsed = time.perf_counter() - started
    return CensusResult(n, method, len(tables), elapsed, tables)


def enumerate_bent_naive(n: int) -> CensusResult:
    """Filter all 2^(2^n) truth tables through the bent test."""
    _check_even(n)
    _check_arity(n)  # before 1 << n
    _check_work(1 << n, f"truth tables for the brute-force census at n={n}")
    return _census("naive", _bent_tables, n, 1 << (1 << n))


def enumerate_bent_by_degree(n: int) -> CensusResult:
    """Search normal forms of degree <= max(2, n/2) and filter by the bent test."""
    _check_even(n)
    _check_arity(n)  # before the exponent, a sum of n/2 big binomials
    exponent = ball_size(n, _degree_bound(n))  # log2 of the normal forms of that degree
    _check_work(exponent, f"normal forms for the degree-restricted census at n={n}")
    return _census("degree", _bent_tables_from_anf, n, 1 << exponent)
