"""Exhaustive bent enumeration and its two independent methods."""

import pytest

from bentkit import census
from bentkit.bent import is_bent
from bentkit.census import (
    CensusResult,
    bent_count,
    enumerate_bent_by_degree,
    enumerate_bent_naive,
)
from bentkit.core import BooleanFunction, ResourceCapError, format_bf, weight

N2_TABLES = [1, 2, 4, 7, 8, 11, 13, 14]  # the eight odd-weight tables


def test_n2_naive_oracle():
    result = enumerate_bent_naive(2)
    assert isinstance(result, CensusResult)
    assert result.count == 8
    assert result.method == "naive"
    assert [f.table for f in result.functions] == N2_TABLES
    assert all(is_bent(f) for f in result.functions)


def test_n2_matches_odd_weight_rule():
    expected = [t for t in range(16) if BooleanFunction(2, t).table.bit_count() % 2]
    assert [f.table for f in enumerate_bent_naive(2).functions] == expected
    assert all(weight(f) % 2 == 1 for f in enumerate_bent_by_degree(2).functions)


def test_n2_methods_agree():
    assert enumerate_bent_naive(2).functions == enumerate_bent_by_degree(2).functions


def test_n4_counts_and_agreement():
    naive = enumerate_bent_naive(4)
    by_degree = enumerate_bent_by_degree(4)
    assert naive.count == 896
    assert by_degree.count == 896
    assert naive.functions == by_degree.functions


def test_n4_stream_is_ascending_and_bent():
    functions = enumerate_bent_naive(4).functions
    tables = [f.table for f in functions]
    assert tables == sorted(tables)
    assert len(set(tables)) == 896
    assert format_bf(functions[0]) == "bf:4:0356"


def test_count_only_mode():
    result = enumerate_bent_naive(4, include_functions=False)
    assert result.count == 896
    assert result.functions is None
    result = enumerate_bent_by_degree(4, include_functions=False)
    assert result.count == 896
    assert result.functions is None


@pytest.fixture
def serial_pool(monkeypatch):
    """Swap the process pool for an in-process map on a 16-core machine;
    returns the max_workers of every pool started."""
    started = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "spawn"
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(census, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 16)
    return started


@pytest.mark.parametrize("jobs", [1, 4, 16])
def test_sharding_is_invisible(jobs, serial_pool):
    # jobs workers, one shard each, merged back into ascending order
    base = enumerate_bent_naive(4).functions
    assert enumerate_bent_naive(4, jobs=jobs).functions == base
    assert enumerate_bent_by_degree(4, jobs=jobs).functions == base
    assert serial_pool == ([jobs, jobs] if jobs > 1 else [])


def test_jobs_are_capped_at_cpu_count(serial_pool, monkeypatch):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    assert enumerate_bent_naive(2, jobs=64).count == 8
    assert serial_pool == [2]
    # an unknown core count runs in-process, starting no pool
    monkeypatch.setattr(census.os, "cpu_count", lambda: None)
    assert enumerate_bent_by_degree(2, jobs=64).count == 8
    assert serial_pool == [2]
    with pytest.raises(ValueError):
        enumerate_bent_naive(2, jobs=0)


def test_parallel_jobs_match_serial():
    base = enumerate_bent_naive(4).functions
    assert enumerate_bent_naive(4, jobs=2).functions == base
    assert enumerate_bent_by_degree(4, jobs=2).functions == base


def test_odd_arity_rejected():
    with pytest.raises(ValueError):
        enumerate_bent_naive(3)
    with pytest.raises(ValueError):
        enumerate_bent_by_degree(3)


def test_resource_caps():
    with pytest.raises(ResourceCapError):
        enumerate_bent_naive(6)
    # degree-restricted search at n=6 needs 2^42 candidates, over the cap
    with pytest.raises(ResourceCapError):
        enumerate_bent_by_degree(6)


def test_bent_count_dispatch():
    assert bent_count(2, "naive") == 8
    assert bent_count(2, "degree") == 8
    assert bent_count(4, "naive") == bent_count(4, "degree") == 896
    with pytest.raises(ValueError):
        bent_count(4, "magic")
    with pytest.raises(ResourceCapError):
        bent_count(6, "naive")


def test_elapsed_is_recorded():
    result = enumerate_bent_naive(2)
    assert result.elapsed >= 0.0
