"""Exhaustive bent enumeration and its two independent methods."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from bentkit import census, cli, core
from bentkit.bent import bent_rows, is_bent
from bentkit.census import (
    CensusResult,
    enumerate_bent_by_degree,
    enumerate_bent_naive,
)
from bentkit.core import (
    MAX_ARITY,
    BooleanFunction,
    ResourceCapError,
    _check_work,
    format_bf,
    weight,
)
from bentkit.geometry import ball_size
from bentkit.suites import suite_census_agreement

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


def test_tables_are_ascending_ints_and_functions_wrap_them():
    for result in (enumerate_bent_naive(4), enumerate_bent_by_degree(4)):
        assert all(type(t) is int for t in result.tables)
        assert list(result.tables) == sorted(set(result.tables))
        assert result.count == len(result.tables) == 896
        assert result.functions == tuple(BooleanFunction(4, t) for t in result.tables)


@pytest.mark.parametrize(
    "run",
    [
        lambda: enumerate_bent_naive(4),
        lambda: enumerate_bent_by_degree(4),
        lambda: suite_census_agreement(4),
    ],
    ids=["naive", "degree", "census-agreement"],
)
def test_census_builds_no_function_objects(monkeypatch, run):
    built = []
    real = BooleanFunction.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(BooleanFunction, "__post_init__", counted)
    run()
    assert len(built) == 0


@pytest.fixture
def bent_rows_calls(monkeypatch):
    """Count the census's calls of the bent test."""
    calls = []

    def counted(truth, n):
        calls.append(len(truth))
        return bent_rows(truth, n)

    monkeypatch.setattr(census, "bent_rows", counted)
    return calls


@pytest.mark.parametrize("jobs", [1, 4])
def test_each_shard_is_one_block(jobs, bent_rows_calls, capsys):
    # the census is one bent_rows block per method: --jobs 1 scans all 2^16
    # tables (naive) and all 2^11 degree-bounded ones (degree), and any other
    # --jobs is refused before a single candidate is scanned
    code = cli.main(["census", "--n", "4", "--jobs", str(jobs)])
    if jobs == 1:
        assert code == 0
        assert bent_rows_calls == [1 << 16, 1 << 11]
    else:
        assert code == 1
        assert bent_rows_calls == []
        assert capsys.readouterr().out == ""


def test_jobs_is_gone():
    with pytest.raises(TypeError):
        enumerate_bent_naive(4, jobs=2)
    with pytest.raises(TypeError):
        enumerate_bent_by_degree(4, jobs=1)


def test_census_imports_no_process_machinery():
    # the census is one in-process scan: no os and no pool module is imported,
    # at module level or inside a function
    tree = ast.parse(Path(census.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    roots = {name.split(".")[0] for name in modules}
    assert not roots & {"os", "multiprocessing", "concurrent"}


def _largest_admitted_scan_log2():
    """log2 of the most candidates a census the work budget admits would
    scan, over both methods at every even arity up to MAX_ARITY."""
    largest = 0
    for n in range(2, MAX_ARITY + 1, 2):
        for log2_candidates in (1 << n, ball_size(n, census._degree_bound(n))):
            try:
                _check_work(log2_candidates, "candidates")
            except ResourceCapError:
                continue
            largest = max(largest, log2_candidates)
    return largest


def test_the_budget_keeps_every_shard_one_small_block(monkeypatch):
    # each census scans its candidates as one (rows, 2^n) block, which is only
    # sound while the largest admitted census is the n=4 brute-force scan
    assert _largest_admitted_scan_log2() <= 16
    # the tripwire fires for a budget that admits the n=6 degree scan
    monkeypatch.setattr(core, "MAX_WORK_LOG2", 42)
    assert _largest_admitted_scan_log2() == 42


def test_importing_the_cli_loads_no_process_pool():
    # the census runs in-process, so no command imports the pool modules
    code = (
        "import sys, bentkit.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


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


def test_cap_messages_name_the_refused_work():
    with pytest.raises(ResourceCapError, match=r"needs 2\^64 truth tables .* n=6"):
        enumerate_bent_naive(6)
    with pytest.raises(ResourceCapError, match=r"needs 2\^42 normal forms .* n=6"):
        enumerate_bent_by_degree(6)


def test_float_arity_rejected():
    with pytest.raises(ValueError, match="must be an int"):
        enumerate_bent_naive(4.0)


def test_elapsed_is_recorded():
    result = enumerate_bent_naive(2)
    assert result.elapsed >= 0.0
