"""Acceptance gate: the eleven shipped guarantees, one test each.

Each test prints one PASS line on success; pytest -v shows the per-criterion
verdict either way.  Timing limits are asserted with perf_counter.
"""

import json
import math
import time

import bentkit.cli as cli
from bentkit.bent import dual_bent, is_bent
from bentkit.census import enumerate_bent_by_degree, enumerate_bent_naive
from bentkit.core import BooleanFunction, random_function, weight
from bentkit.geometry import coset_value_class_sizes
from bentkit.suites import (
    suite_convolution,
    suite_flats,
    suite_involution,
    suite_lemma1,
    suite_lemma2,
    suite_parseval,
    suite_prop1,
)
from bentkit.bounds import (
    headline_log2,
    simplified_log2,
    tokareva_lower_log2,
    trivial_upper_log2,
)
from bentkit.transforms import degree, walsh_fast


def test_criterion_01_census_counts(capsys):
    t0 = time.perf_counter()
    naive2 = enumerate_bent_naive(2)
    t1 = time.perf_counter()
    degree2 = enumerate_bent_by_degree(2)
    t2 = time.perf_counter()
    naive4 = enumerate_bent_naive(4)
    t3 = time.perf_counter()
    degree4 = enumerate_bent_by_degree(4)
    t4 = time.perf_counter()
    assert naive2.count == degree2.count == 8
    assert naive4.count == degree4.count == 896
    assert naive2.functions == degree2.functions
    assert naive4.functions == degree4.functions
    # analytic cross-check at n=2: bent iff odd weight
    assert [f.table for f in naive2.functions] == [
        t for t in range(16) if bin(t).count("1") % 2 == 1
    ]
    assert t1 - t0 < 1.0 and t2 - t1 < 1.0 and t3 - t2 < 1.0 and t4 - t3 < 1.0
    # the CLI front end reports the same counts
    assert cli.main(["census", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"naive": 8, "degree": 8} and payload["agreement"]
    assert cli.main(["census", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"naive": 896, "degree": 896} and payload["agreement"]
    print("ACCEPTANCE 1: PASS census 8/896, methods agree, under 1 s each")


def test_criterion_02_degree_bound():
    members = enumerate_bent_by_degree(4).functions
    assert len(members) == 896
    assert all(degree(f) <= 2 for f in members)
    print("ACCEPTANCE 2: PASS all 896 bent functions at n=4 have degree <= 2")


def test_criterion_03_dual_closure():
    members = enumerate_bent_naive(4).functions
    for f in members:
        d = dual_bent(f)
        assert is_bent(d)
        assert dual_bent(d) == f
    print("ACCEPTANCE 3: PASS dual is bent and dual of dual is identity, all 896")


def test_criterion_04_lemma1():
    t0 = time.perf_counter()
    exhaustive = suite_lemma1(n=3)
    elapsed = time.perf_counter() - t0
    assert exhaustive["passed"]
    assert exhaustive["checks"] == 65536 * 3  # all ordered pairs x 3 faces
    # positive coverage: measured exhaustive count of premise-true pairs
    assert exhaustive["details"]["premise_true"] == 14700
    assert elapsed < 30.0
    randomized = suite_lemma1(n=8, samples=10_000, seed=1)
    assert randomized["passed"] and randomized["checks"] == 10_000
    print(f"ACCEPTANCE 4: PASS lemma1 exhaustive n=3 in {elapsed:.1f}s + 10^4 random at n=8")


def test_criterion_05_lemma2():
    t0 = time.perf_counter()
    reports = {n: suite_lemma2(n=n) for n in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - t0
    assert all(r["passed"] for r in reports.values())
    # n=4, r=2: all 2048 degree-<=2 functions round-trip (space <= 2048 means
    # the suite round-trips every candidate, not a sample)
    assert reports[4]["details"]["functions_per_radius"]["2"] == 2048
    assert elapsed < 5.0
    print(f"ACCEPTANCE 5: PASS lemma2 distinctness + round-trips, n <= 4, in {elapsed:.1f}s")


def test_criterion_06_affine_images():
    report = suite_prop1(n=4, maps=10, seed=1)
    assert report["passed"]
    assert report["checks"] == 896 * 10
    print("ACCEPTANCE 6: PASS 8960 random affine images of bent functions all bent")


def test_criterion_07_convolution_identity():
    report = suite_convolution(samples=1000, seed=1)
    assert report["passed"]
    assert report["checks"] == 16 * 4 + 1000  # exhaustive n=2 plus random
    print("ACCEPTANCE 7: PASS restriction identity exact on every tested pair")


def test_criterion_08_transform_properties():
    involution = suite_involution(samples=1000, seed=1)
    assert involution["passed"]
    parseval = suite_parseval(samples=1000, seed=1)
    assert parseval["passed"]
    f = random_function(20, 1)
    t0 = time.perf_counter()
    spectrum = walsh_fast(f)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert sum(v * v for v in spectrum) == 1 << 40
    print(f"ACCEPTANCE 8: PASS involution/Parseval/naive agreement; n=20 WHT in {elapsed:.2f}s")


def test_criterion_09_sum_class_sizes():
    assert coset_value_class_sizes(2) == {-4: 1, -2: 4, 0: 6, 2: 4, 4: 1}
    print("ACCEPTANCE 9: PASS 16 sign patterns split 1/4/6/4/1 by sum class")


def test_criterion_10_flat_statistics():
    report = suite_flats(4)
    assert report["passed"]
    assert report["details"]["census_size"] == 896
    assert report["details"]["total_flats"] == 140
    assert report["details"]["plus_minus_two"] == 80
    print("ACCEPTANCE 10: PASS every n=4 bent function: 80 of 140 flats sum to +-2")


def test_criterion_11_bound_arithmetic():
    assert trivial_upper_log2(4) == 11
    assert tokareva_lower_log2(4) == 7
    count_log = math.log2(enumerate_bent_naive(4).count)
    assert abs(count_log - 9.807354922057604) < 1e-9
    assert tokareva_lower_log2(4) <= count_log <= trivial_upper_log2(4)
    for n in range(6, 32, 2):
        headline = headline_log2(n)
        simplified = simplified_log2(n)
        assert headline < simplified
        gap = (8 - 3 * math.log2(6)) * (1 << (n - 6))
        assert math.isclose(simplified - headline, gap, rel_tol=1e-9)
    print("ACCEPTANCE 11: PASS 7 <= log2 896 <= 11; headline below 3*2^(n-3) with exact gap")
