"""The verification suites themselves, at small parameters."""

import random

import numpy as np
import pytest

from bentkit import suites
from bentkit.bent import apply_affine, is_bent, random_invertible
from bentkit.census import enumerate_bent_by_degree
from bentkit.core import BooleanFunction, format_bf
from bentkit.geometry import FaceMask
from bentkit.reconstruct import check_lemma1
from bentkit.suites import (
    SUITES,
    suite_census_agreement,
    suite_convolution,
    suite_flats,
    suite_involution,
    suite_lemma1,
    suite_lemma2,
    suite_parseval,
    suite_prop1,
)

REPORT_KEYS = {
    "suite",
    "mode",
    "params",
    "checks",
    "failures",
    "counterexamples",
    "passed",
    "details",
}


def test_registry_names():
    assert set(SUITES) == {
        "lemma1",
        "lemma2",
        "prop1",
        "convolution",
        "parseval",
        "involution",
        "flats",
        "census-agreement",
    }


def check_shape(report, suite_name):
    assert set(report) == REPORT_KEYS
    assert report["suite"] == suite_name
    assert report["failures"] == len(report["counterexamples"]) or report["failures"] > 10
    assert report["passed"] == (report["failures"] == 0)


def test_lemma1_exhaustive_n2():
    report = suite_lemma1(n=2)
    check_shape(report, "lemma1")
    assert report["passed"]
    assert report["mode"] == "exhaustive"
    assert report["checks"] == 16 * 16 * 2
    assert report["details"]["premise_true"] == 72


def test_lemma1_randomized():
    report = suite_lemma1(n=5, samples=60, seed=4)
    assert report["passed"]
    assert report["mode"] == "randomized"
    assert report["checks"] == 60
    assert report == suite_lemma1(n=5, samples=60, seed=4)


def test_lemma2_exhaustive_small():
    report = suite_lemma2(n=2)
    check_shape(report, "lemma2")
    assert report["passed"]
    assert report["details"]["functions_per_radius"] == {"0": 2, "1": 8, "2": 16}


def test_lemma2_randomized():
    report = suite_lemma2(n=6, samples=20, seed=2)
    assert report["passed"]
    assert report["checks"] == 20
    assert report == suite_lemma2(n=6, samples=20, seed=2)


def test_lemma2_collisions_name_the_first_occurrence(monkeypatch):
    real = suites.truth_rows_from_anf

    def repeating(n, points, coeffs):
        # row k repeats row k % 3 on the ball; from row 3 on, it differs off the ball
        rows = real(n, points, coeffs)[np.arange(len(coeffs)) % 3]
        rows[3:, sorted(set(range(1 << n)) - set(points))] ^= 1
        return rows

    monkeypatch.setattr(suites, "truth_rows_from_anf", repeating)
    report = suite_lemma2(n=2)
    check_shape(report, "lemma2")
    assert report["checks"] == (2 + 2) + (8 + 8) + (16 + 16)
    # radius 1: rows 3..7 collide and fail their round trip; radius 2: rows 3..15 collide
    assert report["failures"] == 5 + 5 + 13
    # radius-1 rows 0, 1, 2 are 0, 1 and x1; rows 3..7 flip them at the point 3
    pairs = [("bf:2:0", "bf:2:8"), ("bf:2:f", "bf:2:7"), ("bf:2:a", "bf:2:2")] * 2
    assert report["counterexamples"] == [
        {"r": 1, "first": a, "second": b, "reason": "restrictions collide"} for a, b in pairs[:5]
    ] + [{"r": 1, "function": b, "rebuilt": a} for a, b in pairs[:5]]
    assert report["passed"] is False


def test_prop1_small():
    report = suite_prop1(n=2, maps=5, seed=1)
    check_shape(report, "prop1")
    assert report["passed"]
    assert report["checks"] == 8 * 5
    assert report["details"]["census_size"] == 8


def test_convolution_suite():
    report = suite_convolution(samples=40, seed=1, max_n=6)
    check_shape(report, "convolution")
    assert report["passed"]
    assert report["checks"] == 64 + 40  # 16 functions x 4 masks, then samples


def test_parseval_suite():
    report = suite_parseval(samples=40, seed=1, max_n=8)
    check_shape(report, "parseval")
    assert report["passed"]
    assert report["checks"] == 4 + 16 + 256 + 40


def test_involution_suite():
    report = suite_involution(samples=30, seed=1, max_n=10)
    check_shape(report, "involution")
    assert report["passed"]
    assert report["checks"] == 4 + 16 + 256 + 65536 + 30


@pytest.mark.parametrize("n", [2, 4])
def test_flats_suite(n):
    report = suite_flats(n)
    check_shape(report, "flats")
    assert report["passed"]
    details = report["details"]
    assert details["plus_minus_two"] == {2: 1, 4: 80}[n]
    assert details["total_flats"] == {2: 1, 4: 140}[n]
    assert details["census_size"] == {2: 8, 4: 896}[n]


@pytest.mark.parametrize("n", [2, 4])
def test_census_agreement_suite(n):
    report = suite_census_agreement(n)
    check_shape(report, "census-agreement")
    assert report["passed"]
    assert report["details"]["count"] == {2: 8, 4: 896}[n]
    if n == 2:
        assert report["details"]["analytic_odd_weight_count"] == 8


def test_zero_checks_do_not_pass():
    assert suite_lemma1(n=8, samples=0)["passed"] is False
    assert suite_lemma2(n=6, samples=0)["passed"] is False
    assert suite_prop1(n=2, maps=0)["passed"] is False


def test_prop1_failing_path_reports_counterexamples(monkeypatch):
    monkeypatch.setattr(suites, "bent_rows", lambda truth, n: np.zeros(len(truth), dtype=bool))
    report = suite_prop1(n=2, maps=2)
    check_shape(report, "prop1")
    assert report["checks"] == 16
    assert report["failures"] == 16
    assert len(report["counterexamples"]) == 10
    assert all(set(c) == {"function", "image"} for c in report["counterexamples"])
    assert report["passed"] is False


@pytest.mark.parametrize("n,maps,seed", [(2, 3, 7), (4, 2, 1)])
def test_prop1_batch_reports_what_a_per_image_test_would(monkeypatch, n, maps, seed):
    real = suites.bent_rows
    # fail every image whose table is odd, i.e. is 1 at the origin
    monkeypatch.setattr(suites, "bent_rows", lambda truth, k: real(truth, k) & (truth[:, 0] == 0))
    report = suite_prop1(n=n, maps=maps, seed=seed)
    rng = random.Random(seed)
    expected = []
    for f in enumerate_bent_by_degree(n).functions:
        for _ in range(maps):
            image = apply_affine(f, random_invertible(n, rng))
            if not (is_bent(image) and image.table % 2 == 0):
                expected.append({"function": format_bf(f), "image": format_bf(image)})
    assert report["checks"] == maps * {2: 8, 4: 896}[n]
    assert 0 < report["failures"] == len(expected) < report["checks"]
    assert report["counterexamples"] == expected[:10]


def test_lemma1_failing_path_keeps_counting_premises(monkeypatch):
    real = suites.check_lemma1

    def fail_on_odd_tables(f, g, gamma):
        # a broken conclusion can only fail a pair whose premise holds
        result = real(f, g, gamma)
        if result["premise"] and f.table & 1:
            result = {**result, "conclusion": False, "holds": False}
        return result

    monkeypatch.setattr(suites, "check_lemma1", fail_on_odd_tables)
    report = suite_lemma1(n=2)
    check_shape(report, "lemma1")
    assert report["checks"] == 16 * 16 * 2
    assert report["failures"] == 36
    assert report["details"]["premise_true"] == 72
    assert len(report["counterexamples"]) == 10
    assert all(
        set(c) == {"f", "g", "mask", "premise", "conclusion", "holds"}
        for c in report["counterexamples"]
    )
    assert report["passed"] is False


def _lemma1_per_pair(n, check):
    """The exhaustive lemma1 report with ``check`` run on every (face, f, g)."""
    funcs = [BooleanFunction(n, t) for t in range(1 << (1 << n))]
    details = {"premise_true": 0}

    def problems():
        for gamma in (FaceMask(n, 1 << i) for i in range(n)):
            for f in funcs:
                for g in funcs:
                    result = check(f, g, gamma)
                    details["premise_true"] += result["premise"]
                    yield None if result["holds"] else {
                        "f": format_bf(f),
                        "g": format_bf(g),
                        "mask": f"{gamma.mask:#x}",
                        **result,
                    }

    params = {"n": n, "samples": 1000, "seed": 1}
    return suites._report("lemma1", "exhaustive", params, problems(), details)


def test_lemma1_stream_matches_the_per_pair_route(monkeypatch):
    calls = []

    def counting(f, g, gamma):
        calls.append((f, g, gamma))
        return check_lemma1(f, g, gamma)

    monkeypatch.setattr(suites, "check_lemma1", counting)
    assert suite_lemma1(n=2) == _lemma1_per_pair(2, check_lemma1)
    assert len(calls) == 72  # only the premise-true pairs
    assert all(check_lemma1(*call)["premise"] for call in calls)


def test_lemma1_counterexample_order_matches_the_per_pair_route(monkeypatch):
    def fail_on_odd_tables(f, g, gamma):
        result = check_lemma1(f, g, gamma)
        if result["premise"] and f.table & 1:
            result = {**result, "conclusion": False, "holds": False}
        return result

    expected = _lemma1_per_pair(2, fail_on_odd_tables)
    monkeypatch.setattr(suites, "check_lemma1", fail_on_odd_tables)
    assert suite_lemma1(n=2) == expected
