"""The verification suites themselves, at small parameters."""

import dataclasses
import inspect
import random
import tracemalloc

import numpy as np
import pytest

from bentkit import bent, core, geometry, reconstruct, suites, transforms
from bentkit.bent import apply_affine, is_bent, random_invertible
from bentkit.census import enumerate_bent_by_degree
from bentkit.core import BooleanFunction, ResourceCapError, format_bf, pack_bits, parse_bf
from bentkit.reconstruct import check_lemma1, reconstruct_from_ball
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


def test_suites_take_only_verify_flags():
    # the library and the CLI share one parameter space
    for name, run in SUITES.items():
        assert set(inspect.signature(run).parameters) <= {"n", "samples", "seed", "maps"}, name


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


@pytest.mark.parametrize("n,seed", [(10, 1), (8, 2)])
def test_lemma1_with_no_premise_true_triple_does_not_pass(n, seed):
    report = suite_lemma1(n=n, seed=seed)
    assert report["passed"] is False
    assert report["failures"] == 0
    assert report["details"]["premise_true"] == 0
    assert report["checks"] == report["params"]["samples"]


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

    def repeating(n, r, coeffs):
        # row k repeats row k % 3 on the ball; from row 3 on, it differs off the ball
        rows = real(n, r, coeffs)[np.arange(len(coeffs)) % 3]
        rows[3:, np.setdiff1d(np.arange(1 << n), geometry._ball_index(n, r))] ^= 1
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


def test_ball_readers_share_one_cached_index(monkeypatch):
    # reconstruct_from_ball, lemma2 and the degree census (through
    # truth_rows_from_anf) read geometry's one read-only int32 array per (n, r)
    real, reads = geometry._ball_index, {}

    def spy(reader):
        def index(n, r):
            reads.setdefault(reader, []).append((n, r, real(n, r)))
            return reads[reader][-1][2]

        return index

    for module in (reconstruct, suites, transforms):
        monkeypatch.setattr(module, "_ball_index", spy(module.__name__))
    readers = {"bentkit.reconstruct", "bentkit.suites", "bentkit.transforms"}
    suite_lemma2(n=4)
    assert set(reads) == readers
    reads.clear()
    enumerate_bent_by_degree(4)
    assert [(n, r) for n, r, _ in reads.pop("bentkit.transforms")] == [(4, 2)] and not reads
    suite_lemma2(n=6, samples=20, seed=2)
    reconstruct_from_ball(6, 3, np.zeros((1, 42), dtype=np.uint8))
    assert set(reads) == readers and len(reads["bentkit.reconstruct"]) == 2
    for n, r, index in (read for calls in reads.values() for read in calls):
        assert index is real(n, r)
        assert index.dtype == np.int32 and not index.flags.writeable


def _reconstruct_spy(monkeypatch, wrong_rows=()):
    """Record each reconstruct_from_ball call's row count; flip the origin of
    every result row whose running index is in ``wrong_rows``."""
    real, calls = suites.reconstruct_from_ball, []

    def spy(n, r, values):
        out = real(n, r, values)
        for k in range(len(out)):
            out[k, 0] ^= int(sum(calls) + k in wrong_rows)
        calls.append(len(out))
        return out

    monkeypatch.setattr(suites, "reconstruct_from_ball", spy)
    return calls


def test_lemma2_reconstructs_a_chunk_at_a_time(monkeypatch):
    calls = _reconstruct_spy(monkeypatch)
    report = suite_lemma2()
    assert report["passed"] and report["checks"] == 102980
    # radii 0..4 at n=4: 2, 32 and 2,048 candidates, then 256 sampled twice
    assert calls == [2, 32, 2048, 256, 256]
    calls.clear()
    monkeypatch.setattr(core, "CHUNK_POINTS", 1 << 9)  # 32 rows of 2^4 points a call
    assert suite_lemma2() == report
    assert max(calls) == 32 and sum(calls) == 2594 and len(calls) == 1 + 1 + 64 + 8 + 8


@pytest.mark.parametrize("n, samples, chunk", [(6, 20, 1 << 7), (8, 70, 1 << 15), (5, 9, 1)])
def test_lemma2_randomized_chunks_keep_the_rng_stream(monkeypatch, n, samples, chunk):
    whole = suite_lemma2(n=n, samples=samples, seed=3)
    calls = _reconstruct_spy(monkeypatch)
    monkeypatch.setattr(core, "CHUNK_POINTS", chunk)
    assert suite_lemma2(n=n, samples=samples, seed=3) == whole
    step = max(1, chunk >> n)
    assert calls == [min(step, samples - start) for start in range(0, samples, step)]


def test_lemma2_round_trip_failures_name_the_row_in_stream_order(monkeypatch):
    # the default run's round trips 0 (radius 0), 5 (radius 1), 40 (radius 2), 2100 (radius 3)
    _reconstruct_spy(monkeypatch, wrong_rows={0, 5, 40, 2100})
    monkeypatch.setattr(core, "CHUNK_POINTS", 1 << 8)
    report = suite_lemma2()
    assert report["failures"] == 4 and report["passed"] is False
    assert [c["r"] for c in report["counterexamples"]] == [0, 1, 2, 3]
    for c in report["counterexamples"]:
        assert set(c) == {"r", "function", "rebuilt"}
        f, g = parse_bf(c["function"]), parse_bf(c["rebuilt"])
        assert f.table ^ g.table == 1  # only the flipped origin differs


def test_sampled_streams_refuse_their_expected_cost_before_a_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("a function was drawn")

    monkeypatch.setattr(suites, "random_function", refuse)
    for run, max_n, points in [
        (suite_parseval, 12, 204750000000),
        (suite_involution, 16, 2457562500000),
        (suite_convolution, 10, 61380000000),
    ]:
        # samples x (2^(max_n + 1) - 2) / max_n expected points, rounded up
        assert points == -(-300000000 * ((2 << max_n) - 2) // max_n)
        refused = rf"needs 2\^{(points - 1).bit_length()} expected truth-table points for "
        with pytest.raises(ResourceCapError, match=refused + rf"300000000 samples .*\({points}\)"):
            run(samples=300000000)
    # involution at max_n 16 admits 2,048 samples (16,776,960 points), not 2,049
    suites._check_stream(2048, 16)
    with pytest.raises(ResourceCapError, match=r"2\^25 .* \(16785152\)"):
        suites._check_stream(2049, 16)


def test_prop1_small():
    report = suite_prop1(n=2, maps=5, seed=1)
    check_shape(report, "prop1")
    assert report["passed"]
    assert report["checks"] == 8 * 5
    assert report["details"]["census_size"] == 8


def test_convolution_suite():
    report = suite_convolution(samples=40, seed=1)
    check_shape(report, "convolution")
    assert report["passed"]
    assert report["checks"] == 64 + 40  # 16 functions x 4 masks, then samples


def test_parseval_suite():
    report = suite_parseval(samples=40, seed=1)
    check_shape(report, "parseval")
    assert report["passed"]
    assert report["checks"] == 4 + 16 + 256 + 40


def test_parseval_meets_the_naive_oracle_up_to_the_cutoff(monkeypatch):
    arities = []
    real = suites._naive_spectra

    def recording(n, tables):
        arities.extend([n] * len(tables))  # one per row of the block
        return real(n, tables)

    monkeypatch.setattr(suites, "_naive_spectra", recording)
    report = suite_parseval(samples=60, seed=1)
    assert report["passed"] and report["checks"] == 4 + 16 + 256 + 60
    # the n <= 10 functions meet the oracle; the samples above the cutoff do not
    assert max(arities) == suites._NAIVE_CHECK_MAX_N == 10
    assert 4 + 16 + 256 < len(arities) < report["checks"]


def test_involution_suite():
    report = suite_involution(samples=30, seed=1)
    check_shape(report, "involution")
    assert report["passed"]
    assert report["checks"] == 4 + 16 + 256 + 65536 + 30


def test_involution_reports_a_wrong_packed_row(monkeypatch):
    real = suites._moebius_table

    def one_wrong(table, n, rows=1):
        out = real(table, n, rows)
        if n == 3 and rows > 1:
            out ^= 1 << (0x5A << n)  # bit 0 of packed table 0x5a
        return out

    monkeypatch.setattr(suites, "_moebius_table", one_wrong)
    report = suite_involution(samples=5, seed=1)
    assert report["checks"] == 4 + 16 + 256 + 65536 + 5
    assert report["failures"] == 1
    assert report["counterexamples"] == [{"f": "bf:3:5a"}]
    assert not report["passed"]


def test_involution_sends_only_its_samples_through_moebius(monkeypatch):
    calls = []
    real = suites.moebius
    monkeypatch.setattr(suites, "moebius", lambda f: calls.append(f.n) or real(f))
    samples = 7
    assert suite_involution(samples=samples, seed=1)["passed"]
    assert len(calls) == 2 * samples


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


def test_flats_suite_fails_when_the_closed_form_leaves_the_direct_count(monkeypatch):
    real = suites.two_flat_sum_distribution

    def one_flat_moved(f):
        # census-constant, so the absolute-distribution check alone would pass
        dist = real(f)
        counts = {**dist.counts, 0: dist.counts[0] - 1, 4: dist.counts[4] + 1}
        return type(dist)(dist.n, counts)

    monkeypatch.setattr(suites, "two_flat_sum_distribution", one_flat_moved)
    report = suite_flats(4)
    check_shape(report, "flats")
    assert report["passed"] is False
    assert report["checks"] == 1 + 2 * 896
    assert report["failures"] == 896
    assert {c["reason"] for c in report["counterexamples"]} == {
        "closed form differs from the direct count"
    }


def test_report_counts_ints_as_passing_checks_and_dicts_as_failures():
    report = suites._report("s", "m", {}, [2, {"k": 1}, 0, {"k": 2}, 3])
    assert (report["checks"], report["failures"]) == (7, 2)
    assert report["counterexamples"] == [{"k": 1}, {"k": 2}]
    assert report["passed"] is False


@pytest.mark.parametrize("item", [None, True, False, -1, np.int64(1), 1.0, "1", [{"k": 1}]])
def test_report_refuses_an_item_that_is_neither_a_count_nor_a_counterexample(item):
    with pytest.raises(TypeError, match="check stream item"):
        suites._report("s", "m", {}, [1, item])


@pytest.mark.parametrize(
    "run, items, checks",
    [(suite_lemma1, 768, 196_608), (suite_lemma2, 10, 102_980), (suite_involution, 1_004, 66_812)],
)
def test_array_checks_reach_the_report_as_one_count_a_block(monkeypatch, run, items, checks):
    # lemma1: one count per function and face; lemma2: per collision block
    # and round-trip chunk; involution: per exhaustive arity, then its samples
    real = suites._report
    seen = []

    def counting(suite, mode, params, problems, details=None):
        return real(suite, mode, params, (seen.append(item) or item for item in problems), details)

    monkeypatch.setattr(suites, "_report", counting)
    assert run()["checks"] == checks
    assert len(seen) == items


def test_zero_checks_do_not_pass():
    assert suite_lemma1(n=8, samples=0)["passed"] is False
    assert suite_lemma2(n=6, samples=0)["passed"] is False
    assert suite_prop1(n=2, maps=0)["passed"] is False


def test_prop1_failing_path_reports_counterexamples(monkeypatch):
    monkeypatch.setattr(bent, "bent_rows", lambda truth, n: np.zeros(len(truth), dtype=bool))
    report = suite_prop1(n=2, maps=2)
    check_shape(report, "prop1")
    assert report["checks"] == 16
    assert report["failures"] == 16
    assert len(report["counterexamples"]) == 10
    assert all(set(c) == {"function", "image"} for c in report["counterexamples"])
    assert report["passed"] is False


def test_passing_prop1_packs_no_image(monkeypatch):
    packed = []

    def counting(bits):
        packed.append(len(bits))
        return pack_bits(bits)

    for module in (bent, suites):
        monkeypatch.setattr(module, "pack_bits", counting)
    report = suite_prop1(n=4, maps=2)
    assert report["passed"] and report["checks"] == 2 * 896
    assert packed == []


@pytest.mark.parametrize("n,maps,seed", [(2, 3, 7), (4, 2, 1)])
def test_prop1_batch_reports_what_a_per_image_test_would(monkeypatch, n, maps, seed):
    rng = random.Random(seed)
    expected = []
    for f in enumerate_bent_by_degree(n).functions:
        for _ in range(maps):
            image = BooleanFunction(n, pack_bits(apply_affine([f], random_invertible(n, rng, 1))[0]))
            if not (is_bent(image) and image.table % 2 == 0):
                expected.append({"function": format_bf(f), "image": format_bf(image)})
    real = bent.bent_rows
    # fail every image whose table is odd, i.e. is 1 at the origin; patched
    # after the per-image reference, which also reaches bent.bent_rows
    monkeypatch.setattr(bent, "bent_rows", lambda truth, k: real(truth, k) & (truth[:, 0] == 0))
    report = suite_prop1(n=n, maps=maps, seed=seed)
    assert report["checks"] == maps * {2: 8, 4: 896}[n]
    assert 0 < report["failures"] == len(expected) < report["checks"]
    assert report["counterexamples"] == expected[:10]


@pytest.mark.parametrize("n,maps,seed", [(2, 2, 7), (4, 1, 1)])
def test_prop1_chunks_that_split_members_match_the_per_member_route(monkeypatch, n, maps, seed):
    members = enumerate_bent_by_degree(n).functions

    def per_member():
        rng = random.Random(seed)
        for f in members:
            for _ in range(maps):
                row = apply_affine([f], random_invertible(n, rng, 1))[0]
                image = BooleanFunction(n, pack_bits(row))
                ok = is_bent(image) and image.table % 2 == 0
                yield 1 if ok else {"function": format_bf(f), "image": format_bf(image)}

    params = {"n": n, "maps": maps, "seed": seed}
    details = {"census_size": len(members)}
    expected = suites._report("prop1", "census x random maps", params, per_member(), details)
    real = bent.bent_rows
    sizes = []

    def marked(truth, k):
        # fails every image that is 1 at the origin
        sizes.append(len(truth))
        return real(truth, k) & (truth[:, 0] == 0)

    monkeypatch.setattr(bent, "bent_rows", marked)
    # chunks of three maps: at n=2 (two maps a member) every third member's
    # maps are split between two chunks; at n=4 (one map) a chunk holds three
    monkeypatch.setattr(core, "CHUNK_POINTS", 3 << n)
    report = suite_prop1(n=n, maps=maps, seed=seed)
    images = len(members) * maps
    assert sizes == [3] * (images // 3) + [images % 3] * (images % 3 > 0)
    assert 0 < report["failures"] < report["checks"] == images
    assert report == expected


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
        for mask in (1 << i for i in range(n)):
            for f in funcs:
                for g in funcs:
                    result = check(f, g, mask)
                    details["premise_true"] += result["premise"]
                    yield 1 if result["holds"] else {
                        "f": format_bf(f),
                        "g": format_bf(g),
                        "mask": f"{mask:#x}",
                        **result,
                    }

    params = {"n": n, "samples": 1000, "seed": 1}
    return suites._report("lemma1", "exhaustive", params, problems(), details)


def test_lemma1_stream_matches_the_per_pair_route(monkeypatch):
    calls = []

    def counting(f, g, mask):
        calls.append((f, g, mask))
        return check_lemma1(f, g, mask)

    monkeypatch.setattr(suites, "check_lemma1", counting)
    assert suite_lemma1(n=2) == _lemma1_per_pair(2, check_lemma1)
    assert len(calls) == 2 * 16  # one per member of each face's spectrum groups
    assert all(check_lemma1(*call)["premise"] for call in calls)


def test_lemma1_group_with_a_disagreeing_member_goes_pair_by_pair(monkeypatch):
    # as a butterfly/oracle disagreement would: the oracle's spectrum of bf:2:9
    # differs on the face from the rest of its group ({3, 6, 9, 12} on face
    # 0x1, {5, 6, 9, 10} on 0x2), in which 9 is not the first member
    calls = []

    def disagreeing(f, g, mask):
        calls.append((f.table, g.table, mask))
        result = check_lemma1(f, g, mask)
        if (f.table == 9) != (g.table == 9):
            result = {**result, "premise": False, "holds": True}
        return result

    expected = _lemma1_per_pair(2, disagreeing)
    calls.clear()
    monkeypatch.setattr(suites, "check_lemma1", disagreeing)
    report = suite_lemma1(n=2)
    assert report == expected
    assert report["details"]["premise_true"] == 72 - 2 * 6
    # a group's checks stop at 9, its third member; then the two groups
    # holding 9 are checked pair by pair, and no other group is
    assert len(calls) == 2 * (16 - 1) + 2 * 4 * 4


def test_lemma1_checks_each_default_group_member_once(monkeypatch):
    calls = []

    def counting(f, g, mask):
        calls.append(mask)
        return check_lemma1(f, g, mask)

    monkeypatch.setattr(suites, "check_lemma1", counting)
    report = suite_lemma1()
    assert report["passed"] and report["checks"] == 196_608
    assert report["details"]["premise_true"] == 14_700
    assert len(calls) == 3 * 256


def test_lemma1_above_n12_is_refused_before_any_triple(monkeypatch):
    def refuse(*args):
        raise AssertionError("a triple was drawn or checked")

    monkeypatch.setattr(suites, "check_lemma1", refuse)
    monkeypatch.setattr(suites, "random_function", refuse)
    needs = r"needs 2\^26 truth-table points for 2\^13 coset sums at n=13"
    with pytest.raises(ResourceCapError, match=needs):
        suite_lemma1(n=13)


def test_lemma1_refuses_its_drawn_points_before_a_triple(monkeypatch):
    def refuse(*args):
        raise AssertionError("a function was drawn")

    monkeypatch.setattr(suites, "random_function", refuse)
    # two drawn tables of 2^n points a triple: samples << (n + 1)
    for n, samples, points in [(4, 524289, 16777248), (12, 2049, 16785408)]:
        assert points == samples << (n + 1)
        needs = rf"needs 2\^25 drawn truth-table points for {samples} samples at n={n} \({points}\)"
        with pytest.raises(ResourceCapError, match=needs):
            suite_lemma1(n=n, samples=samples)
    # exactly 2^24 points are admitted, so the first draw is reached
    for n, samples in [(4, 524288), (12, 2048)]:
        with pytest.raises(AssertionError, match="a function was drawn"):
            suite_lemma1(n=n, samples=samples)
    # the n > 12 refusal comes first and keeps its message
    with pytest.raises(ResourceCapError, match=r"needs 2\^26 truth-table points for 2\^13 coset"):
        suite_lemma1(n=13, samples=300000000)


def test_lemma1_counterexample_order_matches_the_per_pair_route(monkeypatch):
    def fail_on_odd_tables(f, g, mask):
        result = check_lemma1(f, g, mask)
        if result["premise"] and f.table & 1:
            result = {**result, "conclusion": False, "holds": False}
        return result

    expected = _lemma1_per_pair(2, fail_on_odd_tables)
    monkeypatch.setattr(suites, "check_lemma1", fail_on_odd_tables)
    assert suite_lemma1(n=2) == expected


def test_lemma2_refuses_a_ball_over_the_budget_before_listing_it(monkeypatch):
    def refuse(n, r):
        raise AssertionError(f"ball_points({n}, {r}) listed the ball")

    monkeypatch.setattr(geometry, "ball_points", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=r"2\^26 points in the ball B_13 at n=26 \(38"):
            suite_lemma2(n=26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # n=25's ball holds exactly 2^24 points, within the budget: one round
    # trip over it is listed
    with pytest.raises(AssertionError, match=r"ball_points\(25, 12\)"):
        suite_lemma2(n=25, samples=1)


def test_lemma2_refuses_round_trips_over_the_budget_before_listing_the_ball(monkeypatch):
    def refuse(n, r):
        raise AssertionError(f"ball_points({n}, {r}) listed the ball")

    monkeypatch.setattr(geometry, "ball_points", refuse)
    # 256 round trips over |B_9| = 155,382 points at n=18
    refused = r"2\^26 ball points over 256 round trips in B_9 at n=18 \(39777792\)"
    with pytest.raises(ResourceCapError, match=refused):
        suite_lemma2(n=18)
    with pytest.raises(ResourceCapError, match=r"2\^25 ball points over 2 round trips in B_12"):
        suite_lemma2(n=25, samples=2)
    # the default 256 samples at n=17 are exactly 2^24 ball points
    with pytest.raises(AssertionError, match=r"ball_points\(17, 8\)"):
        suite_lemma2(n=17)


def test_convolution_failing_path_reports_counterexamples(monkeypatch):
    monkeypatch.setattr(
        suites, "check_restriction_identity", lambda pairs: [mask != 1 for _, mask in pairs]
    )
    report = suite_convolution(samples=0)
    check_shape(report, "convolution")
    assert report["checks"] == 64
    assert report["failures"] == 16  # every n=2 function on the mask 0x1
    assert report["counterexamples"][:2] == [
        {"f": "bf:2:0", "mask": "0x1"},
        {"f": "bf:2:1", "mask": "0x1"},
    ]
    assert report["passed"] is False


@pytest.mark.parametrize(
    "perturb,names",
    [
        # W(0) + 1: the sum of squares, the parity, W(0) and the oracle all break
        (lambda w: np.concatenate([w[:1] + 1, w[1:]]), ["parseval", "parity", "w0", "naive-disagrees"]),
        # every value but W(0) in reverse order: only the oracle can tell
        (lambda w: np.concatenate([w[:1], w[:0:-1]]), ["naive-disagrees"]),
    ],
    ids=["w0-plus-one", "reversed"],
)
def test_parseval_failing_path_names_each_broken_invariant(monkeypatch, perturb, names):
    real = suites.walsh_truth_rows

    def perturbed(truth):
        # every row of each butterfly block, as the one row of each call was
        return np.stack([perturb(row) for row in real(truth)])

    monkeypatch.setattr(suites, "walsh_truth_rows", perturbed)
    report = suite_parseval(samples=0)
    check_shape(report, "parseval")
    assert report["checks"] == 4 + 16 + 256
    assert len(report["counterexamples"]) == 10
    assert all(set(c) == {"f", "problems"} for c in report["counterexamples"])
    assert all(c["problems"] == names for c in report["counterexamples"])
    assert report["passed"] is False


def test_parseval_is_exact_where_int64_squares_wrap():
    # (8 - 2^63)^2 is 64 modulo 2^64, so an int64 dot product reads 2^(2n) at n=3
    wrapped = np.zeros(8, dtype=np.int64)
    wrapped[0] = 8 - 2**63
    assert wrapped @ wrapped == 64
    [problems] = suites._spectrum_problems([BooleanFunction(3, 0)], wrapped[None].copy())
    assert "parseval" in problems["problems"]


def test_parseval_widens_an_int32_spectrum():
    # 8^2 + (2^16)^2 is 64 modulo 2^32, so an int32 dot product reads 2^(2n) at n=3
    wrapped = np.array([8, 2**16, 0, 0, 0, 0, 0, 0], dtype=np.int32)
    assert wrapped @ wrapped == 64
    [problems] = suites._spectrum_problems([BooleanFunction(3, 0x96)], wrapped[None].copy())
    assert problems["problems"] == ["parseval", "w0", "naive-disagrees"]  # bf:3:96


def test_parseval_reports_block_failures_in_stream_order(monkeypatch):
    # one chunk: the n = 1 block, run first, holds the last failing function
    stream = list(suites._functions(3, 10, 1, 12))
    assert sum(f.size for f in stream) <= core.CHUNK_POINTS
    last_n1 = max(i for i, f in enumerate(stream) if f.n == 1)
    first_n3 = min(i for i, f in enumerate(stream) if f.n == 3)
    assert first_n3 < last_n1
    real = suites._naive_spectra

    def corrupted(n, tables):
        spectra = real(n, tables)
        if n in (1, 3):
            spectra[-1 if n == 1 else 0, 0] += 2
        return spectra

    monkeypatch.setattr(suites, "_naive_spectra", corrupted)
    report = suite_parseval(samples=10, seed=1)
    assert report["checks"] == len(stream) and report["failures"] == 2
    assert report["counterexamples"] == [
        {"f": format_bf(stream[i]), "problems": ["naive-disagrees"]} for i in (first_n3, last_n1)
    ]


def test_blocks_cut_the_stream_at_the_point_bound(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_POINTS", 16)
    calls = []

    def run(block):
        calls.append([n for _, n in block])
        return [-i for i, _ in block]

    arities = [1, 3, 2, 3, 5, 1, 1, 4, 4]  # 2, 8, 4, 8, 32, 2, 2, 16, 16 points
    items = list(enumerate(arities))
    assert list(suites._in_blocks(items, lambda item: item[1], run)) == [
        (item, -item[0]) for item in items
    ]
    # one group per arity in order of first appearance, 16 >> n items a block:
    # eight of n=1, two of n=3, four of n=2, then n=5 and each n=4 alone
    assert calls == [[1, 1, 1], [3, 3], [2], [5], [4], [4]]


def _blocks_per_arity(arities):
    # sum over n of ceil(k_n / max(1, CHUNK_POINTS >> n)) for k_n items of arity n
    counts = {n: arities.count(n) for n in set(arities)}
    return sum(-(-k // max(1, core.CHUNK_POINTS >> n)) for n, k in counts.items())


def test_default_sampled_suites_run_one_block_stream_per_arity(monkeypatch):
    calls = {"rows": 0, "naive": 0, "convolve": 0, "hadamard": 0}
    pair_arities = []

    def counted(module, name, key):
        real = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(suites, "walsh_truth_rows", "rows")
    counted(suites, "_naive_spectra", "naive")
    counted(transforms, "convolve_pm", "convolve")
    counted(transforms, "hadamard_transform", "hadamard")
    real_identity = suites.check_restriction_identity

    def identity(pairs):
        pair_arities.extend(f.n for f, _ in pairs)
        return real_identity(pairs)

    monkeypatch.setattr(suites, "check_restriction_identity", identity)
    assert suite_parseval()["passed"]
    arities = [f.n for f in suites._functions(3, 1000, 1, 12)]
    assert calls["rows"] == _blocks_per_arity(arities) == 29  # 250 in chunks of 2^15 points
    small = [n for n in arities if n <= suites._NAIVE_CHECK_MAX_N]
    assert calls["naive"] == _blocks_per_arity(small)
    assert suite_convolution()["passed"]
    assert len(pair_arities) == 64 + 1000
    assert calls["convolve"] == calls["hadamard"] == _blocks_per_arity(pair_arities) == 14


@pytest.mark.parametrize("points", [1, 4, 48, 1 << 15])
def test_block_suites_in_small_chunks_match_one_chunk(monkeypatch, points):
    real_rows, real_convolve = suites.walsh_truth_rows, transforms.convolve_pm
    blocks = []

    def rows_off(truth):
        # W(0) + 1 for every function of n >= 4 that is 1 at the origin
        blocks.append(len(truth))
        spectra = real_rows(truth)
        if truth.shape[1] >= 16:
            spectra[:, 0] += truth[:, 0]
        return spectra

    def convolve_off(functions, g):
        out = real_convolve(functions, g)
        for f, row in zip(functions, out):
            row[0] += f.n >= 4 and f.table & 1
        return out

    monkeypatch.setattr(suites, "walsh_truth_rows", rows_off)
    monkeypatch.setattr(transforms, "convolve_pm", convolve_off)
    runs = {
        "parseval": lambda: suite_parseval(samples=60, seed=4),
        "convolution": lambda: suite_convolution(samples=60, seed=4),
    }
    monkeypatch.setattr(core, "CHUNK_POINTS", 1 << 40)
    whole = {name: run() for name, run in runs.items()}
    assert len(blocks) == 12  # one parseval block per arity, n = 1..12
    monkeypatch.setattr(core, "CHUNK_POINTS", points)
    for name, run in runs.items():
        blocks.clear()
        report = run()
        assert report == whole[name]
        assert 0 < report["failures"] < report["checks"]
        # the failures interleave arities: stream order is not block order
        arities = [parse_bf(c["f"]).n for c in report["counterexamples"]]
        assert len(arities) == 10 and arities != sorted(arities)
        if name == "parseval" and points == 1:
            assert blocks == [1] * report["checks"]  # every function a chunk by itself


def test_flats_failing_path_reports_a_member_off_the_common_distribution(monkeypatch):
    real = suites.two_flat_sum_distribution
    last = enumerate_bent_by_degree(4).functions[-1]

    def last_moved(f):
        dist = real(f)
        if f != last:
            return dist
        return type(dist)(dist.n, {**dist.counts, 0: dist.counts[0] - 1, 4: dist.counts[4] + 1})

    monkeypatch.setattr(suites, "two_flat_sum_distribution", last_moved)
    report = suite_flats(4)
    check_shape(report, "flats")
    assert report["checks"] == 1 + 2 * 896
    assert report["failures"] == 2
    direct, spread = report["counterexamples"]
    assert direct["reason"] == "closed form differs from the direct count"
    assert spread["reason"] == "absolute distribution differs across census"
    assert set(spread) == {"function", "reason", "got"}
    assert spread["function"] == format_bf(last)
    assert report["passed"] is False


def test_flats_refuses_an_empty_census(monkeypatch):
    real = suites.enumerate_bent_by_degree
    monkeypatch.setattr(
        suites, "enumerate_bent_by_degree", lambda n: dataclasses.replace(real(n), tables=())
    )
    with pytest.raises(ValueError, match="no bent functions at n=4"):
        suite_flats(4)


def _census_dropping_the_first(real):
    def census(n):
        result = real(n)
        return dataclasses.replace(result, count=result.count - 1, tables=result.tables[1:])

    return census


def test_census_agreement_failing_paths_report_counterexamples(monkeypatch):
    monkeypatch.setattr(
        suites, "enumerate_bent_naive", _census_dropping_the_first(suites.enumerate_bent_naive)
    )
    report = suite_census_agreement(2)
    check_shape(report, "census-agreement")
    assert report["checks"] == 2 and report["failures"] == 2
    assert report["counterexamples"] == [
        {"reason": "method outputs differ", "naive_count": 7, "degree_count": 8},
        {"reason": "odd-weight analytic check failed"},
    ]
    assert report["passed"] is False
    # both methods agree on the same wrong stream: only the analytic check fails
    one_short = _census_dropping_the_first(suites.enumerate_bent_by_degree)
    monkeypatch.setattr(suites, "enumerate_bent_by_degree", one_short)
    report = suite_census_agreement(2)
    assert report["counterexamples"] == [{"reason": "odd-weight analytic check failed"}]
    assert report["passed"] is False
