"""Faces, cosets, balls, and pattern-class counting."""

import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bentkit import geometry
from bentkit.core import BooleanFunction, ResourceCapError, parse_bf, weight
from bentkit.geometry import (
    _face_indicator,
    ball_points,
    ball_size,
    coset_spectrum,
    coset_value_class_sizes,
    covering_coset_count,
    coordinate_masks,
    gaussian_binomial,
    subcube_points,
    weight_masks,
)

AND = parse_bf("bf:2:8")


def test_face_mask_basics():
    assert subcube_points(3, 0b101) == [0, 1, 4, 5]
    assert subcube_points(3, 0) == [0]
    assert subcube_points(2, 0b11) == [0, 1, 2, 3]


def test_face_mask_validation():
    for n, mask in ((2, 4), (2, -1), (2, 1.0), (2, True), (0, 0), (True, 1), (2.0, 1)):
        with pytest.raises(ValueError):
            subcube_points(n, mask)


def test_face_mask_is_not_arity_capped():
    # a mask is an O(1) value; the cap applies to the truth tables it meets
    assert len(subcube_points(40, 0b11 << 38)) == 4
    assert covering_coset_count(40, 20, 0b11 << 38) == sum(comb(38, i) for i in range(21))


def test_subcube_points_refuses_a_face_over_the_budget_before_listing_it(monkeypatch):
    def refuse(mask):
        raise AssertionError(f"listed the face of mask {mask:#x}")

    monkeypatch.setattr(geometry, "_subcube_points", refuse)
    with pytest.raises(ResourceCapError, match=r"needs 2\^40 points in the face of mask 0x"):
        subcube_points(40, 2**40 - 1)
    with pytest.raises(ResourceCapError, match=r"needs 2\^25 points"):
        subcube_points(26, (1 << 25) - 1)
    # a dim-24 face sits exactly on the budget: it is listed
    with pytest.raises(AssertionError, match="listed the face"):
        subcube_points(26, (1 << 24) - 1)


def test_coset_representative():
    # coset_spectrum keys each coset by its minimum index, the point with
    # every free coordinate cleared
    assert list(coset_spectrum(AND, 0b01)) == [0, 2]
    for mask in range(8):
        for rep in coset_spectrum(BooleanFunction(3, 0), mask):
            assert min(rep ^ s for s in subcube_points(3, mask)) == rep


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_cosets_partition_cube(n):
    for mask in range(1 << n):
        reps = {z & ~mask for z in range(1 << n)}
        assert len(reps) == 1 << (n - mask.bit_count())
        seen = set()
        for rep in reps:
            coset = {rep ^ s for s in subcube_points(n, mask)}
            assert not (coset & seen)
            seen |= coset
        assert seen == set(range(1 << n))


def test_coset_sum_oracle():
    # the sum on the coset of z is the spectrum entry at z's representative
    mask = 0b01
    sums = coset_spectrum(AND, mask)
    assert sums[0 & ~mask] == 2
    assert sums[2 & ~mask] == 0
    assert sums[3 & ~mask] == 0  # same coset as 2
    with pytest.raises(ValueError):
        coset_spectrum(AND, 0b100)


def test_coset_spectrum_oracle():
    assert coset_spectrum(AND, 0b01) == {0: 2, 2: 0}
    # full-cube face: single coset summing the whole sign vector
    assert coset_spectrum(AND, 0b11) == {0: 2}
    # point face: one coset per point, signs individually
    assert coset_spectrum(AND, 0) == {0: 1, 1: 1, 2: 1, 3: -1}


def test_coset_spectrum_refuses_past_the_work_budget_before_listing_a_coset(monkeypatch):
    def refuse(mask):
        raise AssertionError("a coset was listed")

    monkeypatch.setattr(geometry, "_subcube_points", refuse)
    needs = r"needs 2\^32 truth-table points for 2\^16 coset sums at n=16"
    with pytest.raises(ResourceCapError, match=needs):
        coset_spectrum(BooleanFunction(16, 0), 0)


def test_coset_spectrum_admits_the_work_budget_boundary():
    # 2^8 cosets of a dim-8 face at n=16 are exactly 2^24 points; on <x, y>
    # with x the free low byte, the coset of y sums to 256 at y = 0, else 0
    f = BooleanFunction(16, sum((k & (k >> 8)).bit_count() % 2 << k for k in range(1 << 16)))
    assert coset_spectrum(f, 0xff) == {y << 8: 256 * (y == 0) for y in range(256)}


@given(st.integers(1, 6), st.data())
@settings(max_examples=60)
def test_coset_spectrum_totals(n, data):
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    spectrum = coset_spectrum(f, mask)
    size = 1 << mask.bit_count()
    assert len(spectrum) == 1 << (n - mask.bit_count())
    assert sum(spectrum.values()) == (1 << n) - 2 * weight(f)
    assert all(abs(v) <= size and (v - size) % 2 == 0 for v in spectrum.values())


@given(st.integers(1, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_coset_spectrum_matches_point_sums(n, data):
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    for mask in range(1 << n):
        expected = {}
        for z in range(1 << n):
            rep = z & ~mask
            expected[rep] = expected.get(rep, 0) + 1 - 2 * f.bit(z)
        assert list(coset_spectrum(f, mask).items()) == sorted(expected.items())


@pytest.mark.parametrize("n", [1, 2, 5])
def test_masks_match_their_point_sets(n):
    def indicator(points):
        return sum(1 << x for x in points)

    points = range(1 << n)
    assert coordinate_masks(n) == tuple(
        indicator(x for x in points if not (x >> i) & 1) for i in range(n)
    )
    assert coordinate_masks(n, 3)[0] == indicator(x for x in range(3 << n) if not x & 1)
    assert weight_masks(n) == tuple(
        indicator(x for x in points if x.bit_count() == w) for w in range(n + 1)
    )
    for mask in range(1 << n):
        assert _face_indicator(n, mask) == indicator(subcube_points(n, mask))


def test_ball_points_oracle():
    assert ball_points(4, 2) == (0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12)
    assert ball_points(2, 2) == (0, 1, 2, 3)
    assert ball_points(3, 0) == (0,)
    assert len(ball_points(6, 3)) == sum(comb(6, i) for i in range(4))
    with pytest.raises(ValueError):
        ball_points(3, 4)
    with pytest.raises(ValueError):
        ball_points(3, -1)


def test_ball_points_ordering():
    pts = ball_points(5, 3)
    keys = [(p.bit_count(), p) for p in pts]
    assert keys == sorted(keys)


def test_ball_points_match_sorted_scan():
    for n in range(1, 9):
        for r in range(n + 1):
            scan = sorted((x for x in range(1 << n) if x.bit_count() <= r),
                          key=lambda x: (x.bit_count(), x))
            assert ball_points(n, r) == tuple(scan)


def test_ball_points_are_cached_and_still_checked():
    assert ball_points(4, 1) is ball_points(4, 1)
    # a cached int radius must not admit the bool that equals it
    with pytest.raises(ValueError, match="radius must be an int"):
        ball_points(4, True)
    with pytest.raises(ValueError, match="arity must be an int"):
        ball_points(4.0, 1)


def test_ball_points_cost_follows_the_ball():
    started = time.perf_counter()
    ball = ball_points(26, 1)
    assert time.perf_counter() - started < 0.5
    assert ball == (0,) + tuple(1 << i for i in range(26))


def test_ball_size_oracles():
    assert ball_size(4, 2) == 11
    assert ball_size(2, 1) == 3
    assert ball_size(3, 3) == 8
    assert ball_size(3, 0) == 1
    assert ball_size(3, 4) == 8  # a radius past n covers the cube
    assert ball_size(0, 0) == 1


def test_ball_size_counts_ball_points():
    for n in range(1, 11):
        for r in range(n + 1):
            assert ball_size(n, r) == len(ball_points(n, r))


def test_covering_coset_count_oracles():
    assert covering_coset_count(4, 2, 0b1100) == 4
    assert covering_coset_count(6, 3, 0b110000) == 15
    assert covering_coset_count(4, 4, 0b0011) == 4  # every coset hits
    assert covering_coset_count(4, 2, 0b1111) == 1
    # point face: cosets are singletons, count is the ball volume
    assert covering_coset_count(4, 2, 0) == len(ball_points(4, 2))


def test_covering_coset_count_large_path():
    # point face: each of the 2^18 cosets is one point, so the count is the
    # ball volume
    n, r = 18, 2
    got = covering_coset_count(n, r, 0)
    assert got == sum(comb(n, i) for i in range(r + 1))


@given(st.integers(1, 8), st.data())
@settings(max_examples=60)
def test_covering_coset_count_brute(n, data):
    r = data.draw(st.integers(0, n))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    expected = len({z & ~mask for z in range(1 << n) if z.bit_count() <= r})
    assert covering_coset_count(n, r, mask) == expected


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(2, 1) == 3
    assert gaussian_binomial(4, 1) == 15
    assert gaussian_binomial(5, 0) == 1
    assert gaussian_binomial(5, 5) == 1
    assert gaussian_binomial(5, 6) == 0
    for n in range(1, 8):
        for k in range(n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)


def test_coset_value_class_sizes():
    assert coset_value_class_sizes(1) == {-2: 1, 0: 2, 2: 1}
    assert coset_value_class_sizes(2) == {-4: 1, -2: 4, 0: 6, 2: 4, 4: 1}
    for dim in (1, 2, 3):
        sizes = coset_value_class_sizes(dim)
        points = 1 << dim
        assert sum(sizes.values()) == 1 << points
        # sum s needs (points - s)/2 minus-signs among the points
        for s, count in sizes.items():
            assert count == comb(points, (points - s) // 2)
    assert sum(coset_value_class_sizes(4).values()) == 1 << 16
    assert coset_value_class_sizes(0) == {-1: 1, 1: 1}
    with pytest.raises(ResourceCapError, match=r"needs 2\^32 sign patterns"):
        coset_value_class_sizes(5)
    # no face has a negative dimension or one above MAX_ARITY
    for dim in (-1, 27):
        with pytest.raises(ValueError):
            coset_value_class_sizes(dim)
