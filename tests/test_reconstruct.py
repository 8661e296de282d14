"""Ball reconstruction and the face-spectrum implication checker."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bentkit.core import BooleanFunction, ResourceCapError, parse_bf, random_function, weight
from bentkit.geometry import FaceMask, ball_points, dual_face, subcube_points
from bentkit.reconstruct import (
    BallAssignment,
    check_lemma1,
    lemma1_conclusion,
    lemma1_premise,
    reconstruct_from_ball,
)
from bentkit.transforms import degree, moebius

AND = parse_bf("bf:2:8")
XOR = parse_bf("bf:2:6")


def anf_on_ball(n, r, candidate):
    points = ball_points(n, r)
    table = 0
    for j, p in enumerate(points):
        table |= ((candidate >> j) & 1) << p
    return moebius(BooleanFunction(n, table))


def test_ball_assignment_validation():
    BallAssignment(2, 1, (0, 1, 1))
    with pytest.raises(ValueError):
        BallAssignment(2, 1, (0, 1))
    with pytest.raises(ValueError):
        BallAssignment(2, 1, (0, 1, 2))
    with pytest.raises(ValueError):
        BallAssignment(2, 3, (0,) * 4)
    with pytest.raises(ResourceCapError):
        BallAssignment(27, 1, (0,))
    # bits are plain ints: floats and bools compare equal to 0/1 but are refused
    for bad in (1.0, True, False):
        with pytest.raises(ValueError, match="must be bits"):
            BallAssignment(2, 1, (bad, 0, 0))


def test_ball_assignment_counts_the_ball_without_listing_it(monkeypatch):
    import bentkit.reconstruct as reconstruct

    def refuse(n, r):
        raise AssertionError(f"ball_points({n}, {r}) listed the ball")

    monkeypatch.setattr(reconstruct, "ball_points", refuse)
    with pytest.raises(ValueError, match="has 38754732 points, got 1 values"):
        BallAssignment(26, 13, (0,))


@pytest.mark.parametrize("n", range(1, 13))
def test_ball_assignment_from_function_reads_every_ball_point(n, monkeypatch):
    f = random_function(n, n)
    expected = {r: tuple(f.bit(p) for p in ball_points(n, r)) for r in range(n + 1)}

    def refuse(self, index):
        raise AssertionError("from_function read a point with BooleanFunction.bit")

    monkeypatch.setattr(BooleanFunction, "bit", refuse)
    for r in range(n + 1):
        assert BallAssignment.from_function(f, r).values == expected[r]


def test_ball_assignment_round_trip_helpers():
    a = BallAssignment.from_function(AND, 1)
    assert a.values == (0, 0, 0)
    b = BallAssignment.from_function(parse_bf("bf:4:7888"), 2)
    assert ball_points(b.n, b.r) == ball_points(4, 2)
    assert len(b.values) == 11


def test_reconstruct_oracle():
    # worked example: values at 00, 10, 01 force f(11) = 0 + 1 + 1 = 0
    assert reconstruct_from_ball(BallAssignment(2, 1, (0, 1, 1))) == XOR
    assert reconstruct_from_ball(BallAssignment(2, 1, (0, 0, 0))).table == 0


def test_reconstruct_radius_n_is_verbatim():
    for table in range(16):
        f = BooleanFunction(2, table)
        a = BallAssignment.from_function(f, 2)
        assert reconstruct_from_ball(a) == f


def test_reconstruct_radius_0_is_constant():
    assert reconstruct_from_ball(BallAssignment(3, 0, (0,))).table == 0
    assert reconstruct_from_ball(BallAssignment(3, 0, (1,))).table == 0xFF


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_and_distinctness_exhaustive(n):
    for r in range(n + 1):
        points = ball_points(n, r)
        seen = set()
        for candidate in range(1 << len(points)):
            f = anf_on_ball(n, r, candidate)
            assert degree(f) <= r
            restriction = tuple(f.bit(p) for p in points)
            assert restriction not in seen
            seen.add(restriction)
            assert reconstruct_from_ball(BallAssignment(n, r, restriction)) == f


@given(st.integers(0, (1 << 22) - 1))
@settings(max_examples=80, deadline=None)
def test_round_trip_random_n6_r3(candidate):
    # 22 ANF coefficients live on the radius-3 ball at n=6
    f = anf_on_ball(6, 3, candidate)
    a = BallAssignment.from_function(f, 3)
    assert reconstruct_from_ball(a) == f


def test_reconstruct_n10_r5_returns_its_input():
    rng = random.Random(10)
    for _ in range(5):
        f = anf_on_ball(10, 5, rng.getrandbits(len(ball_points(10, 5))))
        assert reconstruct_from_ball(BallAssignment.from_function(f, 5)) == f


def test_reconstruction_clears_high_moebius_coefficients():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 6)
        r = rng.randint(0, n)
        values = tuple(rng.getrandbits(1) for _ in ball_points(n, r))
        result = reconstruct_from_ball(BallAssignment(n, r, values))
        anf = moebius(result)
        for y in range(1 << n):
            if y.bit_count() > r:
                assert anf.bit(y) == 0


def test_lemma1_premise_oracles():
    gamma = FaceMask(2, 0b01)
    assert lemma1_premise(AND, AND, gamma)
    assert not lemma1_premise(AND, XOR, gamma)
    # mask 0: premise compares only W(0), i.e. the weights
    zero = FaceMask(2, 0)
    assert lemma1_premise(AND, parse_bf("bf:2:1"), zero)
    assert not lemma1_premise(AND, XOR, zero)
    with pytest.raises(ValueError):
        lemma1_premise(AND, BooleanFunction(3, 0), FaceMask(2, 1))


def test_lemma1_conclusion_full_mask_is_pointwise():
    full = FaceMask(2, 0b11)
    assert dual_face(full).mask == 0
    for table in range(16):
        g = BooleanFunction(2, table)
        assert lemma1_conclusion(AND, g, full) == (g == AND)


def test_check_lemma1_oracle():
    report = check_lemma1(AND, XOR, FaceMask(2, 0b01))
    assert report == {"premise": False, "conclusion": False, "holds": True}
    report = check_lemma1(AND, AND, FaceMask(2, 0b10))
    assert report == {"premise": True, "conclusion": True, "holds": True}


def test_complement_shifts_premise():
    # f + 1 negates the whole spectrum: premise only if spectrum vanishes on
    # the face, yet the implication must still hold
    f = parse_bf("bf:2:a")
    g = parse_bf("bf:2:5")
    report = check_lemma1(f, g, FaceMask(2, 0b10))  # W zero on that face
    assert report["premise"] and report["conclusion"] and report["holds"]


@given(st.integers(1, 7), st.data())
@settings(max_examples=120, deadline=None)
def test_lemma1_random_triples(n, data):
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    g = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    gamma = FaceMask(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert check_lemma1(f, g, gamma)["holds"]


@given(st.integers(1, 6), st.data())
@settings(max_examples=120, deadline=None)
def test_lemma1_premise_true_by_construction(n, data):
    # shifting by a dual-face vector leaves the spectrum unchanged on the
    # face, so the premise holds non-vacuously and the conclusion must follow
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    gamma = FaceMask(n, data.draw(st.integers(0, (1 << n) - 1)))
    shift = data.draw(st.sampled_from(subcube_points(dual_face(gamma))))
    table = 0
    for x in range(1 << n):
        table |= f.bit(x ^ shift) << x
    g = BooleanFunction(n, table)
    report = check_lemma1(f, g, gamma)
    assert report["premise"]
    assert report["conclusion"]
