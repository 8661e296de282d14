"""Ball reconstruction and the face-spectrum implication checker."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bentkit import reconstruct, transforms
from bentkit.core import BooleanFunction, ResourceCapError, parse_bf, random_function, weight
from bentkit.geometry import ball_points, coset_spectrum, subcube_points
from bentkit.reconstruct import BallAssignment, check_lemma1, reconstruct_from_ball
from bentkit.transforms import degree, moebius, walsh_fast

AND = parse_bf("bf:2:8")
XOR = parse_bf("bf:2:6")


def _shifted(f, shift):
    """f(x + shift): its spectrum is f's times (-1)^<shift, y>."""
    table = 0
    for x in range(f.size):
        table |= f.bit(x ^ shift) << x
    return BooleanFunction(f.n, table)


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
    with pytest.raises(ValueError, match="must be bits, got 2$"):
        BallAssignment(2, 1, (0, 1, 2))
    with pytest.raises(ValueError):
        BallAssignment(2, 3, (0,) * 4)
    with pytest.raises(ResourceCapError):
        BallAssignment(27, 1, (0,))
    # bits are plain ints: floats and bools compare equal to 0/1 but are refused
    for bad in (1.0, True, False):
        with pytest.raises(ValueError, match="^assignment entries must be an int, got "):
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
    assert check_lemma1(AND, AND, 0b01)["premise"]
    assert not check_lemma1(AND, XOR, 0b01)["premise"]
    # mask 0: premise compares only W(0), i.e. the weights
    assert check_lemma1(AND, parse_bf("bf:2:1"), 0)["premise"]
    assert not check_lemma1(AND, XOR, 0)["premise"]
    with pytest.raises(ValueError):
        check_lemma1(AND, BooleanFunction(3, 0), 1)
    with pytest.raises(ValueError):
        check_lemma1(AND, XOR, 0b100)


def test_lemma1_conclusion_full_mask_is_pointwise():
    # the dual face of the full mask is {0}: the conclusion compares f and g pointwise
    for table in range(16):
        g = BooleanFunction(2, table)
        assert check_lemma1(AND, g, 0b11)["conclusion"] == (g == AND)


def test_check_lemma1_oracle():
    report = check_lemma1(AND, XOR, 0b01)
    assert report == {"premise": False, "conclusion": False, "holds": True}
    report = check_lemma1(AND, AND, 0b10)
    assert report == {"premise": True, "conclusion": True, "holds": True}


def test_complement_shifts_premise():
    # f + 1 negates the whole spectrum: premise only if spectrum vanishes on
    # the face, yet the implication must still hold
    f = parse_bf("bf:2:a")
    g = parse_bf("bf:2:5")
    report = check_lemma1(f, g, 0b10)  # W zero on that face
    assert report["premise"] and report["conclusion"] and report["holds"]


@given(st.integers(1, 7), st.data())
@settings(max_examples=120, deadline=None)
def test_lemma1_random_triples(n, data):
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    g = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    assert check_lemma1(f, g, mask)["holds"]


@given(st.integers(1, 6), st.data())
@settings(max_examples=120, deadline=None)
def test_lemma1_premise_true_by_construction(n, data):
    # shifting by a dual-face vector leaves the spectrum unchanged on the
    # face, so the premise holds non-vacuously and the conclusion must follow
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    shift = data.draw(st.sampled_from(subcube_points(n, mask ^ ((1 << n) - 1))))
    report = check_lemma1(f, _shifted(f, shift), mask)
    assert report["premise"]
    assert report["conclusion"]


def _lemma1_from_fast(f, g, mask):
    wf, wg = walsh_fast(f), walsh_fast(g)
    premise = all(wf[y] == wg[y] for y in subcube_points(f.n, mask))
    dual = mask ^ ((1 << f.n) - 1)
    conclusion = coset_spectrum(f, dual) == coset_spectrum(g, dual)
    return {"premise": premise, "conclusion": conclusion, "holds": not premise or conclusion}


@pytest.mark.parametrize("n", [7, 8])
def test_check_lemma1_matches_a_premise_from_walsh_fast(n, monkeypatch):
    rng = random.Random(n)
    triples = []
    for k in range(24):
        f = random_function(n, rng)
        mask = rng.randrange(1 << n)
        # odd k: g is f shifted by a dual-face vector, so the premise holds
        if k % 2:
            g = _shifted(f, rng.choice(subcube_points(n, mask ^ ((1 << n) - 1))))
        else:
            g = random_function(n, rng)
        triples.append((f, g, mask))
    expected = [_lemma1_from_fast(*triple) for triple in triples]
    assert {e["premise"] for e in expected} == {True, False}

    def refuse(*args):
        raise AssertionError("check_lemma1 took the other route")

    # up to n=7 both spectra come from the defining sum, above it from the butterfly
    monkeypatch.setattr(transforms, "walsh_rows" if n <= 7 else "walsh_naive", refuse)
    assert [check_lemma1(*triple) for triple in triples] == expected


def test_check_lemma1_refuses_past_the_work_budget_before_either_spectrum(monkeypatch):
    def refuse(f):
        raise AssertionError("a spectrum was built")

    monkeypatch.setattr(reconstruct, "_walsh_by_arity", refuse)
    zero = BooleanFunction(16, 0)
    # the full face's dual is the point face: 2^16 cosets of the 2^16-point table
    with pytest.raises(ResourceCapError, match=r"needs 2\^32 truth-table points"):
        check_lemma1(zero, zero, 0xffff)
