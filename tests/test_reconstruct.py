"""Ball reconstruction and the face-spectrum implication checker."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentkit import geometry, reconstruct, transforms
from bentkit.core import BooleanFunction, ResourceCapError, pack_bits, parse_bf, random_function
from bentkit.core import unpack_bits
from bentkit.geometry import ball_points, coset_spectrum, subcube_points
from bentkit.reconstruct import check_lemma1, reconstruct_from_ball
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


def rebuild(n, r, values):
    """reconstruct_from_ball of one row of ball values, as a BooleanFunction."""
    row = reconstruct_from_ball(n, r, np.array([values], dtype=np.uint8))[0]
    return BooleanFunction(n, pack_bits(row))


def restriction(f, r):
    """f's values on B_r, in ball_points order, gathered from its unpacked table."""
    return unpack_bits(f.table, f.size)[list(ball_points(f.n, r))]


def test_ball_assignment_validation():
    good = np.array([[0, 1, 1]])
    assert reconstruct_from_ball(2, 1, good).shape == (1, 4)
    with pytest.raises(ValueError, match="has 3 points, got 2 values$"):
        reconstruct_from_ball(2, 1, np.array([[0, 1]]))
    with pytest.raises(ValueError, match="must be bits, got 2$"):
        reconstruct_from_ball(2, 1, np.array([[0, 1, 1], [0, 1, 2]]))
    with pytest.raises(ValueError, match="must be bits, got -1$"):
        reconstruct_from_ball(2, 1, np.array([[0, -1, 0]]))
    with pytest.raises(ValueError):
        reconstruct_from_ball(2, 3, np.zeros((1, 4), dtype=np.uint8))
    with pytest.raises(ResourceCapError):
        reconstruct_from_ball(27, 1, np.zeros((1, 1), dtype=np.uint8))
    # bits are ints: a float or bool block compares equal to 0/1 but is refused,
    # and so is a list, or a block that is not 2-D
    for bad in (good.astype(float), good.astype(bool), good.tolist()):
        with pytest.raises(ValueError, match="^assignment entries must be an int, got "):
            reconstruct_from_ball(2, 1, bad)
    with pytest.raises(ValueError, match=r"shape \(rows, 3\), got \(3,\)$"):
        reconstruct_from_ball(2, 1, good[0])


def test_ball_assignment_counts_the_ball_without_listing_it(monkeypatch):
    def refuse(n, r):
        raise AssertionError(f"ball_points({n}, {r}) listed the ball")

    monkeypatch.setattr(geometry, "ball_points", refuse)
    with pytest.raises(ValueError, match="has 38754732 points, got 1 values"):
        reconstruct_from_ball(26, 13, np.zeros((1, 1), dtype=np.uint8))


@pytest.mark.parametrize("n", range(1, 13))
def test_ball_assignment_from_function_reads_every_ball_point(n, monkeypatch):
    # the restriction recipe and the rebuilt rows agree with f on every ball point
    f = random_function(n, n)
    expected = {r: [f.bit(p) for p in ball_points(n, r)] for r in range(n + 1)}

    def refuse(self, index):
        raise AssertionError("the round trip read a point with BooleanFunction.bit")

    monkeypatch.setattr(BooleanFunction, "bit", refuse)
    for r in range(n + 1):
        values = restriction(f, r)
        assert values.tolist() == expected[r]
        rebuilt = reconstruct_from_ball(n, r, values[None])
        assert rebuilt[0, list(ball_points(n, r))].tolist() == expected[r]


def test_ball_assignment_round_trip_helpers():
    assert restriction(AND, 1).tolist() == [0, 0, 0]
    values = restriction(parse_bf("bf:4:7888"), 2)
    assert len(values) == 11 == len(ball_points(4, 2))
    assert degree(rebuild(4, 2, values)) <= 2


def test_reconstruct_oracle():
    # worked example: values at 00, 10, 01 force f(11) = 0 + 1 + 1 = 0
    assert rebuild(2, 1, (0, 1, 1)) == XOR
    assert rebuild(2, 1, (0, 0, 0)).table == 0


def test_reconstruct_radius_n_is_verbatim():
    for table in range(16):
        f = BooleanFunction(2, table)
        assert rebuild(2, 2, restriction(f, 2)) == f


def test_reconstruct_radius_0_is_constant():
    assert rebuild(3, 0, (0,)).table == 0
    assert rebuild(3, 0, (1,)).table == 0xFF


def test_reconstruct_an_empty_block():
    for n, r in ((1, 0), (4, 2), (12, 6)):
        out = reconstruct_from_ball(n, r, np.zeros((0, len(ball_points(n, r))), dtype=np.int64))
        assert out.shape == (0, 1 << n) and out.dtype == np.uint8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_and_distinctness_exhaustive(n):
    for r in range(n + 1):
        points = ball_points(n, r)
        seen = set()
        for candidate in range(1 << len(points)):
            f = anf_on_ball(n, r, candidate)
            assert degree(f) <= r
            values = tuple(f.bit(p) for p in points)
            assert values not in seen
            seen.add(values)
            assert rebuild(n, r, values) == f


@given(st.integers(0, (1 << 22) - 1))
@settings(max_examples=80, deadline=None)
def test_round_trip_random_n6_r3(candidate):
    # 22 ANF coefficients live on the radius-3 ball at n=6
    f = anf_on_ball(6, 3, candidate)
    assert rebuild(6, 3, restriction(f, 3)) == f


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_block_equals_row_by_row_and_the_anf_oracle(data):
    n = data.draw(st.integers(1, 8), label="n")
    r = data.draw(st.integers(0, n), label="r")
    width = len(ball_points(n, r))
    candidates = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=40))
    functions = [anf_on_ball(n, r, c) for c in candidates]
    block = np.array([restriction(f, r) for f in functions])
    rebuilt = reconstruct_from_ball(n, r, block)
    assert rebuilt.shape == (len(functions), 1 << n)
    for f, values, row in zip(functions, block, rebuilt):
        assert BooleanFunction(n, pack_bits(row)) == f == rebuild(n, r, values)


def test_reconstruct_n10_r5_returns_its_input():
    rng = random.Random(10)
    functions = [anf_on_ball(10, 5, rng.getrandbits(len(ball_points(10, 5)))) for _ in range(5)]
    rebuilt = reconstruct_from_ball(10, 5, np.array([restriction(f, 5) for f in functions]))
    assert [BooleanFunction(10, pack_bits(row)) for row in rebuilt] == functions


def test_reconstruction_clears_high_moebius_coefficients():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 6)
        r = rng.randint(0, n)
        values = tuple(rng.getrandbits(1) for _ in ball_points(n, r))
        anf = moebius(rebuild(n, r, values))
        for y in range(1 << n):
            if y.bit_count() > r:
                assert anf.bit(y) == 0


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # a point outside the ball of row 2 set: the normal form gains degree n
        (lambda n, rows: 1 << ((2 << n) + (1 << n) - 1), "row 2 has degree above 1"),
        # row 1 complemented, a degree-0 change: it disagrees on the ball
        (lambda n, rows: ((1 << (1 << n)) - 1) << (1 << n), "row 1 disagrees on the ball"),
    ],
    ids=["degree", "agreement"],
)
def test_a_wrong_kernel_result_names_the_first_bad_row(monkeypatch, corrupt, message):
    kernel, calls = transforms._moebius_table, []

    def second_call_corrupted(table, n, rows=1):
        calls.append(rows)
        out = kernel(table, n, rows)
        return out ^ corrupt(n, rows) if len(calls) == 2 else out

    monkeypatch.setattr(reconstruct, "_moebius_table", second_call_corrupted)
    with pytest.raises(ArithmeticError, match=f"^reconstruction of {message}$"):
        reconstruct_from_ball(3, 1, np.zeros((4, 4), dtype=np.uint8))


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
