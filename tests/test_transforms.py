"""Walsh-Hadamard, normal form, degree, and the convolution identity."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentkit import transforms
from bentkit.core import BooleanFunction, ResourceCapError, parse_bf, random_function, weight
from bentkit.core import pack_bits, unpack_bits, unpack_rows
from bentkit.geometry import FaceMask, ball_points, face_indicator
from bentkit.transforms import (
    _NUMPY_CUTOVER,
    check_restriction_identity,
    convolve_pm,
    degree,
    degree_space_log2,
    hadamard_transform,
    moebius,
    truth_rows_from_anf,
    walsh_fast,
    walsh_naive,
)

AND = parse_bf("bf:2:8")
XOR = parse_bf("bf:2:6")


def functions(max_n=10):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(BooleanFunction, st.just(n), st.integers(0, (1 << (1 << n)) - 1))
    )


def test_walsh_oracles():
    assert walsh_fast(AND) == [2, 2, 2, -2]
    assert walsh_naive(AND) == [2, 2, 2, -2]
    assert walsh_fast(XOR) == [0, 0, 0, 4]
    assert walsh_fast(BooleanFunction(1, 0)) == [2, 0]
    assert walsh_fast(BooleanFunction(1, 0b10)) == [0, 2]
    assert walsh_fast(parse_bf("bf:4:7888"))[0] == 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fast_matches_naive_exhaustively(n):
    for table in range(1 << (1 << n)):
        f = BooleanFunction(n, table)
        assert walsh_fast(f) == walsh_naive(f)


@given(functions(10))
@settings(max_examples=150, deadline=None)
def test_fast_matches_naive_random(f):
    assert walsh_fast(f) == walsh_naive(f)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_fast_matches_naive_across_cutover(n):
    # n=6 runs the pure-Python butterfly, n=7 and n=8 the numpy one
    assert _NUMPY_CUTOVER == 7
    rng = random.Random(n)
    for _ in range(20):
        f = random_function(n, rng)
        assert walsh_fast(f) == walsh_naive(f)


@pytest.mark.parametrize("n", range(1, 13))
def test_spectra_are_lists_of_python_ints(n):
    # both sides of _NUMPY_CUTOVER for walsh_fast
    f = random_function(n, n)
    for spectrum in (walsh_fast(f), walsh_naive(f)):
        assert type(spectrum) is list and len(spectrum) == f.size
        assert all(type(v) is int for v in spectrum)


def test_naive_makes_no_int64_copy_of_the_matrix():
    f = random_function(10, random.Random(10))
    walsh_naive(f)  # builds and caches the 1024 x 1024 int8 character matrix
    tracemalloc.start()
    try:
        walsh_naive(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # an int64 copy of the matrix would be 8 MB


def test_naive_cap():
    with pytest.raises(ResourceCapError):
        walsh_naive(BooleanFunction(13, 0))


@given(functions(12))
@settings(max_examples=150, deadline=None)
def test_spectrum_invariants(f):
    spectrum = walsh_fast(f)
    assert len(spectrum) == f.size
    # Parseval, parity, and the zero coefficient
    assert sum(v * v for v in spectrum) == 1 << (2 * f.n)
    assert all(v % 2 == 0 for v in spectrum)
    assert spectrum[0] == f.size - 2 * weight(f)


def test_hadamard_transform_oracle():
    assert hadamard_transform([1, 1, 1, -1]) == [2, 2, 2, -2]
    assert hadamard_transform([5]) == [5]
    assert hadamard_transform([3, 7]) == [10, -4]
    with pytest.raises(ValueError):
        hadamard_transform([1, 2, 3])
    with pytest.raises(ValueError):
        hadamard_transform([])


def test_hadamard_transform_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="integers"):
        hadamard_transform([1.5, 2.5])
    assert hadamard_transform([np.uint8(3), np.int64(7)]) == [10, -4]
    assert hadamard_transform([True, False]) == [1, 1]


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=64))
def test_hadamard_involution(values):
    size = 1
    while size < len(values):
        size *= 2
    values = values + [0] * (size - len(values))
    twice = hadamard_transform(hadamard_transform(values))
    assert twice == [size * v for v in values]


def _hadamard_literal(values):
    return [
        sum(v * (-1) ** (x & y).bit_count() for x, v in enumerate(values))
        for y in range(len(values))
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_hadamard_transform_is_the_double_sum_at_every_length(n, monkeypatch):
    rng = random.Random(n)
    small = [rng.randrange(-100, 101) for _ in range(1 << n)]
    big = [rng.choice((-1, 1)) * ((1 << 62) + rng.getrandbits(40)) for _ in range(1 << n)]
    expected = [_hadamard_literal(small), _hadamard_literal(big)]

    def refuse(*args):
        raise AssertionError("hadamard_transform ran the pure-Python butterfly")

    monkeypatch.setattr(transforms, "_hadamard_in_place", refuse)
    got = [hadamard_transform(small), hadamard_transform(big)]
    assert got == expected
    assert all(type(v) is int for values in got for v in values)


def test_hadamard_big_integers_exact():
    # magnitudes way past int64 must stay exact (object-array route)
    values = [(-3) ** 41 + i for i in range(128)]
    twice = hadamard_transform(hadamard_transform(values))
    assert twice == [128 * v for v in values]


def test_moebius_oracles():
    assert moebius(AND).table == 0b1000  # x1x2 is its own normal form
    assert moebius(XOR).table == 0b0110
    assert moebius(BooleanFunction(2, 0b1111)).table == 0b0001


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moebius_involution_exhaustive(n):
    for table in range(1 << (1 << n)):
        f = BooleanFunction(n, table)
        assert moebius(moebius(f)) == f


@given(functions(12))
@settings(max_examples=150, deadline=None)
def test_moebius_involution_random(f):
    assert moebius(moebius(f)) == f


@pytest.mark.parametrize("n,r", [(2, 1), (4, 2), (6, 3)])
def test_packed_batch_moebius_matches_per_function(n, r):
    points = ball_points(n, r)
    rng = random.Random(n)
    candidates = [rng.getrandbits(len(points)) for _ in range(50)]
    truth = truth_rows_from_anf(n, points, unpack_rows(np.array(candidates, dtype=np.uint64), len(points)))
    for candidate, row in zip(candidates, truth):
        anf = sum(((candidate >> j) & 1) << p for j, p in enumerate(points))
        assert pack_bits(row) == moebius(BooleanFunction(n, anf)).table


def test_degree_oracles():
    assert degree(BooleanFunction(2, 0)) == 0
    assert degree(BooleanFunction(2, 0b1111)) == 0  # constants have degree 0
    assert degree(parse_bf("bf:2:a")) == 1  # x1
    assert degree(XOR) == 1
    assert degree(AND) == 2
    assert degree(parse_bf("bf:4:7888")) == 2
    assert degree(parse_bf("bf:4:6996")) == 1  # x1+x2+x3+x4


@given(functions(8))
@settings(max_examples=150)
def test_degree_top_coefficient_is_weight_parity(f):
    d = degree(f)
    assert 0 <= d <= f.n
    assert (d == f.n) == (weight(f) % 2 == 1)


def test_degree_space_log2():
    assert degree_space_log2(4, 2) == 11
    assert degree_space_log2(2, 1) == 3
    assert degree_space_log2(3, 3) == 8
    assert degree_space_log2(3, 0) == 1
    with pytest.raises(ValueError):
        degree_space_log2(3, 4)
    with pytest.raises(ValueError):
        degree_space_log2(3, -1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_census_matches_space_size(n):
    by_degree = [0] * (n + 1)
    for table in range(1 << (1 << n)):
        by_degree[degree(BooleanFunction(n, table))] += 1
    running = 0
    for d in range(n + 1):
        running += by_degree[d]
        assert running == 1 << degree_space_log2(n, d)


def test_convolve_pm_oracles():
    # delta picks out the sign vector itself
    assert convolve_pm(AND, [1, 0, 0, 0]) == [1, 1, 1, -1]
    # all-ones gives the constant sum of signs
    assert convolve_pm(AND, [1, 1, 1, 1]) == [2, 2, 2, 2]
    assert convolve_pm(AND, [1, 0, 1, 0]) == [2, 0, 2, 0]
    with pytest.raises(ValueError):
        convolve_pm(AND, [1, 0])


def test_convolve_pm_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="integers"):
        convolve_pm(BooleanFunction(1, 0), [0.5, 1.7])
    one = BooleanFunction(1, 0)
    assert convolve_pm(one, [np.int64(2), True]) == convolve_pm(one, [2, 1]) == [3, 3]


def test_convolve_pm_big_values_match_scaled_small():
    rng = random.Random(3)
    f = random_function(5, rng)
    g = [rng.randrange(-9, 10) for _ in range(32)]
    small = convolve_pm(f, g)
    scale = 1 << 80  # forces the arbitrary-precision route
    big = convolve_pm(f, [scale * v for v in g])
    assert big == [scale * v for v in small]


def _convolve_literal(f, g):
    size = 1 << f.n
    return [sum((-1) ** f.bit(x) * g[z ^ x] for x in range(size)) for z in range(size)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_convolve_pm_matches_the_double_sum(n):
    rng = random.Random(n)
    size = 1 << n
    sparse = [0] * size
    for w in rng.sample(range(size), min(3, size)):
        sparse[w] = rng.choice([-7, -2, 3, 5])
    vectors = [
        [rng.randrange(-9, 10) for _ in range(size)],
        sparse,
        [0] * size,
    ] + [
        unpack_bits(face_indicator(FaceMask(n, mask)), size).tolist()
        for mask in (0, 1, size - 1, rng.randrange(size))
    ]
    for _ in range(3):
        f = random_function(n, rng)
        for g in vectors:
            assert convolve_pm(f, g) == _convolve_literal(f, g)


def test_convolve_pm_never_reaches_the_butterfly(monkeypatch):
    def refuse(*args):
        raise AssertionError("convolve_pm called the transform")

    monkeypatch.setattr(transforms, "walsh_rows", refuse)
    monkeypatch.setattr(transforms, "_hadamard_in_place", refuse)
    rng = random.Random(5)
    for n in (2, _NUMPY_CUTOVER, 9):
        f = random_function(n, rng)
        g = [rng.randrange(-3, 4) for _ in range(1 << n)]
        assert convolve_pm(f, g) == _convolve_literal(f, g)
        big = convolve_pm(f, [v << 70 for v in g])
        assert big == [v << 70 for v in _convolve_literal(f, g)]


def test_restriction_identity_fails_when_the_direct_sum_is_off(monkeypatch):
    real = transforms.convolve_pm

    def off_by_one(f, g):
        out = real(f, g)
        out[len(out) // 2] += 1
        return out

    monkeypatch.setattr(transforms, "convolve_pm", off_by_one)
    assert not check_restriction_identity(AND, FaceMask(2, 0b01))
    assert not check_restriction_identity(random_function(8, 3), FaceMask(8, 0x5A))


def test_restriction_identity_fails_on_an_indivisible_transform(monkeypatch):
    real = transforms.hadamard_transform
    calls = []

    def indivisible(values):
        # the transform of the masked spectrum gains 1, which 2^dim (dim >= 1) cannot divide
        out = real(values)
        calls.append(None)
        out[0] += 1
        return out

    monkeypatch.setattr(transforms, "hadamard_transform", indivisible)
    assert not check_restriction_identity(AND, FaceMask(2, 0b01))
    assert not check_restriction_identity(random_function(8, 3), FaceMask(8, 0x5A))
    assert len(calls) == 2


def test_restriction_identity_runs_one_fast_and_one_hadamard_transform(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(transforms, name)

        def wrapper(arg):
            calls.append(name)
            return real(arg)

        return wrapper

    for name in ("walsh_fast", "hadamard_transform"):
        monkeypatch.setattr(transforms, name, counting(name))
    for f, mask in ((AND, FaceMask(2, 0b01)), (random_function(8, 3), FaceMask(8, 0x5A))):
        calls.clear()
        assert check_restriction_identity(f, mask)
        assert sorted(calls) == ["hadamard_transform", "walsh_fast"]


def test_restriction_identity_oracle():
    assert check_restriction_identity(AND, FaceMask(2, 0b01))
    assert check_restriction_identity(AND, FaceMask(2, 0b11))
    assert check_restriction_identity(XOR, FaceMask(2, 0))


@given(st.integers(1, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_restriction_identity_random(n, data):
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    mask = FaceMask(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert check_restriction_identity(f, mask)


def test_restriction_identity_arity_mismatch():
    with pytest.raises(ValueError):
        check_restriction_identity(AND, FaceMask(3, 1))
