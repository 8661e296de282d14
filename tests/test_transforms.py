"""Walsh-Hadamard, normal form, degree, and the convolution identity."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentkit import core, transforms
from bentkit.core import BooleanFunction, ResourceCapError, parse_bf, random_function, weight
from bentkit.core import pack_bits, unpack_bits, unpack_rows
from bentkit.geometry import _face_indicator, ball_points, ball_size
from bentkit.transforms import (
    check_restriction_identity,
    convolve_pm,
    degree,
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


@pytest.mark.parametrize("n", range(5, 13))
def test_fast_matches_naive_across_cutover(n):
    # both sides of check_lemma1's switch from walsh_naive to walsh_fast at
    # n = 7; n = 11 and 12 are past the random strategy's arities and up to
    # the oracle's budget
    rng = random.Random(n)
    for _ in range(20):
        f = random_function(n, rng)
        assert walsh_fast(f) == walsh_naive(f)


@pytest.mark.parametrize("n", range(1, 11))
def test_walsh_by_arity_takes_the_defining_sum_up_to_n7(n, monkeypatch):
    f = random_function(n, n)
    expected = walsh_fast(f)

    def refuse(*args):
        raise AssertionError("_walsh_by_arity took the other route")

    monkeypatch.setattr(transforms, "walsh_rows" if n <= 7 else "walsh_naive", refuse)
    assert transforms._walsh_by_arity(f) == expected


@pytest.mark.parametrize("n", range(1, 13))
def test_spectra_are_lists_of_python_ints(n):
    f = random_function(n, n)
    for spectrum in (walsh_fast(f), walsh_naive(f)):
        assert type(spectrum) is list and len(spectrum) == f.size
        assert all(type(v) is int for v in spectrum)


def test_naive_call_at_the_largest_arity_peaks_under_a_megabyte():
    # no warm-up call: between calls the oracle keeps only its packed character
    # tables, transforms._characters(n) (172 KB at n=12), which this call
    # builds; besides them it holds its 2^12 values and one slice of 256
    # characters against the table (128 KB), where a 4096 x 4096 matrix of the
    # characters would take 16 MB even in int8
    f = random_function(12, random.Random(12))
    tracemalloc.start()
    try:
        walsh_naive(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_naive_cap():
    with pytest.raises(ResourceCapError, match=r"needs 2\^26 terms of the defining sum .* n=13"):
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


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
def test_integer_arrays_transform_like_lists(dtype):
    rng = random.Random(7)
    f = random_function(3, rng)
    info = np.iinfo(dtype)
    small = [rng.randrange(max(int(info.min), -100), 101) for _ in range(8)]
    cases = [small, [int(info.min), *small[1:]], [int(info.max), *small[1:]]]  # -2^63, 2^64 - 1
    if info.bits == 64:
        # length 8 keeps int64 while the peak is below 2^62 / 8, then takes the object route
        cases += [[(1 << 59) - 1, *small[1:]], [1 << 59, *small[1:]]]
    for values in cases:
        array = np.array(values, dtype=dtype)
        for transform in (hadamard_transform, lambda g: convolve_pm(f, g)):
            got = transform(array)
            assert got == transform(values)
            assert all(type(v) is int for v in got)
        assert array.tolist() == values  # never transformed in place
    for transform in (hadamard_transform, lambda g: convolve_pm(f, g)):
        with pytest.raises(ValueError, match="integers"):
            transform(np.array(small, dtype=np.float64))


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
def test_hadamard_transform_is_the_double_sum_at_every_length(n):
    rng = random.Random(n)
    small = [rng.randrange(-100, 101) for _ in range(1 << n)]
    big = [rng.choice((-1, 1)) * ((1 << 62) + rng.getrandbits(40)) for _ in range(1 << n)]
    expected = [_hadamard_literal(small), _hadamard_literal(big)]
    got = [hadamard_transform(small), hadamard_transform(big)]
    assert got == expected
    assert all(type(v) is int for values in got for v in values)


def _layouts(block):
    # the same rows in C order, in Fortran order, as a transposed view of a C
    # array and as a strided view of every other column of a wider one
    wide = np.repeat(block, 2, axis=1)
    return [block, np.asfortranarray(block), np.ascontiguousarray(block.T).T, wide[:, ::2]]


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64])
@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_block_hadamard_transform_matches_its_rows(n, dtype):
    rng = np.random.default_rng(n)
    info = np.iinfo(dtype)
    small = rng.integers(max(int(info.min), -100), 101, size=(5, 1 << n), dtype=dtype)
    blocks = [small]
    if info.bits == 64:
        # one row of 2^62 (or 2^64 - 1) sends the whole block to exact ints:
        # its W(0) passes 2^63 from n = 1, where int64 would wrap
        wide = small.copy()
        wide[2] = 1 << 62 if dtype is np.int64 else info.max
        blocks.append(wide)
    for block in blocks:
        expected = [_hadamard_literal(row.tolist()) for row in block]
        assert [hadamard_transform(row) for row in block] == expected
        for layout in _layouts(block):
            got = hadamard_transform(layout)
            assert got == expected
            assert all(type(v) is int for row in got for v in row)
            assert (layout == block).all()  # never transformed in place
    assert hadamard_transform(np.zeros((0, 4), dtype=dtype)) == []


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_block_hadamard_transform_reads_every_memory_order(dtype):
    block = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [3, 1, 4, 1]], dtype=dtype)
    for layout in _layouts(block):
        assert hadamard_transform(layout) == [[1, 1, 1, 1], [1, -1, 1, -1], [9, 5, -1, -1]]


@pytest.mark.parametrize("rows", [0, 1, 2, 5, 64])
@pytest.mark.parametrize("n", range(1, 11))
def test_walsh_truth_rows_runs_one_points_major_butterfly(n, rows, monkeypatch):
    calls = []
    real = transforms.walsh_rows

    def recording(a):
        calls.append((a.shape, a.flags.c_contiguous))
        return real(a)

    monkeypatch.setattr(transforms, "walsh_rows", recording)
    rng = random.Random(n * 100 + rows)
    functions = [random_function(n, rng) for _ in range(rows)]
    truth = unpack_rows([f.table for f in functions], 1 << n)
    expected = [walsh_naive(f) for f in functions]
    for block in (truth, np.asfortranarray(truth)):
        spectra = transforms.walsh_truth_rows(block)
        assert spectra.shape == (rows, 1 << n) and spectra.dtype == np.int32
        assert spectra.flags.c_contiguous
        assert spectra.tolist() == expected
    assert calls == [((1 << n, rows), True)] * 2


def test_walsh_rows_refuses_an_array_it_cannot_transform_in_place():
    block = np.arange(24, dtype=np.int64).reshape(8, 3)
    for other in (np.asfortranarray(block), block[::2], block.T):
        with pytest.raises(ValueError, match="C-contiguous"):
            transforms.walsh_rows(other)
    signs = np.array([[1, -1], [1, 1]], dtype=np.int64)  # two points-major rows
    assert transforms.walsh_rows(signs) is signs
    assert signs.tolist() == [[2, 0], [0, -2]]


def test_block_hadamard_transform_rejects_bad_blocks():
    with pytest.raises(ValueError, match="power of two"):
        hadamard_transform(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="integers"):
        hadamard_transform(np.zeros((2, 4)))


def test_block_hadamard_transform_takes_exact_int_rows():
    # an object block is the one way to pass rows with entries past int64
    block = np.array([[1 << 70, 0], [3, 4]], dtype=object)
    assert hadamard_transform(block) == [[1 << 70, 1 << 70], [7, -1]]
    assert hadamard_transform(np.asfortranarray(block)) == [[1 << 70, 1 << 70], [7, -1]]
    assert hadamard_transform(np.array([[1, 2], [3, 4]], dtype=object)) == [[3, -1], [7, -1]]
    with pytest.raises(ValueError, match="integers"):
        hadamard_transform(np.array([[1, 2.0], [3, 4]], dtype=object))


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_census_matches_space_size(n):
    by_degree = [0] * (n + 1)
    for table in range(1 << (1 << n)):
        by_degree[degree(BooleanFunction(n, table))] += 1
    running = 0
    for d in range(n + 1):
        running += by_degree[d]
        assert running == 1 << ball_size(n, d)


def test_convolve_pm_oracles():
    # delta picks out the sign vector itself
    assert convolve_pm(AND, [1, 0, 0, 0]) == [1, 1, 1, -1]
    # all-ones gives the constant sum of signs
    assert convolve_pm(AND, [1, 1, 1, 1]) == [2, 2, 2, 2]
    assert convolve_pm(AND, [1, 0, 1, 0]) == [2, 0, 2, 0]
    with pytest.raises(ValueError):
        convolve_pm(AND, [1, 0])


def test_convolve_pm_caps_support_times_table_points():
    zero = BooleanFunction(16, 0)
    needs = r"needs 2\^32 truth-table points for 65536 nonzero entries of g at n=16"
    with pytest.raises(ResourceCapError, match=needs):
        convolve_pm(zero, [1] * (1 << 16))
    # 256 support points at n=16 are exactly 2^24 points, admitted
    assert convolve_pm(zero, [1] * 256 + [0] * ((1 << 16) - 256)) == [256] * (1 << 16)


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
        unpack_bits(_face_indicator(n, mask), size).tolist()
        for mask in (0, 1, size - 1, rng.randrange(size))
    ]
    for _ in range(3):
        f = random_function(n, rng)
        for g in vectors:
            assert convolve_pm(f, g) == _convolve_literal(f, g)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_convolve_pm_gathers_match_the_double_sum_at_chunk_edges(monkeypatch, n):
    # slices of three support points: supports of 1..7 points end a slice
    # early, exactly at its edge, and one past it
    monkeypatch.setattr(core, "CHUNK_POINTS", 3 << n)
    rng = random.Random(n)
    size = 1 << n
    for support in range(1, min(7, size) + 1):
        g = [0] * size
        for w in rng.sample(range(size), support):
            g[w] = rng.choice([-7, -2, 3, 5])
        f = random_function(n, rng)
        assert convolve_pm(f, g) == _convolve_literal(f, g)
        assert convolve_pm(f, [v << 70 for v in g]) == [v << 70 for v in _convolve_literal(f, g)]
    # a chunk below one row still gathers one support point at a time
    monkeypatch.setattr(core, "CHUNK_POINTS", 1)
    g = [rng.randrange(-9, 10) for _ in range(size)]
    assert convolve_pm(f, g) == _convolve_literal(f, g)


def _walsh_literal(f, ys=None):
    return [
        sum((-1) ** (f.bit(x) + (x & y).bit_count()) for x in range(f.size))
        for y in (range(f.size) if ys is None else ys)
    ]


@pytest.fixture
def slice_log2(monkeypatch):
    """Sets transforms._SLICE_LOG2, emptying the character cache built for it."""

    def set_slice(log2):
        monkeypatch.setattr(transforms, "_SLICE_LOG2", log2)
        transforms._characters.cache_clear()

    yield set_slice
    transforms._characters.cache_clear()


@pytest.mark.parametrize("slice_bits", [8, 6], ids=["slice-256", "slice-64"])
@pytest.mark.parametrize("n", range(1, 13))
def test_naive_block_is_the_defining_sum_at_every_arity(n, slice_bits, slice_log2):
    # 2^6 characters a slice run the high-part XOR from n = 7 on, not only from n = 9
    slice_log2(slice_bits)
    rng = random.Random(n)
    functions = [random_function(n, rng) for _ in range(3)]
    block = transforms._naive_spectra(n, [f.table for f in functions])
    assert block.shape == (3, 1 << n) and block.dtype == np.int64
    assert block.tolist() == [walsh_fast(f) for f in functions]
    # the literal double sum at every y up to n = 7; above, at both edges of
    # the first slice, at the last y and at eight random ones
    if n <= 7:
        ys = list(range(1 << n))
    else:
        edges = {0, (1 << slice_bits) - 1, 1 << slice_bits, (1 << n) - 1}
        ys = sorted({y for y in edges if y < 1 << n} | set(rng.sample(range(1 << n), 8)))
    for f, row in zip(functions, block.tolist()):
        assert [row[y] for y in ys] == _walsh_literal(f, ys)


def test_naive_block_never_reaches_the_butterfly(monkeypatch, slice_log2):
    rng = random.Random(9)
    blocks = {n: [random_function(n, rng) for _ in range(4)] for n in (1, 3, 6, 7, 9, 12)}
    expected = {n: [walsh_fast(f) for f in functions] for n, functions in blocks.items()}

    def refuse(*args):
        raise AssertionError("the naive oracle ran the butterfly")

    for name in ("walsh_rows", "walsh_truth_rows"):
        monkeypatch.setattr(transforms, name, refuse)
    slice_log2(transforms._SLICE_LOG2)  # the character tables are built under the patch too
    for n, functions in blocks.items():
        assert transforms._naive_spectra(n, [f.table for f in functions]).tolist() == expected[n]


@pytest.mark.parametrize("oracle", ["convolve_pm", "walsh_naive"])
def test_naive_oracles_never_reach_the_butterfly(monkeypatch, oracle):
    def refuse(*args):
        raise AssertionError(f"{oracle} called the transform")

    for name in ("walsh_rows", "walsh_truth_rows", "hadamard_transform"):
        monkeypatch.setattr(transforms, name, refuse)
    rng = random.Random(5)
    for n in (2, 7, 9):
        f = random_function(n, rng)
        if oracle == "walsh_naive":
            assert walsh_naive(f) == _walsh_literal(f)
            continue
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
    assert check_restriction_identity([(AND, 0b01)]) == [False]
    assert check_restriction_identity([(random_function(8, 3), 0x5A)]) == [False]


def test_restriction_identity_fails_on_an_indivisible_transform(monkeypatch):
    real = transforms.hadamard_transform
    calls = []

    def indivisible(values):
        # the transform of the masked spectra gains 1 in its first row, which
        # 2^dim (dim >= 1) cannot divide
        out = real(values)
        calls.append(None)
        out[0][0] += 1
        return out

    monkeypatch.setattr(transforms, "hadamard_transform", indivisible)
    assert check_restriction_identity([(AND, 0b01)]) == [False]
    assert check_restriction_identity([(random_function(8, 3), 0x5A)]) == [False]
    assert len(calls) == 2


def test_restriction_identity_runs_one_fast_and_one_hadamard_transform(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(transforms, name)

        def wrapper(arg):
            calls.append(name)
            return real(arg)

        return wrapper

    for name in ("walsh_truth_rows", "hadamard_transform"):
        monkeypatch.setattr(transforms, name, counting(name))
    rng = random.Random(8)
    block = [(random_function(8, rng), rng.randrange(256)) for _ in range(5)]
    for pairs in ([(AND, 0b01)], [(random_function(8, 3), 0x5A)], block):
        calls.clear()
        assert check_restriction_identity(pairs) == [True] * len(pairs)
        assert sorted(calls) == ["hadamard_transform", "walsh_truth_rows"]


@pytest.mark.parametrize("n", range(1, 11))
def test_block_restriction_identity_matches_per_pair_calls(monkeypatch, n):
    rng = random.Random(n)
    functions = [random_function(n, rng) for _ in range(6)]
    masks = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(4)]
    pairs = list(zip(functions, masks))
    per_pair = [check_restriction_identity([pair])[0] for pair in pairs]
    assert check_restriction_identity(pairs) == per_pair == [True] * 6
    # a direct sum off for one function fails its pair alone, in its place
    real = transforms.convolve_pm

    def off_for_the_third(f, g):
        out = real(f, g)
        out[0] += f is functions[2]
        return out

    monkeypatch.setattr(transforms, "convolve_pm", off_for_the_third)
    per_pair = [check_restriction_identity([pair])[0] for pair in pairs]
    assert check_restriction_identity(pairs) == per_pair
    assert per_pair == [True, True, False, True, True, True]


def test_block_restriction_identity_rejects_mixed_blocks():
    assert check_restriction_identity([]) == []
    with pytest.raises(ValueError, match="arity mismatch"):
        check_restriction_identity([(AND, 0), (random_function(3, 1), 0)])
    with pytest.raises(ValueError, match="out of range"):
        check_restriction_identity([(AND, 0), (XOR, 0b100)])


def test_restriction_identity_oracle():
    assert check_restriction_identity([(AND, 0b01), (AND, 0b11), (XOR, 0)]) == [True] * 3


@given(st.integers(1, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_restriction_identity_random(n, data):
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    assert check_restriction_identity([(f, mask)]) == [True]


def test_restriction_identity_arity_mismatch():
    with pytest.raises(ValueError):
        # a face of n=3 is out of range for a function of n=2
        check_restriction_identity([(AND, 0b100)])
