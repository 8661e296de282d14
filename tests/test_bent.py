"""Bent checks, duals, affine maps, and 2-flat statistics."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentkit import bent, core, transforms
from bentkit.bent import (
    apply_affine,
    bent_rows,
    dual_bent,
    is_bent,
    matrix_rank,
    random_invertible,
    two_flat_sum_distribution,
    two_flats,
)
from bentkit.census import enumerate_bent_by_degree
from bentkit.core import BooleanFunction, ResourceCapError, parse_bf, random_function, weight
from bentkit.core import pack_bits, unpack_bits
from bentkit.geometry import gaussian_binomial
from bentkit.transforms import walsh_fast, walsh_naive

AND = parse_bf("bf:2:8")
QUAD = parse_bf("bf:4:7888")  # x1x2 + x3x4


def test_is_bent_oracles():
    assert is_bent(AND)
    assert is_bent(QUAD)
    assert not is_bent(parse_bf("bf:2:6"))
    assert not is_bent(BooleanFunction(2, 0))
    assert not is_bent(BooleanFunction(3, 0b10000000))  # odd arity is never bent


def _naive_bent(f):
    return all(abs(v) == 1 << (f.n // 2) for v in walsh_naive(f)) and f.n % 2 == 0


def _rows(n, tables):
    return np.array([unpack_bits(t, 1 << n) for t in tables]).reshape(len(tables), 1 << n)


def _maiorana_mcfarland(n, rng):
    """f(x, y) = <x, pi(y)> + g(y), with x the low n/2 index bits and y the
    high, returned with the permutation pi and the bits g as arrays."""
    h = n // 2
    pi = np.array(rng.sample(range(1 << h), 1 << h))
    g = np.array([rng.getrandbits(1) for _ in range(1 << h)])
    idx = np.arange(1 << n)
    x, y = idx & ((1 << h) - 1), idx >> h
    return BooleanFunction(n, pack_bits((np.bitwise_count(x & pi[y]) & 1) ^ g[y])), pi, g


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bent_rows_matches_the_naive_criterion_on_every_table(n):
    tables = range(1 << (1 << n))
    mask = bent_rows(_rows(n, tables), n)
    assert mask.tolist() == [_naive_bent(BooleanFunction(n, t)) for t in tables]
    assert mask.any() == (n % 2 == 0)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_bent_rows_matches_the_naive_criterion_on_random_tables(n):
    rng = random.Random(n)
    functions = [random_function(n, rng) for _ in range(20)]
    if n % 2 == 0:
        functions.append(_maiorana_mcfarland(n, rng)[0])
    mask = bent_rows(_rows(n, [f.table for f in functions]), n)
    assert mask.tolist() == [_naive_bent(f) for f in functions]
    assert mask[-1] == (n % 2 == 0)


@pytest.mark.parametrize("n", [12, 14])
def test_is_bent_on_maiorana_mcfarland_and_one_flip(n):
    rng = random.Random(n)
    f = _maiorana_mcfarland(n, rng)[0]
    assert is_bent(f)
    # one flipped bit moves every Walsh value by 2
    assert not is_bent(BooleanFunction(n, f.table ^ (1 << rng.randrange(f.size))))


def test_bent_test_never_builds_a_spectrum_tuple(monkeypatch):
    def refuse(f):
        raise AssertionError("walsh_fast called")

    # bent would bind the name on import, so patch it there as well
    for module in (transforms, bent):
        monkeypatch.setattr(module, "walsh_fast", refuse, raising=False)
    assert is_bent(QUAD) and not is_bent(parse_bf("bf:4:7889"))
    assert is_bent(_maiorana_mcfarland(8, random.Random(8))[0])
    assert dual_bent(QUAD) == QUAD


def test_bent_iff_odd_weight_at_n2():
    for table in range(16):
        f = BooleanFunction(2, table)
        assert is_bent(f) == (weight(f) % 2 == 1)


def test_dual_oracles():
    assert dual_bent(QUAD) == QUAD
    assert dual_bent(AND) == AND
    with pytest.raises(ValueError):
        dual_bent(parse_bf("bf:2:6"))
    with pytest.raises(ValueError):
        dual_bent(BooleanFunction(3, 0))


def test_dual_runs_one_butterfly_per_call(monkeypatch):
    calls = []
    real = transforms.walsh_rows

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(transforms, "walsh_rows", counting)
    assert dual_bent(QUAD) == QUAD
    assert len(calls) == 1
    with pytest.raises(ValueError, match="not bent"):
        dual_bent(parse_bf("bf:4:7889"))
    assert len(calls) == 2


def test_single_function_entry_points_run_one_spectrum(monkeypatch):
    calls = []
    real = transforms._spectrum

    def counting(f):
        calls.append(f)
        return real(f)

    # bent binds the name on import, so patch it there as well
    for module in (transforms, bent):
        monkeypatch.setattr(module, "_spectrum", counting, raising=False)
    for run in (transforms.walsh_fast, is_bent, dual_bent):
        calls.clear()
        run(QUAD)
        assert calls == [QUAD], run.__name__


def test_bent_images_refuse_past_the_work_budget_before_drawing_a_map(monkeypatch):
    def refuse(n, rng, count):
        raise AssertionError("a map was drawn")

    monkeypatch.setattr(bent, "random_invertible", refuse)
    # (2^20 + 1) x 2^4 points round up to 2^25
    with pytest.raises(ResourceCapError, match=r"needs 2\^25 truth-table points .* n=4"):
        next(bent._bent_images([QUAD], (1 << 20) + 1, random.Random(1)))
    # within the budget the patched name is what draws the maps
    with pytest.raises(AssertionError, match="a map was drawn"):
        next(bent._bent_images([QUAD], 1, random.Random(1)))


def test_dual_involution_n2():
    for table in range(16):
        f = BooleanFunction(2, table)
        if is_bent(f):
            d = dual_bent(f)
            assert is_bent(d)
            assert dual_bent(d) == f


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_dual_of_maiorana_mcfarland_matches_the_closed_form(n):
    # the dual of <x, pi(y)> + g(y) is <b, pi^-1(a)> + g(pi^-1(a)) at the
    # point with low half a and high half b
    f, pi, g = _maiorana_mcfarland(n, random.Random(n))
    h = n // 2
    inverse = np.argsort(pi)
    idx = np.arange(1 << n)
    a, b = idx & ((1 << h) - 1), idx >> h
    closed = BooleanFunction(n, pack_bits((np.bitwise_count(b & inverse[a]) & 1) ^ g[inverse[a]]))
    dual = dual_bent(f)
    assert dual == closed
    assert dual_bent(dual) == f


def test_dual_sign_rule():
    # dual bit is 1 exactly where the spectrum is negative
    target = 1 << (QUAD.n // 2)
    spectrum = walsh_fast(QUAD)
    d = dual_bent(QUAD)
    for y in range(QUAD.size):
        assert spectrum[y] == (-target if d.bit(y) else target)


def test_matrix_rank():
    assert matrix_rank([]) == 0
    assert matrix_rank([0]) == 0
    assert matrix_rank([1, 2, 4]) == 3
    assert matrix_rank([6, 5, 3]) == 2  # 3 = 6 ^ 5
    assert matrix_rank([7, 7]) == 1
    assert matrix_rank([3, 5, 6, 7]) == 3


def _image(f, row):
    """The image of f under the one map row [*cols, translation,
    functional, constant], as a function."""
    return BooleanFunction(f.n, pack_bits(apply_affine([f], np.array([row]))[0]))


IDENT2 = [1, 2, 0, 0, 0]  # the identity map at n=2


def test_apply_affine_identity_and_translation():
    assert apply_affine([AND], np.array([IDENT2]))[0].tolist() == AND.bits()
    x1 = parse_bf("bf:2:a")
    shift = [1, 2, 1, 0, 0]
    assert _image(x1, shift) == parse_bf("bf:2:5")  # x1 + 1
    flip = [1, 2, 0, 0, 1]
    assert _image(x1, flip) == parse_bf("bf:2:5")
    add_x2 = [1, 2, 0, 2, 0]
    assert _image(x1, add_x2) == parse_bf("bf:2:6")  # x1 + x2
    with pytest.raises(ValueError, match="got none"):
        apply_affine([], np.empty((0, 5), dtype=np.int64))


def test_apply_affine_swap():
    swap = [2, 1, 0, 0, 0]  # exchanges the two inputs
    x1 = parse_bf("bf:2:a")
    x2 = parse_bf("bf:2:c")
    assert _image(x1, swap) == x2
    assert _image(AND, swap) == AND


@pytest.mark.parametrize("n", [1, 2, 4, 6, 8, 10])
def test_apply_affine_matches_pointwise_definition(n):
    # a function of its own on each row checks the per-row offsets of the gather
    rng = random.Random(n)
    functions = [random_function(n, rng) for _ in range(20)]
    block = random_invertible(n, rng, 20)
    rows = apply_affine(functions, block)
    assert rows.shape == (20, 1 << n) and rows.dtype == np.uint8
    for f, fields, row in zip(functions, block.tolist(), rows):
        *cols, translation, functional, constant = fields
        expected = []
        for x in range(1 << n):
            y = translation
            for i, col in enumerate(cols):
                if (x >> i) & 1:
                    y ^= col
            expected.append(f.bit(y) ^ ((functional & x).bit_count() & 1) ^ constant)
        assert row.tolist() == expected


def test_apply_affine_arity_mismatch():
    with pytest.raises(ValueError, match="^arity mismatch: function n=2, map n=3$"):
        apply_affine([AND], np.array([[1, 2, 4, 0, 0, 0]]))
    # one function of the wrong arity fails the whole batch
    with pytest.raises(ValueError, match="function n=3"):
        apply_affine([AND, random_function(3, 1), AND], np.array([IDENT2] * 3))


@given(st.integers(1, 6), st.integers(0, 2**32), st.data())
@settings(max_examples=100)
def test_linear_part_permutes_spectrum(n, seed, data):
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    cols = random_invertible(n, seed, 1)[0, :n].tolist()
    image = _image(f, cols + [0, 0, 0])
    assert sorted(walsh_fast(image)) == sorted(walsh_fast(f))


@given(st.integers(1, 6), st.integers(0, 2**32), st.data())
@settings(max_examples=100)
def test_affine_preserves_absolute_spectrum(n, seed, data):
    # signed values are not preserved in general: translating x1 by e1
    # negates its whole spectrum
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    image = _image(f, random_invertible(n, seed, 1)[0])
    assert sorted(abs(v) for v in walsh_fast(image)) == sorted(
        abs(v) for v in walsh_fast(f)
    )


def test_translation_flips_signed_spectrum():
    x1 = parse_bf("bf:2:a")
    shifted = _image(x1, [1, 2, 1, 0, 0])
    assert walsh_fast(x1) == [0, 4, 0, 0]
    assert walsh_fast(shifted) == [0, -4, 0, 0]


def test_random_invertible_determinism():
    assert random_invertible(5, 42, 1).tolist() == random_invertible(5, 42, 1).tolist()
    rng = random.Random(7)
    maps = [tuple(random_invertible(4, rng, 1)[0].tolist()) for _ in range(50)]
    assert all(matrix_rank(t[:4]) == 4 for t in maps)
    assert len(set(maps)) > 1


def _reference_maps(n, rng, count):
    """The rejection loop the block draw replaces, one map at a time: per
    try, getrandbits(n) for each column and a rank test; after acceptance,
    getrandbits(n), getrandbits(n) and getrandbits(1)."""
    rows = []
    for _ in range(count):
        while True:
            cols = [rng.getrandbits(n) for _ in range(n)]
            if matrix_rank(cols) == n:
                break
        rows.append([*cols, rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1)])
    return rows


class _RecordingRandom(random.Random):
    """A Random that records the width of every getrandbits call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


def test_getrandbits_reads_whole_32_bit_words():
    # the block draw reads getrandbits(k <= 32) as the top k bits of one
    # Mersenne Twister word and getrandbits(32 m) as m words, least
    # significant first; a Python that changes either fails here by name
    for k in range(1, 33):
        one, word = random.Random(k), random.Random(k)
        assert one.getrandbits(k) == word.getrandbits(32) >> (32 - k)
        assert one.getstate() == word.getstate()
    for m in (1, 2, 7, 64):
        block, words = random.Random(m), random.Random(m)
        assert block.getrandbits(32 * m) == sum(words.getrandbits(32) << (32 * i) for i in range(m))
        assert block.getstate() == words.getstate()


def _chunk(n):
    return max(1, core.CHUNK_POINTS >> n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 26])
@pytest.mark.parametrize("count", ["1", "2", "chunk", "chunk+1"])
def test_block_draw_is_the_rejection_loop_stream(n, count):
    count = {"1": 1, "2": 2, "chunk": _chunk(n), "chunk+1": _chunk(n) + 1}[count]
    block_rng, loop_rng = random.Random(n * 1000 + count), random.Random(n * 1000 + count)
    block = random_invertible(n, block_rng, count)
    assert block.dtype == np.int64 and block.shape == (count, n + 3)
    assert block.tolist() == _reference_maps(n, loop_rng, count)
    assert block_rng.getstate() == loop_rng.getstate()


@pytest.mark.parametrize("n", [4, 8, 16, 26])
def test_block_draw_that_refills_keeps_the_stream(n):
    # the first block of words holds more than the maps read on average;
    # search for a seed whose two maps read past it, so a second block is drawn
    for seed in range(5000):
        rng = _RecordingRandom(seed)
        block = random_invertible(n, rng, 2)
        if sum(k > 32 for k in rng.widths) > 2:  # two blocks, then the advance
            break
    else:
        pytest.fail("no seed below 5000 made the draw refill")
    loop_rng = random.Random(seed)
    assert block.tolist() == _reference_maps(n, loop_rng, 2)
    assert rng.getstate() == loop_rng.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 26])
def test_block_draw_in_blocks_of_one_try_keeps_the_stream(monkeypatch, n):
    # blocks of n + 3 words make nearly every try a refill
    monkeypatch.setattr(bent, "_words_to_draw", lambda n, maps: n + 3)
    for count in (1, 2, _chunk(n) + 1):
        rng, loop_rng = _RecordingRandom(count), random.Random(count)
        block = random_invertible(n, rng, count)
        assert sum(k > 32 for k in rng.widths) > count
        assert block.tolist() == _reference_maps(n, loop_rng, count)
        assert rng.getstate() == loop_rng.getstate()


@pytest.mark.parametrize("n", [1, 4, 8, 26])
def test_one_map_is_the_first_row_of_the_block(n):
    # one map at a time reads the maps a longer draw reads, in order
    one_rng, block_rng = random.Random(n), random.Random(n)
    one = random_invertible(n, one_rng, 1)
    block = random_invertible(n, block_rng, _chunk(n) + 1)
    assert one.shape == (1, n + 3) and one.tolist() == block[:1].tolist()
    assert random_invertible(n, one_rng, 1).tolist() == block[1:2].tolist()


def test_block_draw_count_edges():
    rng = random.Random(3)
    state = rng.getstate()
    empty = random_invertible(4, rng, 0)
    assert empty.shape == (0, 7) and empty.dtype == np.int64
    assert rng.getstate() == state  # no word read
    for bad in (True, 1.0, "2"):
        with pytest.raises(ValueError, match="count must be an int"):
            random_invertible(4, rng, bad)
    with pytest.raises(ValueError, match=">= 0"):
        random_invertible(4, rng, -1)
    assert rng.getstate() == state


def test_full_rank_matches_matrix_rank_on_every_4x4_matrix():
    idx = np.arange(1 << 16)
    cols = np.array([(idx >> (4 * j)) & 15 for j in range(4)])
    flags = bent._full_rank(cols.copy())
    expected = [matrix_rank([(m >> (4 * j)) & 15 for j in range(4)]) == 4 for m in range(1 << 16)]
    assert flags.tolist() == expected
    assert sum(expected) == 20160  # |GL(4, 2)|


def test_full_rank_matches_matrix_rank_on_random_26x26_matrices():
    rng = random.Random(26)
    matrices = [[rng.getrandbits(26) for _ in range(26)] for _ in range(300)]
    # dependent on purpose: a repeated column, and a column the XOR of two others
    matrices += [m[:25] + [m[3]] for m in matrices[:20]]
    matrices += [m[:25] + [m[0] ^ m[7]] for m in matrices[:20]]
    flags = bent._full_rank(np.array(matrices, dtype=np.int64).T.copy())
    expected = [matrix_rank(m) == 26 for m in matrices]
    assert flags.tolist() == expected
    assert 0 < sum(expected) < 300


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_apply_affine_on_a_block_matches_the_maps_one_by_one(n):
    rng = random.Random(n)
    block = random_invertible(n, rng, 30)
    functions = [random_function(n, rng) for _ in range(30)]
    one_by_one = [apply_affine([g], block[i : i + 1])[0].tolist() for i, g in enumerate(functions)]
    # one function per row gathers each image from its own table
    assert apply_affine(functions, block).tolist() == one_by_one
    assert apply_affine(functions, block.astype(np.uint16)).tolist() == one_by_one
    # one function on every row, as bent affine passes it
    f = functions[0]
    rows = [apply_affine([f], block[i : i + 1])[0].tolist() for i in range(30)]
    assert apply_affine([f] * 30, block).tolist() == rows


def test_apply_affine_refuses_a_bad_block():
    good = np.array([[1, 2, 4, 0, 0, 0], [2, 4, 1, 7, 5, 1]])
    f = random_function(3, 1)
    apply_affine([f] * 2, good)
    # each bad row follows two good ones, so a check must look at every row
    bad_rows = [
        ([1, 2, 3, 0, 0, 0], "singular"),
        ([1, 2, 8, 0, 0, 0], "out of range"),  # a column past 2^n
        ([1, 2, 4, 8, 0, 0], "out of range"),  # the translation past 2^n
        ([1, 2, 4, 0, -1, 0], "out of range"),  # a negative functional
        ([1, 2, 4, 0, 0, 2], "constant"),
        ([1, 2, 4, 0, 0, -1], "constant"),
    ]
    for row, match in bad_rows:
        with pytest.raises(ValueError, match=match):
            apply_affine([f] * 3, np.vstack([good, row]))
    for dtype in (bool, float):
        with pytest.raises(ValueError, match="ints"):
            apply_affine([f] * 2, good.astype(dtype))
    # a plain list is not a block, even when it holds a block's ints
    with pytest.raises(ValueError, match="ndarray of ints, got list"):
        apply_affine([f] * 2, good.tolist())
    with pytest.raises(ValueError, match="map n=2"):  # a width of n + 2
        apply_affine([f] * 2, good[:, :5])
    with pytest.raises(ValueError, match="shape"):  # one row as 1-D
        apply_affine([f] * 6, good[0])
    with pytest.raises(ValueError, match="one function per map"):
        apply_affine([f], good)
    with pytest.raises(ValueError, match="function n=2"):
        apply_affine([f, random_function(2, 1)], good)


def _bent_flags(f, count, seed):
    """The bent flags of ``_bent_images``, keeping no row."""
    return [ok for _, _, ok in bent._bent_images([f], count, random.Random(seed))]


def test_bent_images_memory_does_not_grow_with_the_count():
    f = _maiorana_mcfarland(16, random.Random(16))[0]
    tracemalloc.start()
    try:
        flags = _bent_flags(f, 50, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(flags) == 50 and all(flags)
    assert peak < 12 << 20  # one 50-row batch with its int32 spectra peaks near 32 MB


def test_bent_images_peak_is_one_chunk():
    # n=6 takes 512 maps per chunk; four chunks' worth must not hold more
    # than the one chunk being built
    f = _maiorana_mcfarland(6, random.Random(6))[0]
    step = core.CHUNK_POINTS >> 6
    peaks = []
    for count in (step, 4 * step):
        tracemalloc.start()
        try:
            flags = _bent_flags(f, count, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(flags) == count and all(flags)
    assert peaks[1] < 1.5 * peaks[0]


def test_first_image_draws_at_most_one_chunk(monkeypatch):
    drawn = []  # the maps each random_invertible call draws

    def counting(n, rng, count):
        drawn.append(count)
        return random_invertible(n, rng, count)

    monkeypatch.setattr(bent, "random_invertible", counting)
    f = _maiorana_mcfarland(8, random.Random(8))[0]
    step = core.CHUNK_POINTS >> 8
    _, row, ok = next(iter(bent._bent_images([f], 3 * step + 1, random.Random(1))))
    assert 0 < sum(drawn) <= step
    assert row.shape == (f.size,) and ok


def test_bent_images_in_one_row_chunks_match_one_batch(monkeypatch):
    # every image is bent, so the mask also reads each image's value at the
    # origin: a chunk written to the wrong rows then shows
    calls = []

    def marked(truth, n):
        calls.append(len(truth))
        return bent_rows(truth, n) & (truth[:, 0] == 0)

    monkeypatch.setattr(bent, "bent_rows", marked)
    images = [(row.tolist(), ok) for _, row, ok in bent._bent_images([QUAD], 40, random.Random(3))]
    monkeypatch.setattr(core, "CHUNK_POINTS", QUAD.size)
    per_row = [(row.tolist(), ok) for _, row, ok in bent._bent_images([QUAD], 40, random.Random(3))]
    assert calls == [40] + [1] * 40
    assert per_row == images
    mask = [ok for _, ok in images]
    assert mask == [row[0] == 0 for row, _ in images]
    assert 0 < sum(mask) < 40


def test_bent_images_across_members_keep_each_image_with_its_member(monkeypatch):
    members = enumerate_bent_by_degree(4).functions[:5]
    rng = random.Random(2)
    expected = [
        (f, apply_affine([f], random_invertible(4, rng, 1))[0].tolist())
        for f in members
        for _ in range(2)
    ]
    calls = []

    def marked(truth, n):
        calls.append(len(truth))
        return bent_rows(truth, n) & (truth[:, 0] == 0)

    monkeypatch.setattr(bent, "bent_rows", marked)
    # chunks of three maps split the second and the fifth member's two maps
    monkeypatch.setattr(core, "CHUNK_POINTS", 3 << 4)
    stream = bent._bent_images(members, 2, random.Random(2))
    images = [(f, row.tolist(), ok) for f, row, ok in stream]
    assert calls == [3, 3, 3, 1]
    assert [(f, row) for f, row, _ in images] == expected
    flags = [ok for _, _, ok in images]
    assert flags == [row[0] == 0 for _, row in expected]
    assert 0 < sum(flags) < len(flags)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_affine_images_of_bent_functions_are_bent_by_the_naive_spectrum(n):
    # the naive oracle, not bent_rows, judges every image
    f = _maiorana_mcfarland(n, random.Random(n))[0]
    images = list(bent._bent_images([f], 12, random.Random(n + 1)))
    assert len(images) == 12
    for _, row, ok in images:
        assert ok and _naive_bent(BooleanFunction(n, pack_bits(row)))


def test_two_flats_structure():
    flats = list(two_flats(2))
    assert flats == [(0, 1, 2, 3)]
    for n in (2, 3, 4):
        flats = list(two_flats(n))
        assert len(flats) == gaussian_binomial(n, 2) << (n - 2)
        seen = set()
        for flat in flats:
            assert len(set(flat)) == 4
            p0, p1, p2, p3 = flat
            assert p0 ^ p1 ^ p2 ^ p3 == 0
            assert p0 == min(flat)
            key = frozenset(flat)
            assert key not in seen
            seen.add(key)
    with pytest.raises(ValueError):
        list(two_flats(1))


def test_flat_distribution_oracles():
    dist = two_flat_sum_distribution(QUAD)
    assert dist.counts == {-4: 0, -2: 20, 0: 45, 2: 60, 4: 15}
    assert dist.total == 140
    assert two_flat_sum_distribution(AND).counts == {-4: 0, -2: 0, 0: 0, 2: 1, 4: 0}
    assert two_flat_sum_distribution(parse_bf("bf:2:6")).counts[0] == 1


def test_flat_distribution_reads_the_defining_sum_at_small_n(monkeypatch):
    def refuse(*args):
        raise AssertionError("two_flat_sum_distribution ran the butterfly")

    # bent would bind walsh_fast on import, so patch it there as well
    for module in (transforms, bent):
        monkeypatch.setattr(module, "walsh_fast", refuse, raising=False)
    monkeypatch.setattr(transforms, "walsh_rows", refuse)
    assert two_flat_sum_distribution(QUAD).counts == {-4: 0, -2: 20, 0: 45, 2: 60, 4: 15}


def test_flat_distribution_works_on_any_function():
    f = random_function(3, 11)
    dist = two_flat_sum_distribution(f)
    assert dist.total == gaussian_binomial(3, 2) << 1
    assert sum(dist.counts.values()) == dist.total


def test_flat_distribution_caps():
    with pytest.raises(ValueError):
        two_flat_sum_distribution(BooleanFunction(1, 0))


@pytest.mark.parametrize(
    "n,odd,four,zero",
    [
        (4, 80, 15, 45),
        (6, 5_376, 1_260, 3_780),
        (8, 348_160, 85_680, 257_040),
        (10, 22_347_776, 5_565_120, 16_695_360),
        (12, 1_431_306_240, 357_477_120, 1_072_431_360),
        (14, 91_620_376_576, 22_899_502_080, 68_698_506_240),
        (16, 5_863_972_536_320, 1_465_903_656_960, 4_397_710_970_880),
    ],
)
def test_inner_product_flat_closed_forms(n, odd, four, zero):
    # D_u f is balanced for u != 0, so (2^n - 1) 2^(2n-4) / 3 flats have an
    # odd sum; the rest split 1:3 between |sum| = 4 and sum = 0
    h = n // 2
    low = (1 << h) - 1
    f = BooleanFunction(n, sum(((k & (k >> h) & low).bit_count() & 1) << k for k in range(1 << n)))
    assert is_bent(f)
    counts = two_flat_sum_distribution(f).counts
    total = gaussian_binomial(n, 2) << (n - 2)
    assert odd == (((1 << n) - 1) << (2 * n - 4)) // 3
    assert four == (total - odd) // 4 and zero == 3 * four
    assert counts[2] + counts[-2] == odd
    assert counts[4] + counts[-4] == four
    assert counts[0] == zero


def _flat_recount(f):
    recount = {s: 0 for s in (-4, -2, 0, 2, 4)}
    for flat in two_flats(f.n):
        recount[sum(1 - 2 * f.bit(p) for p in flat)] += 1
    return recount


@pytest.mark.parametrize("n", [2, 3])
def test_flat_sums_match_direct_recount_on_every_table(n):
    for table in range(1 << (1 << n)):
        f = BooleanFunction(n, table)
        assert two_flat_sum_distribution(f).counts == _flat_recount(f)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_flat_sums_match_direct_recount(data):
    n = data.draw(st.integers(2, 6))
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    assert two_flat_sum_distribution(f).counts == _flat_recount(f)
