"""Bent checks, duals, affine maps, and 2-flat statistics."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentkit import bent, transforms
from bentkit.bent import (
    AffineMap,
    apply_affine,
    bent_rows,
    dual_bent,
    is_bent,
    matrix_rank,
    random_invertible,
    two_flat_sum_distribution,
    two_flats,
)
from bentkit.core import BooleanFunction, parse_bf, random_function, weight
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
    # f(x, y) = <x, pi(y)> + g(y), with x the low n/2 index bits and y the high
    h = n // 2
    pi = np.array(rng.sample(range(1 << h), 1 << h))
    g = np.array([rng.getrandbits(1) for _ in range(1 << h)])
    idx = np.arange(1 << n)
    x, y = idx & ((1 << h) - 1), idx >> h
    return BooleanFunction(n, pack_bits((np.bitwise_count(x & pi[y]) & 1) ^ g[y]))


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
        functions.append(_maiorana_mcfarland(n, rng))
    mask = bent_rows(_rows(n, [f.table for f in functions]), n)
    assert mask.tolist() == [_naive_bent(f) for f in functions]
    assert mask[-1] == (n % 2 == 0)


@pytest.mark.parametrize("n", [12, 14])
def test_is_bent_on_maiorana_mcfarland_and_one_flip(n):
    rng = random.Random(n)
    f = _maiorana_mcfarland(n, rng)
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
    assert is_bent(_maiorana_mcfarland(8, random.Random(8)))
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

    def counting(a):
        calls.append(a.shape)
        return transforms.walsh_rows(a)

    monkeypatch.setattr(bent, "walsh_rows", counting)
    assert dual_bent(QUAD) == QUAD
    assert len(calls) == 1
    with pytest.raises(ValueError, match="not bent"):
        dual_bent(parse_bf("bf:4:7889"))
    assert len(calls) == 2


def test_dual_involution_n2():
    for table in range(16):
        f = BooleanFunction(2, table)
        if is_bent(f):
            d = dual_bent(f)
            assert is_bent(d)
            assert dual_bent(d) == f


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


def test_affine_map_validation():
    AffineMap(3, (1, 2, 4), 0, 0, 0)
    with pytest.raises(ValueError, match="singular"):
        AffineMap(2, (3, 3), 0, 0, 0)
    with pytest.raises(ValueError, match="singular"):
        AffineMap(3, (6, 5, 3), 0, 0, 0)
    with pytest.raises(ValueError):
        AffineMap(2, (1,), 0, 0, 0)
    with pytest.raises(ValueError):
        AffineMap(2, (1, 2), 4, 0, 0)
    with pytest.raises(ValueError):
        AffineMap(2, (1, 2), 0, 0, 2)


def test_apply_affine_identity_and_translation():
    ident = AffineMap(2, (1, 2), 0, 0, 0)
    assert apply_affine(AND, ident) == AND
    x1 = parse_bf("bf:2:a")
    shift = AffineMap(2, (1, 2), 1, 0, 0)
    assert apply_affine(x1, shift) == parse_bf("bf:2:5")  # x1 + 1
    flip = AffineMap(2, (1, 2), 0, 0, 1)
    assert apply_affine(x1, flip) == parse_bf("bf:2:5")
    add_x2 = AffineMap(2, (1, 2), 0, 2, 0)
    assert apply_affine(x1, add_x2) == parse_bf("bf:2:6")  # x1 + x2


def test_apply_affine_swap():
    swap = AffineMap(2, (2, 1), 0, 0, 0)  # exchanges the two inputs
    x1 = parse_bf("bf:2:a")
    x2 = parse_bf("bf:2:c")
    assert apply_affine(x1, swap) == x2
    assert apply_affine(AND, swap) == AND


@pytest.mark.parametrize("n", [1, 2, 4, 6, 8, 10])
def test_apply_affine_matches_pointwise_definition(n):
    rng = random.Random(n)
    for _ in range(20):
        f = random_function(n, rng)
        t = random_invertible(n, rng)
        expected = 0
        for x in range(1 << n):
            y = t.translation
            for i, col in enumerate(t.cols):
                if (x >> i) & 1:
                    y ^= col
            bit = f.bit(y) ^ ((t.functional & x).bit_count() & 1) ^ t.constant
            expected |= bit << x
        assert apply_affine(f, t) == BooleanFunction(n, expected)


def test_apply_affine_arity_mismatch():
    with pytest.raises(ValueError):
        apply_affine(AND, AffineMap(3, (1, 2, 4), 0, 0, 0))


@given(st.integers(1, 6), st.integers(0, 2**32), st.data())
@settings(max_examples=100)
def test_linear_part_permutes_spectrum(n, seed, data):
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    t = random_invertible(n, seed)
    linear = AffineMap(n, t.cols, 0, 0, 0)
    image = apply_affine(f, linear)
    assert sorted(walsh_fast(image)) == sorted(walsh_fast(f))


@given(st.integers(1, 6), st.integers(0, 2**32), st.data())
@settings(max_examples=100)
def test_affine_preserves_absolute_spectrum(n, seed, data):
    # signed values are not preserved in general: translating x1 by e1
    # negates its whole spectrum
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    t = random_invertible(n, seed)
    image = apply_affine(f, t)
    assert sorted(abs(v) for v in walsh_fast(image)) == sorted(
        abs(v) for v in walsh_fast(f)
    )


def test_translation_flips_signed_spectrum():
    x1 = parse_bf("bf:2:a")
    shifted = apply_affine(x1, AffineMap(2, (1, 2), 1, 0, 0))
    assert walsh_fast(x1) == [0, 4, 0, 0]
    assert walsh_fast(shifted) == [0, -4, 0, 0]


def test_random_invertible_determinism():
    assert random_invertible(5, 42) == random_invertible(5, 42)
    rng = random.Random(7)
    maps = [random_invertible(4, rng) for _ in range(50)]
    assert all(matrix_rank(t.cols) == 4 for t in maps)
    assert len(set(maps)) > 1


def test_bent_images_memory_does_not_grow_with_the_count():
    f = _maiorana_mcfarland(16, random.Random(16))
    tracemalloc.start()
    try:
        images, mask = bent._bent_images(f, 50, random.Random(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(images) == 50 and mask.all()
    assert peak < 12 << 20  # one 50-row batch with its int32 spectra peaks near 32 MB


def test_bent_images_in_one_row_chunks_match_one_batch(monkeypatch):
    # every image is bent, so the mask also reads each image's value at the
    # origin: a chunk written to the wrong rows then shows
    calls = []

    def marked(truth, n):
        calls.append(len(truth))
        return bent_rows(truth, n) & (truth[:, 0] == 0)

    monkeypatch.setattr(bent, "bent_rows", marked)
    images, mask = bent._bent_images(QUAD, 40, random.Random(3))
    monkeypatch.setattr(bent, "_IMAGE_CHUNK_POINTS", QUAD.size)
    per_row = bent._bent_images(QUAD, 40, random.Random(3))
    assert calls == [40] + [1] * 40
    assert per_row[0] == images
    assert per_row[1].tolist() == mask.tolist() == [g.bit(0) == 0 for g in images]
    assert 0 < mask.sum() < 40


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
