"""Bent-ness testing, dual functions, affine equivalence, 2-flat statistics.

A function is bent when its arity is even and every Walsh value is +-2^(n/2).
``_flat_rows`` alone states this test, on one int32 spectrum or a block of
them.  ``bent_rows`` applies it to the ``walsh_truth_rows`` butterfly of
(rows, 2^n) truth tables, for the census and ``_bent_images`` (``prop1``,
``bent affine``); ``is_bent`` and ``dual_bent`` apply it to ``_spectrum``, the
one single-function butterfly, and ``dual_bent`` reads the signs from it too.
Affine maps act by g(x) = f(Mx + translation) + <functional, x> + constant
with M invertible.  A map has one form, a row of a (maps, n + 3) int block:
M's columns, translation, functional and constant.  ``random_invertible``
draws such a block from a seeded rng, the stream of a map-by-map rejection
loop, read from blocks of Mersenne Twister words whose windows
``_full_rank`` rank-tests all at once (``matrix_rank`` is the independent
oracle).  ``apply_affine`` builds the images of one function per row: it
checks the block (``_check_block``), doubles each map's index permutation
x -> Mx + translation and its affine term over the input bits in numpy,
refusing a singular matrix there, then gathers every image from the
unpacked tables as (maps, 2^n) bit rows.  ``_bent_images`` takes a sequence
of functions of one arity, draws their maps function by function, and per
chunk of maps draws one block, builds it with one ``apply_affine`` and tests
it with one ``bent_rows``; it yields (function, row, bent) triples.
``prop1`` passes the whole census, so its images are tested across members,
and packs only failing rows, holding one chunk at most; ``bent affine``
passes its one function and prints every image, so its output grows with
the count, which the work budget caps at 2^MAX_WORK_LOG2 truth-table points.
``two_flat_sum_distribution`` is a closed form in n, W(0) and sum_y W(y)^4
from one spectrum (``transforms._walsh_by_arity``); ``two_flats`` lists the
flats for direct counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from . import core
from .core import BooleanFunction, _check_arity, _check_int, _check_same_arity, _check_work
from .core import pack_bits, unpack_rows
from .geometry import gaussian_binomial
from .transforms import _spectrum, _walsh_by_arity, walsh_truth_rows


def _flat_rows(spectra: np.ndarray, n: int) -> np.ndarray:
    # last axis, one row or a block; odd n fails Parseval (squares sum to 2^(2n-1))
    return np.all(np.abs(spectra) == (1 << (n // 2)), axis=-1)


def bent_rows(truth: np.ndarray, n: int) -> np.ndarray:
    """Mask of the (rows, 2^n) truth-table rows whose spectrum is +-2^(n/2) everywhere."""
    return _flat_rows(walsh_truth_rows(truth), n)


def is_bent(f: BooleanFunction) -> bool:
    """True iff n is even and the whole spectrum is +-2^(n/2)."""
    return bool(_flat_rows(_spectrum(f), f.n))


def dual_bent(b: BooleanFunction) -> BooleanFunction:
    """The bent function g with W_b(y) = 2^(n/2) * (-1)^g(y)."""
    spectrum = _spectrum(b)
    if not _flat_rows(spectrum, b.n):
        raise ValueError("not bent")
    return BooleanFunction(b.n, pack_bits(spectrum < 0))


def matrix_rank(cols: Sequence[int]) -> int:
    """Rank over F_2 of the matrix whose columns are the given bit vectors."""
    basis: dict[int, int] = {}
    for vec in cols:
        v = int(vec)
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def _full_rank(cols: np.ndarray) -> np.ndarray:
    """True where the n columns cols[0], ..., cols[n-1] of an (n, ...) int
    array are independent over F_2, one flag per trailing index; reduces
    cols in place."""
    # each column is reduced against the reduced columns before it in turn:
    # min(v, v ^ b) clears b's leading bit from v, no later reduced column
    # has that bit set, so a column in the span of the earlier ones ends at 0
    for i in range(len(cols) - 1):
        rest = cols[i + 1 :]
        np.minimum(rest, rest ^ cols[i], out=rest)
    return cols.all(axis=0)


def _check_block(maps: np.ndarray, n: int) -> np.ndarray:
    # every row of a (maps, n + 3) block at once; the singular test needs the
    # index permutations, so apply_affine makes it as it builds them
    if not isinstance(maps, np.ndarray) or maps.dtype.kind not in "iu":
        got = getattr(maps, "dtype", type(maps).__name__)
        raise ValueError(f"a map block must be an ndarray of ints, got {got}")
    if maps.ndim != 2:
        raise ValueError(f"a map block at n={n} has shape (maps, {n + 3}), got {maps.shape}")
    _check_same_arity(n, maps.shape[1] - 3, "map")
    # a negative entry makes its column's OR negative, one past 2^n sets bit n
    *entries, constant = np.bitwise_or.reduce(maps, axis=0).tolist()
    if any(v < 0 or v >> n for v in entries):
        raise ValueError(f"map entry out of range for n={n}")
    if constant not in (0, 1):
        raise ValueError(f"constant must be 0 or 1, got a column OR of {constant}")
    return maps.astype(np.int64, copy=False)


def apply_affine(functions: Sequence[BooleanFunction], maps: np.ndarray) -> np.ndarray:
    """Images g(x) = f(Mx + translation) + <functional, x> + constant, one
    per row of the (maps, n + 3) int block ``maps``, as the rows of a
    (maps, 2^n) uint8 bit block.

    Each block row holds the n matrix columns, then translation, functional
    and constant, as ``random_invertible(n, rng, count)`` returns them; a
    singular matrix, an entry outside 0..2^n - 1, a constant outside {0, 1},
    a block that is not an int ndarray or has the wrong width is a
    ValueError.  ``functions`` holds one function per row, all of one arity,
    and every image is gathered from their unpacked tables at once."""
    if not functions:
        raise ValueError("need one function per map, got none")
    n = functions[0].n
    for arity in {g.n for g in functions}:
        _check_same_arity(n, arity, "function")
    block = _check_block(maps, n)
    if len(functions) != len(block):
        raise ValueError(f"need one function per map, got {len(functions)} for {len(block)}")
    size = 1 << n
    # word bits 0..n-1 hold Mx + translation and bit n the affine term, so one
    # doubling word[x | 2^i] = word[x] ^ step_i builds both; words < 2^27 fit int32
    steps = (block[:, :n] | ((block[:, n + 1, None] >> np.arange(n)) & 1) << n).astype(np.int32)
    words = np.empty((len(block), size), dtype=np.int32)
    words[:, 0] = block[:, n] | block[:, n + 2] << n
    for i in range(n):
        np.bitwise_xor(words[:, : 1 << i], steps[:, i, None], out=words[:, 1 << i : 2 << i])
    points = words & (size - 1)
    # Mx + translation is translation at x = 0 alone iff M has no kernel
    if np.count_nonzero(points == points[:, :1]) != len(points):
        raise ValueError("matrix is singular")
    # row r of the flattened tables starts at r 2^n, in intp: an int32 r << n wraps
    points = points + (np.arange(len(block), dtype=np.intp) << n)[:, None]
    images = unpack_rows([g.table for g in functions], size).ravel()[points]
    # the affine term is 0 or 1, so it fits the uint8 images as it is
    return np.bitwise_xor(images, np.right_shift(words, n, out=words), out=images, casting="unsafe")


def _words_to_draw(n: int, maps: int) -> int:
    # a map reads n words a try and 3 after, at most 3.47 tries on average
    # (1 / prod(1 - 2^-i) < 3.47), so 4n + 3 words a map, two maps to spare
    return (maps + 2) * (4 * n + 3)


def random_invertible(n: int, seed: Union[int, random.Random, None], count: int) -> np.ndarray:
    """The next ``count`` uniform invertible affine maps of a seeded stream,
    as a (count, n + 3) int64 block, each row the n matrix columns, then
    translation, functional and constant (``count=0`` gives an empty block
    and reads no word; a count that is not an int, a bool included, or is
    negative is a ValueError).

    The stream is a rejection loop: n columns ``getrandbits(n)``, drawn again
    while they are dependent, then ``getrandbits(n)`` twice and
    ``getrandbits(1)``.  Each such call reads the top bits of one 32-bit
    Mersenne Twister word, so the maps are read from a block of words drawn
    by one ``getrandbits(32 k)`` call: every window of n consecutive words is
    rank-tested at once (``_full_rank``), then the windows are walked as the
    loop would try them.  The block holds more words than the maps read on
    average (``_words_to_draw``), and another is drawn if the walk runs out;
    rng is then set back to its state before the call and advanced by the
    words the maps read, so it ends where the loop leaves it."""
    _check_arity(n)
    _check_int(count, "count")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not count:
        return np.empty((0, n + 3), dtype=np.int64)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    width = n + 3
    state = rng.getstate()
    data = b""  # every word drawn, in order, little-endian
    ok: list[bool] = []  # ok[s]: the n columns from word s on are independent
    starts: list[int] = []  # the first word of each accepted map
    pos = 0  # the first word of the next try
    while len(starts) < count:
        more = _words_to_draw(n, count - len(starts))
        data += rng.getrandbits(32 * more).to_bytes(4 * more, "little")
        # window s, column j is word s + j as getrandbits(n) reads it
        fresh = len(data) // 4 - n + 1 - len(ok)
        ok += _full_rank(np.ndarray((n, fresh), "<u4", data, 4 * len(ok), (4, 4)) >> (32 - n)).tolist()
        while len(starts) < count and pos < len(ok):
            if not ok[pos]:
                pos += n
            elif 4 * (pos + width) <= len(data):
                starts.append(pos)
                pos += width
            else:
                break
    rng.setstate(state)
    rng.getrandbits(32 * pos)
    maps = np.ndarray((len(data) // 4 - width + 1, width), "<u4", data, 0, (4, 4))[starts]
    # getrandbits(n) keeps a word's top n bits, getrandbits(1) its top bit
    return maps >> np.array([32 - n] * (n + 2) + [31], dtype=np.int64)


def _bent_images(
    functions: Sequence[BooleanFunction], count: int, rng: random.Random
) -> Iterator[tuple]:
    """(f, bit row, bent) for ``count`` random affine images of each f, all of
    one arity, maps drawn from rng function by function.  Maps are drawn,
    built and bent-tested one chunk of at most ``core.CHUNK_POINTS >> n``
    maps at a time (2,048 at n=4): one ``random_invertible`` block, one
    ``apply_affine`` gather from the chunk's functions, one per map, and one
    ``bent_rows``; a chunk may split one
    function's maps, and a caller keeping no row holds one chunk.  Refuses,
    before drawing a map, more than 2^MAX_WORK_LOG2 points (functions x
    count x 2^n)."""
    if not functions:
        return
    n = functions[0].n
    total = len(functions) * count
    _check_work(((total << n) - 1).bit_length(), f"truth-table points for {total} images at n={n}")
    step = max(1, core.CHUNK_POINTS >> n)
    for first in range(0, total, step):
        owners = [functions[i // count] for i in range(first, min(first + step, total))]
        maps = random_invertible(n, rng, len(owners))
        rows = apply_affine(owners, maps)
        yield from zip(owners, rows, bent_rows(rows, n).tolist())


def two_flats(n: int) -> Iterator[tuple[int, int, int, int]]:
    """Every 2-dimensional affine flat once, as its four points.

    The first point is the flat's minimal-index member.
    """
    _check_arity(n)
    if n < 2:
        raise ValueError(f"2-dimensional flats need n >= 2, got {n}")
    top = 1 << n
    # each direction subspace once, keyed by its two smallest nonzero members;
    # u < v forces u^v to be the largest of the three
    for u in range(1, top):
        for v in range(u + 1, top):
            w = u ^ v
            if v < w:
                for t in range(top):
                    if t < (t ^ u) and t < (t ^ v) and t < (t ^ w):
                        yield (t, t ^ u, t ^ v, t ^ w)


@dataclass(frozen=True)
class FlatSumDistribution:
    """Counts of 2-flats by their sign sum; sums live in {-4,-2,0,2,4}."""

    n: int
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return gaussian_binomial(self.n, 2) << (self.n - 2)


def two_flat_sum_distribution(b: BooleanFunction) -> FlatSumDistribution:
    """Distribution of sum of (-1)^b over every 2-dimensional affine flat.

    With N = 2^n points, P = gaussian_binomial(n, 2) planes and T = P N/4
    flats, the flat sums S have sum S = W(0) P, sum S^2 = 4T + (N/2 - 1)
    (W(0)^2 - N) and sum S^3 = 10 W(0) P + W(0)^3 - (3N - 2) W(0); their sign
    products sum to (sum W^4 / N - 3N^2 + 2N) / 24.  These fix the five
    counts, every division exact.
    """
    if b.n < 2:
        raise ValueError(f"2-dimensional flats need n >= 2, got {b.n}")
    spectrum = _walsh_by_arity(b)
    size, w0 = b.size, spectrum[0]  # N, W(0)
    planes = gaussian_binomial(b.n, 2)
    total = planes << (b.n - 2)
    # a point lies on P flats, two points on N/2 - 1, three points on one
    s1 = w0 * planes
    s2 = 4 * total + (size // 2 - 1) * (w0 * w0 - size)
    s3 = 10 * s1 + w0**3 - (3 * size - 2) * w0
    # x+y+z+w = 0 tuples give sum W^4 / N, less 3N^2 - 2N with a repeat, 24 per flat
    products = (sum(v**4 for v in spectrum) // size - 3 * size * size + 2 * size) // 24
    odd = (total - products) // 2
    four = (s2 - 4 * odd) // 16
    four_diff = (s3 - 4 * s1) // 48
    two_diff = (s1 - 4 * four_diff) // 2
    return FlatSumDistribution(b.n, {
        -4: (four - four_diff) // 2,
        -2: (odd - two_diff) // 2,
        0: total - four - odd,
        2: (odd + two_diff) // 2,
        4: (four + four_diff) // 2,
    })
