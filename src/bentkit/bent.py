"""Bent-ness testing, dual functions, affine equivalence, 2-flat statistics.

A function is bent when its arity is even and every Walsh value is +-2^(n/2).
``_flat_rows`` alone states this test, on one int32 spectrum or a block of
them.  ``bent_rows`` applies it to the ``walsh_truth_rows`` butterfly of
(rows, 2^n) truth tables, for the census and ``_bent_images`` (``prop1``,
``bent affine``); ``is_bent`` and ``dual_bent`` apply it to ``_spectrum``, the
one single-function butterfly, and ``dual_bent`` reads the signs from it too.
Affine maps act by g(x) = f(Mx + translation) + <functional, x> + constant
with M invertible.  ``apply_affine`` builds the images under a batch of maps:
it doubles each map's index permutation x -> Mx + translation and its affine
term over the input bits in numpy, then gathers all the images from one
unpacked table as (maps, 2^n) bit rows.  ``_bent_images`` takes a sequence
of functions of one arity, draws their maps function by function, and builds
and tests the images one chunk of maps at a time, with one ``apply_affine``
per function in the chunk and one ``bent_rows`` over the whole chunk; it
yields (function, row, bent) triples.  ``prop1`` passes the whole census, so
its images are tested across members, and packs only failing rows, holding
one chunk at most; ``bent affine`` passes its one function and prints every
image, so its output grows with the count, which the work budget caps at
2^MAX_WORK_LOG2 truth-table points.
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
from .core import pack_bits, unpack_bits
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


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine substitution plus an affine output term.

    ``cols[i]`` is the matrix column multiplying input bit i, packed as an
    n-bit int over the output bits.
    """

    n: int
    cols: tuple[int, ...]
    translation: int
    functional: int
    constant: int

    def __post_init__(self) -> None:
        _check_arity(self.n)
        if len(self.cols) != self.n:
            raise ValueError(f"need {self.n} matrix columns, got {len(self.cols)}")
        for v in (*self.cols, self.translation, self.functional):
            if type(v) is not int or v < 0 or v >> self.n:  # inline: a call per entry is slow
                _check_int(v, "a matrix column, translation or functional")
                raise ValueError(f"map entry {v} out of range for n={self.n}")
        _check_int(self.constant, "constant")
        if self.constant not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {self.constant}")
        if matrix_rank(self.cols) != self.n:
            raise ValueError("matrix is singular")


def apply_affine(f: BooleanFunction, maps: Sequence[AffineMap]) -> np.ndarray:
    """Images g(x) = f(Mx + translation) + <functional, x> + constant of f, one
    per map, as the rows of a (len(maps), 2^n) uint8 bit block."""
    for t in maps:
        _check_same_arity(f.n, t.n, "map")
    n = f.n
    # word bits 0..n-1 hold Mx + translation and bit n the affine term, so one
    # doubling word[x | 2^i] = word[x] ^ step_i builds both; words < 2^27 fit int32
    steps = np.array(
        [[c | ((t.functional >> i) & 1) << n for i, c in enumerate(t.cols)] for t in maps],
        dtype=np.int32,
    ).reshape(len(maps), n)
    words = np.empty((len(maps), f.size), dtype=np.int32)
    words[:, 0] = [t.translation | t.constant << n for t in maps]
    for i in range(n):
        words[:, 1 << i : 2 << i] = words[:, : 1 << i] ^ steps[:, i, None]
    return unpack_bits(f.table, f.size)[words & (f.size - 1)] ^ (words >> n).astype(np.uint8)


def random_invertible(n: int, seed: Union[int, random.Random, None] = None) -> AffineMap:
    """Uniform invertible map for a fixed seed; rejection-samples the matrix."""
    _check_arity(n)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    while True:
        cols = tuple(rng.getrandbits(n) for _ in range(n))
        if matrix_rank(cols) == n:
            break
    return AffineMap(
        n,
        cols,
        rng.getrandbits(n),
        rng.getrandbits(n),
        rng.getrandbits(1),
    )


def _test_chunk(owners: list, blocks: list, n: int) -> Iterator[tuple]:
    # one bent_rows call over the chunk's image blocks, each row with its owner
    rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return zip(owners, rows, bent_rows(rows, n).tolist())


def _bent_images(
    functions: Sequence[BooleanFunction], count: int, rng: random.Random
) -> Iterator[tuple]:
    """(f, bit row, bent) for ``count`` random affine images of each f, all of
    one arity, maps drawn from rng function by function.  Maps are drawn,
    built and bent-tested one chunk of at most ``core.CHUNK_POINTS >> n``
    maps at a time (2,048 at n=4), with one ``apply_affine`` per function in
    the chunk and one ``bent_rows`` over their rows; a chunk may split one
    function's maps, and a caller keeping no row holds one chunk.  Refuses,
    before drawing a map, more than 2^MAX_WORK_LOG2 points (functions x
    count x 2^n)."""
    if not functions:
        return
    n = functions[0].n
    total = len(functions) * count
    _check_work(((total << n) - 1).bit_length(), f"truth-table points for {total} images at n={n}")
    step = max(1, core.CHUNK_POINTS >> n)
    owners: list[BooleanFunction] = []
    blocks: list[np.ndarray] = []
    for f in functions:
        left = count
        while left:
            take = min(left, step - len(owners))
            blocks.append(apply_affine(f, [random_invertible(n, rng) for _ in range(take)]))
            owners += [f] * take
            left -= take
            if len(owners) == step:
                yield from _test_chunk(owners, blocks, n)
                owners, blocks = [], []
    if owners:
        yield from _test_chunk(owners, blocks, n)


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
