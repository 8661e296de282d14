"""Bent-ness testing, dual functions, affine equivalence, 2-flat statistics.

A function is bent when its arity is even and every Walsh value is +-2^(n/2).
``_flat_rows`` alone states this test, on int32 spectra.  ``bent_rows`` runs
one ``walsh_rows`` butterfly over (rows, 2^n) truth tables and applies it;
``is_bent``, the census and ``_bent_images`` (``prop1``, ``bent affine``)
call it.  ``dual_bent`` runs one butterfly and reads the test and signs from it.
Affine maps act by g(x) = f(Mx + translation) + <functional, x> + constant
with M invertible; ``apply_affine`` gathers the table through the index
permutation x -> Mx + translation and adds the affine term as one table.
``two_flat_sum_distribution`` is a closed form in n, W(0) and sum_y W(y)^4
from one ``walsh_fast``; ``two_flats`` lists the flats for direct counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence, Union

import numpy as np

from .core import BooleanFunction, _check_arity, pack_bits, unpack_bits
from .geometry import coordinate_masks, gaussian_binomial
from .transforms import walsh_fast, walsh_rows

# bent-tests at most this many truth-table points (images x 2^n) at once
_IMAGE_CHUNK_POINTS = 1 << 18


def _flat_rows(spectra: np.ndarray, n: int) -> np.ndarray:
    # all False for odd n (squares summing to 2^(2n-1) break Parseval)
    return np.all(np.abs(spectra) == (1 << (n // 2)), axis=1)


def bent_rows(truth: np.ndarray, n: int) -> np.ndarray:
    """Mask of the (rows, 2^n) truth-table rows whose spectrum is +-2^(n/2) everywhere."""
    # no butterfly stage exceeds 2^n <= 2^MAX_ARITY = 2^26, so int32 is exact
    return _flat_rows(walsh_rows(1 - 2 * truth.astype(np.int32)), n)


def is_bent(f: BooleanFunction) -> bool:
    """True iff n is even and the whole spectrum is +-2^(n/2)."""
    return bool(bent_rows(unpack_bits(f.table, f.size)[None], f.n)[0])


def dual_bent(b: BooleanFunction) -> BooleanFunction:
    """The bent function g with W_b(y) = 2^(n/2) * (-1)^g(y)."""
    spectrum = walsh_rows(1 - 2 * unpack_bits(b.table, b.size)[None].astype(np.int32))
    if not _flat_rows(spectrum, b.n)[0]:
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
        top = 1 << self.n
        for c in self.cols:
            if not 0 <= c < top:
                raise ValueError(f"matrix column {c:#x} out of range for n={self.n}")
        if not 0 <= self.translation < top:
            raise ValueError("translation out of range")
        if not 0 <= self.functional < top:
            raise ValueError("functional vector out of range")
        if self.constant not in (0, 1):
            raise ValueError("constant must be a bit")
        if matrix_rank(self.cols) != self.n:
            raise ValueError("matrix is singular")


def apply_affine(f: BooleanFunction, t: AffineMap) -> BooleanFunction:
    """g(x) = f(Mx + translation) + <functional, x> + constant."""
    if f.n != t.n:
        raise ValueError(f"arity mismatch: function n={f.n}, map n={t.n}")
    # perm[x] = Mx + translation, doubled over the input bits; reversed so
    # the gathered string reads most significant point first
    perm = [t.translation]
    for c in t.cols:
        perm += [p ^ c for p in perm]
    perm.reverse()
    # character y of the string is f(y); a string gather beats a numpy one
    # at n=4, where prop1 makes its 8,960 calls
    bits = format(f.table, f"0{f.size}b")[::-1]
    image = int("".join(itemgetter(*perm)(bits)), 2)
    full = (1 << f.size) - 1
    term = full if t.constant else 0
    for i, clear in enumerate(coordinate_masks(f.n)):
        if (t.functional >> i) & 1:
            term ^= full ^ clear
    return BooleanFunction(f.n, image ^ term)


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


def _bent_images(f: BooleanFunction, count: int, rng: random.Random) -> tuple[list, np.ndarray]:
    """``count`` random affine images of f, drawn from rng in order, and their
    ``bent_rows`` mask, tested in chunks so that memory does not grow with ``count``."""
    images = [apply_affine(f, random_invertible(f.n, rng)) for _ in range(count)]
    step = max(1, _IMAGE_CHUNK_POINTS >> f.n)
    bent = np.zeros(count, dtype=bool)
    for start in range(0, count, step):
        chunk = images[start : start + step]
        bent[start : start + step] = bent_rows(
            np.array([unpack_bits(g.table, g.size) for g in chunk]), f.n
        )
    return images, bent


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
    spectrum = walsh_fast(b)
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
