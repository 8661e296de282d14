"""Bent-ness testing, dual functions, affine equivalence, 2-flat statistics.

A function is bent when its arity is even and every Walsh value is +-2^(n/2).
``bent_rows`` alone tests this, with one int32 ``walsh_rows`` butterfly over
(rows, 2^n) truth tables; ``is_bent``, ``dual_bent``, the census and the
``prop1`` suite all call it, and the dual reads the butterfly's signs.
Affine maps act by g(x) = f(Mx + translation) + <functional, x> + constant
with M invertible; ``apply_affine`` gathers the table through the index
permutation x -> Mx + translation and adds the affine term as one table.
2-flat sums add truth-table translates built with ``geometry``'s coordinate masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence, Union

import numpy as np

from .core import BooleanFunction, ResourceCapError, _check_arity, pack_bits, unpack_bits
from .geometry import coordinate_masks, gaussian_binomial
from .transforms import walsh_rows

FLAT_ARITY_CAP = 12


def bent_rows(truth: np.ndarray, n: int) -> np.ndarray:
    """Mask of the (rows, 2^n) truth-table rows whose spectrum is +-2^(n/2)
    everywhere; all False for odd n (squares summing to 2^(2n-1) break Parseval)."""
    # no butterfly stage exceeds 2^n <= 2^MAX_ARITY = 2^26, so int32 is exact
    spectra = walsh_rows(1 - 2 * truth.astype(np.int32))
    return np.all(np.abs(spectra) == (1 << (n // 2)), axis=1)


def is_bent(f: BooleanFunction) -> bool:
    """True iff n is even and the whole spectrum is +-2^(n/2)."""
    return bool(bent_rows(unpack_bits(f.table, f.size)[None], f.n)[0])


def dual_bent(b: BooleanFunction) -> BooleanFunction:
    """The bent function g with W_b(y) = 2^(n/2) * (-1)^g(y)."""
    truth = unpack_bits(b.table, b.size)[None]
    if not bent_rows(truth, b.n)[0]:
        raise ValueError("not bent")
    return BooleanFunction(b.n, pack_bits(walsh_rows(1 - 2 * truth.astype(np.int32)) < 0))


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


def _canonical_pairs(n: int) -> Iterator[tuple[int, int]]:
    # each 2-dim subspace once, keyed by its two smallest nonzero members;
    # u < v forces u^v to be the largest of the three
    top = 1 << n
    for u in range(1, top):
        for v in range(u + 1, top):
            if v < (u ^ v):
                yield (u, v)


def two_flats(n: int) -> Iterator[tuple[int, int, int, int]]:
    """Every 2-dimensional affine flat once, as its four points.

    The first point is the flat's minimal-index member.
    """
    _check_arity(n)
    if n < 2:
        raise ValueError(f"2-dimensional flats need n >= 2, got {n}")
    for u, v in _canonical_pairs(n):
        w = u ^ v
        for t in range(1 << n):
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
    """Distribution of sum of (-1)^b over every 2-dimensional affine flat."""
    if b.n < 2:
        raise ValueError(f"2-dimensional flats need n >= 2, got {b.n}")
    if b.n > FLAT_ARITY_CAP:
        raise ResourceCapError(
            f"flat enumeration at arity {b.n} exceeds the cap of {FLAT_ARITY_CAP}"
        )
    # translates[u] has bit x = b(x ^ u): swap the table halves along each bit of u
    translates = [b.table]
    for i, mask in enumerate(coordinate_masks(b.n)):
        shift = 1 << i
        translates += [((t & mask) << shift) | ((t >> shift) & mask) for t in translates]
    # half-adders give bits 0, 1 of k(x) = ones of b on x + {0, u, v, u^v}; 4 points per flat
    odd = mid = threes = fours = 0
    for u, v in _canonical_pairs(b.n):
        t, a, c, d = b.table, translates[u], translates[v], translates[u ^ v]
        bit0 = t ^ a ^ c ^ d
        bit1 = (t & a) ^ (c & d) ^ ((t ^ a) & (c ^ d))
        odd += bit0.bit_count()
        mid += bit1.bit_count()
        threes += (bit0 & bit1).bit_count()
        fours += (t & a & c & d).bit_count()
    k = {4: fours, 3: threes, 2: mid - threes, 1: odd - threes}
    k[0] = (gaussian_binomial(b.n, 2) << b.n) - sum(k.values())
    return FlatSumDistribution(b.n, {4 - 2 * j: k[j] // 4 for j in range(4, -1, -1)})
