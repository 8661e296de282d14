"""Coordinate faces of the hypercube, their cosets, and Hamming balls.

A face is the subcube Gamma(mask) = {x : x AND NOT mask = 0} of F_2^n, passed
as the int ``mask`` with n or with a function of arity n: the set bits of
``mask`` are the free coordinates, every face contains the origin.  Cosets of
a face are keyed by their minimal-index member, which is the point with all
free coordinates cleared; a coset is its face shifted by that representative.
The point-set masks on truth tables, ``coordinate_masks``, ``weight_masks``
and ``_face_indicator``, are built here and nowhere else, and no butterfly
runs here (``transforms._spectrum`` is the one single-function butterfly).
The dual face, orthogonal to all of Gamma(mask), is ``mask ^ ((1 << n) - 1)``.
Coset sums popcount the whole table once per coset, so ``coset_spectrum``
shares the work budget: at most 2^MAX_WORK_LOG2 truth-table points.
A Hamming ball is the plain tuple of its points that ``ball_points`` returns,
cached like the masks, and ``_ball_index`` is its one array form, the
read-only int32 index array every scatter into or gather from the ball reads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import core
from .core import MAX_ARITY, BooleanFunction, _check_arity, _check_int, _check_mask
from .core import _check_radius, _check_work


def subcube_points(n: int, mask: int) -> list[int]:
    """All points of Gamma(mask), ascending by index: 2^dim of them, at most
    2^MAX_WORK_LOG2."""
    _check_mask(n, mask)
    dim = mask.bit_count()
    _check_work(dim, f"points in the face of mask {mask:#x} (dim {dim})")
    return _subcube_points(mask)


def _subcube_points(mask: int) -> list[int]:
    # every s with s AND NOT mask = 0, ascending: (s - mask) & mask follows s;
    # the caller has checked the mask (a negative one never returns to 0)
    points = [0]
    while s := (points[-1] - mask) & mask:
        points.append(s)
    return points


@lru_cache(maxsize=16)
def coordinate_masks(n: int, rows: int = 1) -> tuple[int, ...]:
    """Mask i marks the index-bit-i-clear positions of ``rows`` packed 2^n-bit tables."""
    length = rows << n
    masks = []
    for i in range(n):
        m = (1 << (1 << i)) - 1
        for j in range(i + 1, (length - 1).bit_length()):  # double m until it covers length
            m |= m << (1 << j)
        masks.append(m & ((1 << length) - 1))
    return tuple(masks)


@lru_cache(maxsize=8)
def weight_masks(n: int) -> tuple[int, ...]:
    """Mask w marks the positions whose index has Hamming weight w."""
    # weight w on n + 1 coordinates: weight w with bit n clear, or w - 1 with it set
    masks = [1]
    for i in range(n):
        masks = [lo | (hi << (1 << i)) for lo, hi in zip(masks + [0], [0] + masks)]
    return tuple(masks)


def _face_indicator(n: int, mask: int) -> int:
    # Gamma(mask), mask checked by the caller: AND of its fixed coordinates' masks
    indicator = (1 << (1 << n)) - 1
    for i, line in enumerate(coordinate_masks(n)):
        if not (mask >> i) & 1:
            indicator &= line
    return indicator


def coset_spectrum(f: BooleanFunction, mask: int) -> dict[int, int]:
    """Coset sums of every coset of Gamma(mask), keyed by minimal-index representative.

    Each sum popcounts the whole table, so more than 2^MAX_WORK_LOG2
    truth-table points (cosets x 2^n) are refused before a coset is listed.
    """
    _check_mask(f.n, mask)
    dim = mask.bit_count()
    if 2 * f.n - dim > core.MAX_WORK_LOG2:  # compared first: check_lemma1 calls this in bulk
        _check_work(2 * f.n - dim, f"truth-table points for 2^{f.n - dim} coset sums at n={f.n}")
    indicator, size = _face_indicator(f.n, mask), 1 << dim
    reps = _subcube_points(mask ^ ((1 << f.n) - 1))
    return {rep: size - 2 * ((f.table >> rep) & indicator).bit_count() for rep in reps}


@lru_cache(maxsize=16, typed=True)
def ball_points(n: int, r: int) -> tuple[int, ...]:
    """Hamming ball B_r: all points of weight <= r, sorted by (weight, index).

    Cached, and listed only by ``_ball_index``, the ball's array form, on a
    cache miss.  ``typed`` keeps a bool radius from hitting an int's entry
    and passing the check.
    """
    _check_arity(n)
    _check_radius(n, r)
    # combinations of descending bits are descending: list weights r..0, reverse
    bits = [1 << i for i in reversed(range(n))]
    members = [x for w in range(r, -1, -1) for x in map(sum, combinations(bits, w))]
    return tuple(reversed(members))


@lru_cache(maxsize=16, typed=True)
def _ball_index(n: int, r: int) -> np.ndarray:
    """``ball_points(n, r)`` as a read-only int32 index array, built once per
    (n, r) for every scatter into or gather from the ball; ``typed`` as for
    ``ball_points``.  The largest ball a run can list, 2^24 points (``verify
    --suite lemma2 --n 25``), stays cached with its 64 MB index array."""
    points = ball_points(n, r)
    index = np.fromiter(points, dtype=np.int32, count=len(points))
    index.flags.writeable = False
    return index


def ball_size(n: int, r: int) -> int:
    """Number of points of B_r in F_2^n, sum_{i<=r} C(n, i), for n, r >= 0."""
    return sum(comb(n, i) for i in range(r + 1))


def covering_coset_count(n: int, r: int, mask: int) -> int:
    """Number of cosets of Gamma(mask) that intersect the ball B_r.

    A coset's minimal weight is the weight of its representative (clearing
    free coordinates never adds weight), and representatives are the subsets
    of the n - dim fixed coordinates, so the count is sum_{i<=r} C(n-dim, i).
    """
    _check_mask(n, mask)
    _check_radius(n, r)
    return ball_size(n - mask.bit_count(), r)


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional linear subspaces of F_2^n.

    Follows the math.comb convention: k > n gives 0, and a negative n or
    k is a ValueError.
    """
    _check_int(n, "n")
    _check_int(k, "k")
    if n < 0 or k < 0:
        raise ValueError(f"need n >= 0 and k >= 0, got k={k}, n={n}")
    if k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    out, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"gaussian binomial [{n} choose {k}]_2 is not integral")
    return out


def coset_value_class_sizes(dim: int) -> dict[int, int]:
    """How many of the 2^(2^dim) sign patterns on a dim-flat reach each sum.

    Brute force over all bit patterns, within the work budget (dim <= 4);
    sums range over {-2^dim, ..., 2^dim} in steps of 2.
    """
    _check_int(dim, "dimension")
    if not 0 <= dim <= MAX_ARITY:
        raise ValueError(f"a face has dimension 0..{MAX_ARITY}, got {dim}")
    _check_work(1 << dim, f"sign patterns on a {dim}-flat")
    size = 1 << dim
    counts = {s: 0 for s in range(-size, size + 1, 2)}
    for pattern in range(1 << size):
        counts[size - 2 * pattern.bit_count()] += 1
    return counts
