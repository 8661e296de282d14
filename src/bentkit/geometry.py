"""Coordinate faces of the hypercube, their cosets, and Hamming balls.

A face is the subcube Gamma(mask) = {x : x AND NOT mask = 0}: the set bits of
``mask`` are the free coordinates, every face contains the origin.  Cosets of
a face are keyed by their minimal-index member, which is the point with all
free coordinates cleared; a coset is its face shifted by that representative.
The point-set masks on truth tables, ``coordinate_masks``, ``weight_masks``
and ``face_indicator``, are built here and nowhere else.  A Hamming ball is
the plain tuple of its points that ``ball_points`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .core import BooleanFunction, ResourceCapError, _check_arity

_PATTERN_DIM_CAP = 4


@dataclass(frozen=True)
class FaceMask:
    """Subcube of F_2^n spanned by the coordinates set in ``mask``.

    A mask is an O(1) value, so the arity cap does not apply to it; it
    applies to the truth tables that faces are used with.
    """

    n: int
    mask: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"arity must be an int >= 1, got {self.n!r}")
        if not isinstance(self.mask, int) or isinstance(self.mask, bool):
            raise ValueError(f"mask must be an int, got {self.mask!r}")
        if self.mask < 0 or self.mask.bit_length() > self.n:
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @property
    def dim(self) -> int:
        return self.mask.bit_count()

    @property
    def size(self) -> int:
        return 1 << self.dim


def _submasks(mask: int) -> list[int]:
    # every s with s AND NOT mask = 0, ascending: (s - mask) & mask follows s
    points = [0]
    while s := (points[-1] - mask) & mask:
        points.append(s)
    return points


def subcube_points(m: FaceMask) -> list[int]:
    """All points of Gamma(m), ascending by index."""
    return _submasks(m.mask)


def dual_face(m: FaceMask) -> FaceMask:
    """The face whose points are orthogonal to every point of Gamma(m)."""
    return FaceMask(m.n, ~m.mask & ((1 << m.n) - 1))


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


def face_indicator(m: FaceMask) -> int:
    """Indicator of Gamma(m): the AND of the coordinate masks of its fixed coordinates."""
    indicator = (1 << (1 << m.n)) - 1
    for i, mask in enumerate(coordinate_masks(m.n)):
        if not (m.mask >> i) & 1:
            indicator &= mask
    return indicator


def coset_spectrum(f: BooleanFunction, m: FaceMask) -> dict[int, int]:
    """Coset sums of every coset of Gamma(m), keyed by minimal-index representative."""
    if f.n != m.n:
        raise ValueError(f"arity mismatch: function n={f.n}, mask n={m.n}")
    indicator, size = face_indicator(m), m.size
    reps = _submasks(~m.mask & ((1 << m.n) - 1))
    return {rep: size - 2 * ((f.table >> rep) & indicator).bit_count() for rep in reps}


def ball_points(n: int, r: int) -> tuple[int, ...]:
    """Hamming ball B_r: all points of weight <= r, sorted by (weight, index)."""
    _check_arity(n)
    if not 0 <= r <= n:
        raise ValueError(f"radius must satisfy 0 <= r <= {n}, got {r}")
    # combinations of descending bits are descending: list weights r..0, reverse
    bits = [1 << i for i in reversed(range(n))]
    members = [x for w in range(r, -1, -1) for x in map(sum, combinations(bits, w))]
    return tuple(reversed(members))


def covering_coset_count(n: int, r: int, m: FaceMask) -> int:
    """Number of cosets of Gamma(m) that intersect the ball B_r.

    A coset's minimal weight is the weight of its representative (clearing
    free coordinates never adds weight), and representatives are the subsets
    of the n - dim fixed coordinates, so the count is sum_{i<=r} C(n-dim, i).
    """
    if m.n != n:
        raise ValueError(f"arity mismatch: n={n}, mask n={m.n}")
    if not 0 <= r <= n:
        raise ValueError(f"radius must satisfy 0 <= r <= {n}, got {r}")
    return sum(comb(n - m.dim, i) for i in range(r + 1))


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional linear subspaces of F_2^n.

    Follows the math.comb convention: k outside [0, n] gives 0,
    negative n is rejected.
    """
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

    Brute force over all bit patterns; sums range over {-2^dim, ..., 2^dim}
    in steps of 2.
    """
    if not 0 <= dim <= _PATTERN_DIM_CAP:
        raise ResourceCapError(
            f"pattern enumeration over 2^(2^{dim}) patterns exceeds the dim cap of {_PATTERN_DIM_CAP}"
        )
    size = 1 << dim
    counts = {s: 0 for s in range(-size, size + 1, 2)}
    for pattern in range(1 << size):
        counts[size - 2 * pattern.bit_count()] += 1
    return counts
