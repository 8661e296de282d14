"""Walsh-Hadamard and Moebius transforms, algebraic degree, convolution.

All arithmetic is exact.  There is one kernel per transform.  ``walsh_rows``
is the in-place numpy butterfly on (rows, 2^n) arrays of a dtype the caller
proves wide enough; ``hadamard_transform`` runs it at every length, in int64
or, for values too large for it (2^n * max|v| >= 2^62), on exact ints in an
object array.  The pure-Python butterfly ``_hadamard_in_place`` runs only
inside ``walsh_fast`` below ``_NUMPY_CUTOVER``, where numpy's call overhead
dominates.  A non-integral vector entry is a ``ValueError``.
``_moebius_table`` is the Moebius kernel: masked shifts, by the coordinate
masks of ``geometry``, on one Python int that packs R truth tables back to
back; ``degree`` reads the normal form against its weight-class masks.
Spectra and vectors are returned as plain ``list[int]`` of Python ints.
``walsh_fast`` (the spectrum of a function) and ``hadamard_transform`` (of an
integer vector) each run one butterfly, O(n 2^n); ``walsh_naive`` evaluates
the defining double sum directly, with no butterfly, and serves as the
independent oracle.  ``convolve_pm`` is likewise the direct sum over the
support of its vector, in int64 or else on exact ints in an object array, and
never reaches a butterfly, so ``check_restriction_identity``, whose right side
runs two (``walsh_fast`` of f, ``hadamard_transform`` of the masked
spectrum), really compares two different computations.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .core import BooleanFunction, ResourceCapError, pack_bits, unpack_bits
from .geometry import FaceMask, coordinate_masks, dual_face, face_indicator, weight_masks

NAIVE_ARITY_CAP = 12
# walsh_fast's pure-Python butterfly beats numpy call overhead below this arity
_NUMPY_CUTOVER = 7

IntegerVector = list[int]


def _hadamard_in_place(a: list[int]) -> list[int]:
    # stage i mixes index bit i-1; h runs 1, 2, 4, ...
    size = len(a)
    h = 1
    while h < size:
        for start in range(0, size, h * 2):
            for j in range(start, start + h):
                x = a[j]
                y = a[j + h]
                a[j] = x + y
                a[j + h] = x - y
        h *= 2
    return a


def walsh_rows(a: np.ndarray) -> np.ndarray:
    """In-place Hadamard butterfly along the last axis (length 2^n) of a
    C-contiguous integer array, e.g. (rows, 2^n); the caller's dtype must
    hold 2^n times the largest input magnitude."""
    size = a.shape[-1]
    h = 1
    while h < size:
        view = a.reshape(-1, 2, h)
        top = view[:, 0, :].copy()
        view[:, 0, :] += view[:, 1, :]
        view[:, 1, :] = top - view[:, 1, :]
        h *= 2
    return a


def _integer_array(values: Sequence[int]) -> np.ndarray:
    try:
        vec = [operator.index(v) for v in values]
    except TypeError as exc:
        raise ValueError(f"vector entries must be integers: {exc}") from None
    peak = max(map(abs, vec), default=0)
    return np.array(vec, dtype=np.int64 if peak < (1 << 62) // len(vec) else object)


def hadamard_transform(values: Sequence[int]) -> IntegerVector:
    """Integer Hadamard transform of a vector of length 2^n (exact).

    Applying it twice returns 2^n times the input.
    """
    size = len(values)
    if size == 0 or size & (size - 1):
        raise ValueError(f"vector length must be a power of two, got {size}")
    return walsh_rows(_integer_array(values)).tolist()


def _signs(f: BooleanFunction) -> list[int]:
    table = f.table
    return [1 - 2 * ((table >> k) & 1) for k in range(f.size)]


def walsh_fast(f: BooleanFunction) -> IntegerVector:
    """Walsh-Hadamard spectrum, values[y] = sum_x (-1)^(f(x) + <x,y>), via one
    butterfly, O(n 2^n)."""
    if f.n < _NUMPY_CUTOVER:
        return _hadamard_in_place(_signs(f))
    signs = 1 - 2 * unpack_bits(f.table, f.size).astype(np.int64)
    return walsh_rows(signs).tolist()


@lru_cache(maxsize=8)
def _character_matrix(n: int) -> np.ndarray:
    # C[y, x] = (-1)^<x, y>
    idx = np.arange(1 << n, dtype=np.uint32)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]).astype(np.int8) & 1
    return (1 - 2 * parity).astype(np.int8)


def walsh_naive(f: BooleanFunction) -> IntegerVector:
    """Walsh-Hadamard spectrum by direct evaluation of the defining double sum.

    O(4^n) work; the independent oracle for walsh_fast.
    """
    if f.n > NAIVE_ARITY_CAP:
        raise ResourceCapError(
            f"naive transform is O(4^n); arity {f.n} exceeds the cap of {NAIVE_ARITY_CAP}"
        )
    signs = 1 - 2 * unpack_bits(f.table, f.size).astype(np.int8)
    # int64 accumulation without an int64 copy of the int8 matrix
    values = np.einsum("yx,x->y", _character_matrix(f.n), signs, dtype=np.int64)
    return values.tolist()


def _moebius_table(table: int, n: int, rows: int = 1) -> int:
    # the only Moebius kernel: each stage XORs the bit-i-clear half onto the
    # bit-i-set half of every packed table at once
    for i, mask in enumerate(coordinate_masks(n, rows)):
        table ^= (table & mask) << (1 << i)
    return table


def truth_rows_from_anf(n: int, points: Sequence[int], coeffs: np.ndarray) -> np.ndarray:
    """Truth tables, as (R, 2^n) bit rows, of the R functions whose normal
    form has coefficient coeffs[k, j] at points[j] and 0 everywhere else."""
    anf = np.zeros((len(coeffs), 1 << n), dtype=np.uint8)
    anf[:, list(points)] = coeffs
    packed = _moebius_table(pack_bits(anf), n, len(anf))
    return unpack_bits(packed, anf.size).reshape(anf.shape)


def moebius(f: BooleanFunction) -> BooleanFunction:
    """Moebius transform: output[y] = XOR of f[x] over x below y coordinatewise.

    Maps a truth table to its algebraic normal form and back (involution).
    """
    return BooleanFunction(f.n, _moebius_table(f.table, f.n))


def degree(f: BooleanFunction) -> int:
    """Algebraic degree: largest monomial size in the normal form; 0 for constants."""
    anf = moebius(f).table
    masks = weight_masks(f.n)
    return next((w for w in range(f.n, 0, -1) if anf & masks[w]), 0)


def degree_space_log2(n: int, d: int) -> int:
    """log2 of the number of functions of degree <= d on F_2^n."""
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if not 0 <= d <= n:
        raise ValueError(f"degree bound must satisfy 0 <= d <= {n}, got {d}")
    return sum(comb(n, i) for i in range(d + 1))


def convolve_pm(f: BooleanFunction, g: Sequence[int]) -> IntegerVector:
    """Convolution of the sign vector of f with g: out[z] = sum_x (-1)^f(x) g[z^x].

    Computed as the direct sum out[z] = sum_w g[w] (-1)^f(z^w) over the
    support of g (a term with g[w] = 0 adds nothing), one shifted add of the
    sign vector per nonzero g[w]; never through the transform.
    """
    size = f.size
    if len(g) != size:
        raise ValueError(f"arity mismatch: function size {size}, vector length {len(g)}")
    arr = _integer_array(g)
    signs = 1 - 2 * unpack_bits(f.table, size).astype(arr.dtype)
    idx = np.arange(size)
    out = np.zeros(size, dtype=arr.dtype)
    for w in np.flatnonzero(arr):
        out += arr[w] * signs[idx ^ w]
    return out.tolist()


def check_restriction_identity(f: BooleanFunction, gamma: FaceMask) -> bool:
    """Exact check that convolving (-1)^f with the dual-face indicator equals
    the doubly-transformed, face-masked spectrum divided by 2^dim.

    The left side goes through convolve_pm, the right side through walsh_fast
    and one hadamard_transform of the masked spectrum; both are exact integers.
    """
    if f.n != gamma.n:
        raise ValueError(f"arity mismatch: function n={f.n}, mask n={gamma.n}")
    size = f.size
    lhs = convolve_pm(f, unpack_bits(face_indicator(dual_face(gamma)), size).tolist())

    spectrum = np.array(walsh_fast(f), dtype=np.int64)
    inside = unpack_bits(face_indicator(gamma), size)
    doubled = hadamard_transform((spectrum * inside).tolist())
    # |doubled| <= 2^(2n) <= 2^52 for n <= MAX_ARITY, so int64 is exact
    rhs, rem = np.divmod(np.array(doubled, dtype=np.int64), 1 << gamma.dim)
    return not rem.any() and lhs == rhs.tolist()
