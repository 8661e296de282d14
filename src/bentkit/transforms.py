"""Walsh-Hadamard and Moebius transforms, algebraic degree, convolution.

All arithmetic is exact.  There is one kernel per transform.  ``walsh_rows``
is the in-place numpy butterfly along axis 0 of a C-contiguous points-major
array, one vector (2^n,) or a block (2^n, rows), of a dtype the caller proves
wide enough: stage h pairs contiguous runs of h * rows entries, so many short
rows cost about what one long vector does, and one row is the same array in
either layout.  Blocks enter and leave the library as (rows, 2^n) arrays and
are transposed only around this kernel.  ``hadamard_transform`` runs it at
every length, on one vector or on a (rows, 2^n) integer block of any memory
order, copied points-major, in int64 or, for values too large for it (2^n *
max|v| >= 2^62), on exact ints in an object array.  A non-integral vector
entry is a ``ValueError``.  ``walsh_truth_rows`` transposes uint8 truth-table
rows, runs ``walsh_rows`` on their int32 signs and hands the spectra back as
C-contiguous (rows, 2^n); ``_spectrum``, its one single-function call,
serves ``walsh_fast`` at every arity and the bent tests, while
``bent.bent_rows`` (the census, ``prop1``, ``bent affine``),
``check_restriction_identity`` and the ``parseval`` suite run it on blocks of
same-arity rows; no other Walsh butterfly exists.
``_moebius_table`` is the Moebius kernel: masked shifts, by the coordinate
masks of ``geometry``, on one Python int that packs R truth tables back to
back; ``degree`` reads the normal form against its weight-class masks.
Inside the library spectra and vectors stay numpy integer arrays: ``_spectrum``
is one function's spectrum as an int32 row, and ``hadamard_transform`` and
``convolve_pm`` take an integer array as it is, with no per-entry pass, as
well as any sequence of ints (a 2-D block only as an array).  Lists appear
only at the public boundary: every public function returns plain lists of
Python ints.
``walsh_fast`` (the spectrum of a function) and ``hadamard_transform`` (of an
integer vector) each run one butterfly, O(n 2^n).  The independent oracle
has one kernel too, ``_naive_spectra``: it reads each W(y) = 2^n - 2 wt(f +
<., y>) of a block of truth tables as the popcounts (``np.bitwise_count``) of
the tables, packed in uint64 words, XORed with the packed character tables
of ``_characters``, and never reaches a butterfly.  ``walsh_naive`` is its
one-row call, the faster route at small n, where ``_walsh_by_arity`` (for
``check_lemma1`` and the 2-flat closed form) takes it; the ``parseval`` suite
compares whole blocks of butterfly spectra with it.
``convolve_pm`` is likewise the direct sum over the support of its vector,
for one function or for a (rows, 2^n) block of same-arity rows, with one
kernel, ``_convolve_rows``: int8 runs of low-permuted sign copies gathered a
slice of the support at a time, summed in int64 or else on exact ints in an
object array, and never a butterfly.  So ``check_restriction_identity``,
which takes a sequence of (function, mask) pairs of one arity and makes one
``convolve_pm`` call for its left side and two butterflies for its right
(``walsh_truth_rows`` of the functions, ``hadamard_transform`` of their
masked spectra), each once per call, really compares two different
computations.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from . import core
from .core import BooleanFunction, _check_mask, _check_same_arity, _check_work, pack_bits
from .core import unpack_bits, unpack_rows
from .geometry import _ball_index, _face_indicator, coordinate_masks, weight_masks

IntegerVector = list[int]

# _walsh_by_arity runs walsh_naive up to this arity and walsh_fast above it;
# microseconds per call, best of 7 over 20 random functions (2-core Xeon):
#   n      1     2     3     4     5     6     7     8     9    10
#   naive  3.1   3.1   3.0   3.1   3.3   3.8  13.3  17.2  33.5  77.7
#   fast   7.4  10.2  15.5  19.7  25.5  29.4  35.6  44.6  56.4  81.3
# The oracle is faster warm up to n=9, but each process first builds its
# _characters(n) once per arity, 0.12-0.49 ms at n=8: more than the 3 calls
# at n=8 of a small-n benchmark session save, so the cutover stays at 7
_NAIVE_SPECTRUM_MAX_N = 7
# _naive_spectra XORs a block of tables against 2^_SLICE_LOG2 characters at
# once; at least 6, so that the 64 points of a word share x >> _SLICE_LOG2
_SLICE_LOG2 = 8


def walsh_rows(a: np.ndarray) -> np.ndarray:
    """In-place Hadamard butterfly along axis 0 (length 2^n) of a C-contiguous
    integer array, one vector (2^n,) or a points-major block (2^n, rows):
    stage h views it as (2^n / 2h, 2, h * rows), so each half it pairs is one
    contiguous run.  The caller's dtype must hold 2^n times the largest input
    magnitude; any other memory order is a ``ValueError``, since a reshape
    would transform a copy."""
    if not a.flags.c_contiguous:
        raise ValueError("walsh_rows transforms in place and needs a C-contiguous array")
    size = a.shape[0]
    h = 1
    while h < size:
        view = a.reshape(size // (2 * h), 2, -1)
        top = view[:, 0].copy()
        view[:, 0] += view[:, 1]
        np.subtract(top, view[:, 1], out=view[:, 1])
        h *= 2
    return a


def walsh_truth_rows(truth: np.ndarray) -> np.ndarray:
    """Walsh spectra of 0/1 truth-table rows (rows, 2^n), or of one row
    (2^n,), as a C-contiguous int32 array of the same shape: the uint8 rows
    are transposed points-major and one ``walsh_rows`` butterfly runs on their
    signs 1 - 2 * truth.  No butterfly stage exceeds 2^n <= 2^MAX_ARITY = 2^26
    in magnitude, so int32 is exact.  A single row is the same array in both
    layouts and is never copied for the transpose."""
    signs = 1 - 2 * np.ascontiguousarray(truth.T).astype(np.int32)
    return np.ascontiguousarray(walsh_rows(signs).T)


def _peak(a: np.ndarray) -> int:
    """Largest magnitude in a non-empty integer array, as an exact int:
    ``np.abs`` wraps at -2^63, and uint64 passes int64."""
    return max(int(a.max()), -int(a.min()))


def _integer_array(values: Sequence[int], ndim: int = 1) -> np.ndarray:
    # always a new C-contiguous array, since walsh_rows transforms it in place;
    # a 2-D (rows, 2^n) block comes back points-major, (2^n, rows), with one
    # dtype for all its rows
    if isinstance(values, np.ndarray) and values.ndim == ndim and values.dtype.kind in "iu":
        vec, peak = values.T, _peak(values) if values.size else 0  # integral already
    else:
        # exact ints entry by entry, a 2-D block (an object array past int64) points-major
        try:
            vec = [operator.index(v) for v in (values.T.ravel() if ndim == 2 else values)]
        except TypeError as exc:
            raise ValueError(f"vector entries must be integers: {exc}") from None
        peak = max(map(abs, vec), default=0)
    shape = values.shape[::-1] if ndim == 2 else (len(values),)
    dtype = np.int64 if peak < (1 << 62) // shape[0] else object
    return np.array(vec, dtype=dtype, order="C").reshape(shape)


def hadamard_transform(values: Sequence[int]) -> Union[IntegerVector, list[IntegerVector]]:
    """Integer Hadamard transform of a vector of length 2^n (exact), or of
    every row of a 2-D (rows, 2^n) integer array in one butterfly, returned
    as a list of rows.

    Applying it twice returns 2^n times the input.
    """
    ndim = 2 if isinstance(values, np.ndarray) and values.ndim == 2 else 1
    size = values.shape[1] if ndim == 2 else len(values)
    if size == 0 or size & (size - 1):
        raise ValueError(f"vector length must be a power of two, got {size}")
    return walsh_rows(_integer_array(values, ndim)).T.tolist()


def _spectrum(f: BooleanFunction) -> np.ndarray:
    """Walsh spectrum of f as the butterfly's int32 row, |W| <= 2^n: the one
    single-function butterfly.  A caller that squares it widens it first."""
    return walsh_truth_rows(unpack_bits(f.table, f.size))


def walsh_fast(f: BooleanFunction) -> IntegerVector:
    """Walsh-Hadamard spectrum, values[y] = sum_x (-1)^(f(x) + <x,y>), via one
    ``_spectrum`` butterfly at every arity, O(n 2^n)."""
    return _spectrum(f).tolist()


@lru_cache(maxsize=16)
def _characters(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``_naive_spectra`` reads at arity n, (low, high, values).  With
    s = min(n, ``_SLICE_LOG2``) (at least 6), the character table l_y of
    <x, y>, packed in uint64 words of 64 points, is low[y mod 2^s] XOR
    high[y >> s]: ``low`` (2^s, words) holds the first characters, XORs of
    the coordinate lines of ``geometry`` tiled across the words, and ``high``
    (2^(n - s), words), one zero row when s = n, is all ones in the words
    whose points have <x >> s, y >> s> odd (a word's 64 points share x >> s).
    values[k] = 2^n - 2k is W(y) where wt(f + l_y) = k.  Cached per arity: at
    n=12 the three take 172 KB, for all of n = 1..12 334 KB, all read-only."""
    lo, words = min(n, _SLICE_LOG2), max(1, (1 << n) >> 6)
    full = (1 << (1 << lo)) - 1
    chars = [0]
    for mask in coordinate_masks(lo):
        chars += [c ^ full ^ mask for c in chars]  # y with bit i set: XOR in the line x_i = 1
    data = b"".join(c.to_bytes(max(8, (1 << lo) >> 3), "little") for c in chars)
    low = np.frombuffer(data, dtype="<u8").reshape(len(chars), -1)
    low = np.tile(low, (1, words // low.shape[1]))
    high_x = (np.arange(words) << 6) >> lo
    parity = np.bitwise_count(np.arange(1 << (n - lo))[:, None] & high_x) & 1
    values = (1 << n) - 2 * np.arange((1 << n) + 1)
    tables = (low, (-parity.astype(np.int64)).view(np.uint64), values)
    for table in tables:  # shared by every caller through the cache
        table.flags.writeable = False
    return tables


def _naive_spectra(n: int, tables: Sequence[int]) -> np.ndarray:
    """Walsh spectra of the n-ary truth tables ``tables`` by the defining sum,
    W(y) = 2^n - 2 wt(t XOR l_y), as a (rows, 2^n) int64 block: the tables,
    packed in uint64 words, are XORed against the character tables of
    ``_characters`` 2^min(n, _SLICE_LOG2) at a time, each slice's high part
    XORed into the tables first, and popcounted with ``np.bitwise_count``;
    a one-word table (n <= 6) takes one XOR against all its characters.
    O(4^n / 64) word operations a row and no butterfly: the independent
    oracle.  The caller checks the work."""
    low, high, values = _characters(n)
    words = low.shape[1]
    if words == 1:
        ones = np.bitwise_count(np.array(tables, dtype=np.uint64)[:, None] ^ low[:, 0])
    else:
        data = b"".join(t.to_bytes(8 * words, "little") for t in tables)
        packed = np.frombuffer(data, dtype="<u8").reshape(-1, words)
        slices = [np.bitwise_count((packed ^ h)[:, None] ^ low).sum(axis=2) for h in high]
        ones = np.concatenate(slices, axis=1)
    return values.take(ones)


def walsh_naive(f: BooleanFunction) -> IntegerVector:
    """Walsh-Hadamard spectrum by the defining sum, W(y) = 2^n - 2 wt(f + l_y)
    with l_y the table of <x, y>: one row of ``_naive_spectra``.  O(4^n) bit
    work, within the budget up to n=12; the independent oracle for walsh_fast."""
    if 2 * f.n > core.MAX_WORK_LOG2:  # compared first: check_lemma1 calls this in bulk
        _check_work(2 * f.n, f"terms of the defining sum for the naive transform at n={f.n}")
    return _naive_spectra(f.n, [f.table])[0].tolist()


def _walsh_by_arity(f: BooleanFunction) -> IntegerVector:
    """Spectrum of f by the faster exact route: ``walsh_naive`` up to n =
    ``_NAIVE_SPECTRUM_MAX_N``, else ``walsh_fast``, past the oracle's budget."""
    return (walsh_naive if f.n <= _NAIVE_SPECTRUM_MAX_N else walsh_fast)(f)


def _moebius_table(table: int, n: int, rows: int = 1) -> int:
    # the only Moebius kernel: each stage XORs the bit-i-clear half onto the
    # bit-i-set half of every packed table at once
    for i, mask in enumerate(coordinate_masks(n, rows)):
        table ^= (table & mask) << (1 << i)
    return table


def truth_rows_from_anf(n: int, r: int, coeffs: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
    """Truth tables, as (R, 2^n) bit rows, of the R functions whose normal
    form has, at point j of ``ball_points(n, r)``, bit j of the coefficient
    word coeffs[k], and 0 off the ball: words of a uint64 array, or ints of
    any width, unpacked by ``core.unpack_rows``."""
    ball = _ball_index(n, r)
    anf = np.zeros((len(coeffs), 1 << n), dtype=np.uint8)
    anf[:, ball] = unpack_rows(coeffs, len(ball))
    packed = _moebius_table(pack_bits(anf), n, len(anf))
    return unpack_bits(packed, anf.size).reshape(anf.shape)


def moebius(f: BooleanFunction) -> BooleanFunction:
    """Moebius transform: output[y] = XOR of f[x] over x below y coordinatewise.

    Maps a truth table to its algebraic normal form and back (involution).
    """
    return BooleanFunction(f.n, _moebius_table(f.table, f.n))


def degree(f: BooleanFunction) -> int:
    """Algebraic degree: largest monomial size in the normal form; 0 for constants."""
    anf = _moebius_table(f.table, f.n)
    masks = weight_masks(f.n)
    return next((w for w in range(f.n, 0, -1) if anf & masks[w]), 0)


def _convolve_rows(n: int, tables: Sequence[int], arr: np.ndarray) -> np.ndarray:
    """The direct sum out[z] = sum_w g[w] (-1)^f(z^w), for the truth tables
    ``tables`` and the rows of g in ``arr`` ((rows, 2^n), int64 or object),
    over each row's support, as a (rows, 2^n) array.  Write z ^ w as high
    bits and the low k = min(n, 3): XOR by w's low bits permutes the points
    inside each run of 2^k, XOR by its high bits permutes the runs.  So the
    2^k low-permuted int8 copies of each row's signs are built once (8 bytes
    a point), and a term is gathered as 2^(n-k) runs, each one word of 2^k
    bytes, with one ``take`` per slice of ``core.CHUNK_POINTS >> n`` terms.
    Weights multiply in the narrowest of int8, int16 and int64 that holds
    max|g|, and each row's adjacent terms are summed in int64, or on exact
    ints in an object array.  A row of more than 2^MAX_WORK_LOG2 truth-table
    points (support x 2^n) is refused before any gather."""
    rows, size = arr.shape
    k = min(n, 3)
    row_of, w = np.nonzero(arr)  # row-major: each row's terms are adjacent
    counts = np.bincount(row_of, minlength=rows)
    widest = int(counts.max())
    what = f"truth-table points for {widest} nonzero entries of g at n={n}"
    _check_work(((widest << n) - 1).bit_length(), what)
    weights = arr[row_of, w]
    if arr.dtype != object and len(weights):
        peak = _peak(weights)  # a weight of -128 times a sign of -1 leaves int8
        narrow = np.int8 if peak < 1 << 7 else np.int16 if peak < 1 << 15 else np.int64
        weights = weights.astype(narrow)
    signs = 1 - 2 * unpack_rows(tables, size).view(np.int8)
    low = np.arange(1 << k)
    # copies[r, j, v, x] = signs[r, j * 2^k + (x ^ v)]; word (r, j, v), one
    # run of 2^k bytes, is word (r << n) | (j << k) | v of the flat view, so
    # term (r, w) reads word (z_high << k) ^ ((r << n) | w) at output run z_high
    copies = signs.reshape(rows, -1, 1 << k).take(low ^ low[:, None], axis=2)
    words = copies.reshape(-1, 1 << k).view(f"i{1 << k}").ravel()
    runs = np.arange(0, size, 1 << k)
    keys = (row_of << n) | w
    first = [0, *np.cumsum(counts).tolist()]  # row r's terms are first[r]:first[r + 1]
    out = np.zeros((rows, size), dtype=arr.dtype)
    step = max(1, core.CHUNK_POINTS >> n)
    for start in range(0, len(w), step):
        stop = min(start + step, len(w))
        terms = words.take(runs ^ keys[start:stop, None]).view(np.int8) * weights[start:stop, None]
        for row in range(row_of[start], row_of[stop - 1] + 1):
            a, b = max(first[row], start) - start, min(first[row + 1], stop) - start
            if a < b:
                out[row] += terms[a:b].sum(axis=0, dtype=out.dtype)
    return out


def convolve_pm(
    f: Union[BooleanFunction, Sequence[BooleanFunction]], g: Union[Sequence[int], np.ndarray]
) -> Union[IntegerVector, list[IntegerVector]]:
    """Convolution of the sign vector of f with g: out[z] = sum_x (-1)^f(x) g[z^x].

    f is one function and g a vector of length 2^n, or f is a sequence of
    functions of one arity and g a (len(f), 2^n) integer array, row i
    convolved with f[i], returned as a list of rows.  Both are one kernel,
    ``_convolve_rows``: the direct sum out[z] = sum_w g[w] (-1)^f(z^w) over
    the support of each row (a term with g[w] = 0 adds nothing), gathered a
    slice of at most ``core.CHUNK_POINTS >> n`` support points at a time;
    never through the transform.  A row of more than 2^MAX_WORK_LOG2
    truth-table points (support size x 2^n) is refused.
    """
    if isinstance(f, BooleanFunction):
        if len(g) != f.size:
            raise ValueError(f"arity mismatch: function size {f.size}, vector length {len(g)}")
        return _convolve_rows(f.n, [f.table], _integer_array(g)[None])[0].tolist()
    if not (isinstance(g, np.ndarray) and g.ndim == 2):
        raise ValueError("a sequence of functions needs a 2-D (rows, 2^n) array g")
    if len(f) != len(g):
        raise ValueError(f"{len(f)} functions need {len(f)} rows of g, got {len(g)}")
    if not f:
        return []
    n = f[0].n
    for other in f:
        _check_same_arity(n, other.n, "other function")
    if g.shape[1] != 1 << n:
        raise ValueError(f"arity mismatch: function size {1 << n}, vector length {g.shape[1]}")
    return _convolve_rows(n, [h.table for h in f], _integer_array(g, 2).T).tolist()


def check_restriction_identity(pairs: Sequence[tuple[BooleanFunction, int]]) -> list[bool]:
    """Exact check, for each (f, mask) pair and the face Gamma(mask), that
    convolving (-1)^f with the dual-face indicator equals the
    doubly-transformed, face-masked spectrum divided by 2^dim; one bool per
    pair, every function of one arity.

    The left side is one ``convolve_pm`` block, of the functions with their
    dual-face indicators scaled by 2^dim, whose per-row work cap refuses
    before any butterfly runs.  The right side is one block too: one
    ``walsh_truth_rows`` of all the functions, masked row by row by the face
    indicators, and one ``hadamard_transform`` of it.  Both are exact
    integers, and the rows compare as lists: lhs * 2^dim == doubled.
    """
    if not pairs:
        return []
    n = pairs[0][0].n
    for g, m in pairs:
        _check_same_arity(n, g.n, "other function")
        _check_mask(n, m)
    size, full = 1 << n, (1 << n) - 1
    functions = [g for g, _ in pairs]
    scales = np.array([1 << m.bit_count() for _, m in pairs], dtype=np.int64)
    duals = unpack_rows([_face_indicator(n, m ^ full) for _, m in pairs], size)
    lhs = convolve_pm(functions, duals * scales[:, None])
    truth = unpack_rows([g.table for g in functions], size)
    faces = unpack_rows([_face_indicator(n, m) for _, m in pairs], size)
    doubled = hadamard_transform(walsh_truth_rows(truth) * faces)
    return [left == right for left, right in zip(lhs, doubled)]
