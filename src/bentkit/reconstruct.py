"""Degree-bounded reconstruction from Hamming balls, and the face-restriction
implication checker relating spectra on a face to coset sums on its dual.

A function of degree <= r is determined by its values on the ball B_r: its
normal form is supported on the ball, and on a down-set the normal form only
reads values inside the set.  Ball values are scattered through
``geometry._ball_index``, the ball's one cached array form.
"""

from __future__ import annotations

import numpy as np

from .core import BooleanFunction, _check_arity, _check_mask, _check_radius, _check_same_arity
from .core import pack_bits, unpack_bits
from .geometry import _ball_index, _subcube_points, ball_size, coset_spectrum, weight_masks
from .transforms import _moebius_table, _walsh_by_arity


def reconstruct_from_ball(n: int, r: int, values: np.ndarray) -> np.ndarray:
    """The functions of degree <= r extending the rows of the (rows, |B_r|)
    int bit block ``values`` (``ball_points`` order), as (rows, 2^n) uint8
    truth rows: moebius(moebius(t) AND ball) for t a row extended by zeros,
    since on the down-set B_r the normal form only reads values on the ball.
    All rows run through one Moebius pair, packed end to end.  A bad block is
    a ValueError before the ball is listed; a result of degree above r, or not
    equal to its row on the ball, is an ArithmeticError naming the first one.
    """
    _check_arity(n)
    _check_radius(n, r)
    expected = ball_size(n, r)
    if not isinstance(values, np.ndarray) or values.dtype.kind not in "iu":
        got = getattr(values, "dtype", type(values).__name__)
        raise ValueError(f"assignment entries must be an int, got a block of {got}")
    if values.ndim != 2:
        raise ValueError(f"a ball block has shape (rows, {expected}), got {values.shape}")
    if (got := values.shape[1]) != expected:
        raise ValueError(f"ball of radius {r} in n={n} has {expected} points, got {got} values")
    if (bad := values[(values != 0) & (values != 1)]).size:
        raise ValueError(f"assignment entries must be bits, got {bad[0]}")
    rows, size = len(values), 1 << n
    bits = np.zeros((rows, size), dtype=np.uint8)
    bits[:, _ball_index(n, r)] = values
    # weight classes are disjoint: their sum is the ball, tiled once per row
    ball = pack_bits(np.tile(unpack_bits(sum(weight_masks(n)[: r + 1]), size), rows))
    assigned = pack_bits(bits)
    result = _moebius_table(_moebius_table(assigned, n, rows) & ball, n, rows)
    # the first failing row holds the lowest set bit b: it is row b >> n
    if high := _moebius_table(result, n, rows) & ~ball:
        row = (high & -high).bit_length() - 1 >> n
        raise ArithmeticError(f"reconstruction of row {row} has degree above {r}")
    if wrong := (result & ball) ^ assigned:
        row = (wrong & -wrong).bit_length() - 1 >> n
        raise ArithmeticError(f"reconstruction of row {row} disagrees on the ball")
    return unpack_bits(result, rows * size).reshape(rows, size)


def check_lemma1(f: BooleanFunction, g: BooleanFunction, mask: int) -> dict[str, bool]:
    """Evaluate both sides of the implication for the face Gamma(mask).  The
    premise: the spectra of f and g agree at every point of the face.  The
    conclusion: f and g have equal sums on every coset of the dual face.
    ``holds`` must always be true.  The spectra come from the defining sum
    (``walsh_naive``) up to n=7, where it is faster, and from the butterfly
    (``walsh_fast``) above it."""
    _check_same_arity(f.n, g.n, "second function")
    _check_mask(f.n, mask)
    # the coset sums first: past the work budget coset_spectrum refuses
    # before either spectrum is built
    dual = mask ^ ((1 << f.n) - 1)
    conclusion = coset_spectrum(f, dual) == coset_spectrum(g, dual)
    wf, wg = _walsh_by_arity(f), _walsh_by_arity(g)
    premise = all(wf[y] == wg[y] for y in _subcube_points(mask))
    return {
        "premise": premise,
        "conclusion": conclusion,
        "holds": (not premise) or conclusion,
    }
