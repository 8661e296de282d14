"""Degree-bounded reconstruction from Hamming balls, and the face-restriction
implication checker relating spectra on a face to coset sums on its dual.

A function of degree <= r is determined by its values on the ball B_r: its
normal form is supported on the ball, and on a down-set the normal form only
reads values inside the set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BooleanFunction, _check_arity, _check_int, _check_mask, _check_radius, _check_same_arity,
    pack_bits, unpack_bits,
)
from .geometry import _subcube_points, ball_points, ball_size, coset_spectrum, weight_masks
from .transforms import _moebius_table, _walsh_by_arity, degree


@dataclass(frozen=True)
class BallAssignment:
    """Bits assigned on the ball B_r, listed in (weight, index) point order."""

    n: int
    r: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_arity(self.n)
        _check_radius(self.n, self.r)
        expected = ball_size(self.n, self.r)
        if len(self.values) != expected:
            raise ValueError(
                f"ball of radius {self.r} in n={self.n} has {expected} points, "
                f"got {len(self.values)} values"
            )
        for v in self.values:
            if type(v) is not int or v not in (0, 1):  # inline: a call per entry is slow
                _check_int(v, "assignment entries")
                raise ValueError(f"assignment entries must be bits, got {v}")

    @classmethod
    def from_function(cls, f: BooleanFunction, r: int) -> "BallAssignment":
        """Restriction of f to the ball B_r, gathered from one unpacked table."""
        bits = unpack_bits(f.table, f.size)[list(ball_points(f.n, r))]
        return cls(f.n, r, tuple(bits.tolist()))


def reconstruct_from_ball(a: BallAssignment) -> BooleanFunction:
    """The unique function of degree <= r extending the ball assignment.

    With t the assignment extended by zeros, the result is
    moebius(moebius(t) AND ball): B_r is a down-set, so the normal-form
    coefficients of t on the ball only read values on the ball.
    """
    ball = sum(weight_masks(a.n)[: a.r + 1])  # disjoint classes: the sum is the union
    bits = np.zeros(1 << a.n, dtype=np.uint8)
    bits[list(ball_points(a.n, a.r))] = a.values
    assigned = pack_bits(bits)
    result = BooleanFunction(a.n, _moebius_table(_moebius_table(assigned, a.n) & ball, a.n))
    if degree(result) > a.r:
        raise ArithmeticError(f"reconstruction has degree above {a.r}")
    if result.table & ball != assigned:
        raise ArithmeticError("reconstruction disagrees with the assignment on the ball")
    return result


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
