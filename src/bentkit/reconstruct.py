"""Degree-bounded reconstruction from Hamming balls, and the face-restriction
implication checker relating spectra on a face to coset sums on its dual.

A function of degree <= r is determined by its values on the ball B_r: its
normal form is supported on the ball, and on a down-set the normal form only
reads values inside the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import BooleanFunction, _check_arity, pack_bits, unpack_bits
from .geometry import (
    FaceMask,
    ball_points,
    coset_spectrum,
    dual_face,
    subcube_points,
    weight_masks,
)
from .transforms import degree, moebius, walsh_fast


@dataclass(frozen=True)
class BallAssignment:
    """Bits assigned on the ball B_r, listed in (weight, index) point order."""

    n: int
    r: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_arity(self.n)
        if not 0 <= self.r <= self.n:
            raise ValueError(f"radius must satisfy 0 <= r <= {self.n}, got {self.r}")
        expected = sum(comb(self.n, i) for i in range(self.r + 1))
        if len(self.values) != expected:
            raise ValueError(
                f"ball of radius {self.r} in n={self.n} has {expected} points, "
                f"got {len(self.values)} values"
            )
        for v in self.values:
            if type(v) is not int or v not in (0, 1):
                raise ValueError(f"assignment entries must be bits, got {v!r}")

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
    anf = moebius(BooleanFunction(a.n, assigned)).table & ball
    result = moebius(BooleanFunction(a.n, anf))
    if degree(result) > a.r:
        raise ArithmeticError(f"reconstruction has degree above {a.r}")
    if result.table & ball != assigned:
        raise ArithmeticError("reconstruction disagrees with the assignment on the ball")
    return result


def lemma1_premise(f: BooleanFunction, g: BooleanFunction, gamma: FaceMask) -> bool:
    """True iff the spectra of f and g agree at every point of the face."""
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} != {g.n}")
    if gamma.n != f.n:
        raise ValueError(f"arity mismatch: function n={f.n}, mask n={gamma.n}")
    wf = walsh_fast(f)
    wg = walsh_fast(g)
    return all(wf[y] == wg[y] for y in subcube_points(gamma))


def lemma1_conclusion(f: BooleanFunction, g: BooleanFunction, gamma: FaceMask) -> bool:
    """True iff f and g have equal sums on every coset of the dual face."""
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} != {g.n}")
    if gamma.n != f.n:
        raise ValueError(f"arity mismatch: function n={f.n}, mask n={gamma.n}")
    dual = dual_face(gamma)
    return coset_spectrum(f, dual) == coset_spectrum(g, dual)


def check_lemma1(f: BooleanFunction, g: BooleanFunction, gamma: FaceMask) -> dict[str, bool]:
    """Evaluate both sides of the implication: spectra equal on a face implies
    equal coset sums on the dual face.  ``holds`` must always be true."""
    premise = lemma1_premise(f, g, gamma)
    conclusion = lemma1_conclusion(f, g, gamma)
    return {
        "premise": premise,
        "conclusion": conclusion,
        "holds": (not premise) or conclusion,
    }
