"""Reference arithmetic for the benchmark's inputs and expected outputs.

Nothing here imports bentkit.  Every expected answer the benchmark checks
comes either from a closed form or from the few numpy kernels below, so a
defect in bentkit cannot hide inside its own expectation.

Conventions match bentkit's public literal format: bit k of a truth table is
the value at the point with index k, and x_1 is the least significant bit of
the index.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

# Published bent-function counts (all bent functions at these arities).
BENT_COUNTS = {2: 8, 4: 896}
# suite_lemma1 at n=3 checks every function pair on each of the 3
# one-dimensional faces: 3 * 256 * 256 pairs, 14700 of them with equal
# spectra on the face.
LEMMA1_CHECKS = 3 * 256 * 256
LEMMA1_PREMISE_TRUE = 14700


def literal(n: int, table: int) -> str:
    """``bf:<n>:<hex>`` with exactly max(1, ceil(2^n / 4)) lowercase hex digits."""
    digits = max(1, ((1 << n) + 3) // 4)
    return f"bf:{n}:{table:0{digits}x}"


def bits_of(table: int, n: int) -> np.ndarray:
    """Truth table int -> uint8 bit vector in index order."""
    size = 1 << n
    raw = np.frombuffer(table.to_bytes(max(1, size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].copy()


def table_of(bits: np.ndarray) -> int:
    """uint8 bit vector in index order -> truth table int."""
    return int.from_bytes(np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(), "little")


def popcount(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values)


def moebius(bits: np.ndarray) -> np.ndarray:
    """Binary Moebius transform (truth table <-> algebraic normal form)."""
    a = bits.astype(np.uint8).copy()
    h = 1
    while h < a.size:
        view = a.reshape(-1, 2, h)
        view[:, 1, :] ^= view[:, 0, :]
        h *= 2
    return a


def walsh(bits: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard spectrum sum_x (-1)^(f(x) + <x,y>) as int64."""
    a = 1 - 2 * bits.astype(np.int64)
    h = 1
    while h < a.size:
        view = a.reshape(-1, 2, h)
        top = view[:, 0, :].copy()
        view[:, 0, :] += view[:, 1, :]
        view[:, 1, :] = top - view[:, 1, :]
        h *= 2
    return a


def is_bent(bits: np.ndarray, n: int) -> bool:
    return n % 2 == 0 and bool(np.all(np.abs(walsh(bits)) == 1 << (n // 2)))


def anf_degree(anf: np.ndarray) -> int:
    """Largest monomial size in a normal-form bit vector; 0 for constants."""
    support = np.flatnonzero(anf)
    return int(popcount(support.astype(np.uint32)).max()) if support.size else 0


def coset_sums(bits: np.ndarray, mask: int) -> dict[int, int]:
    """Sum of (-1)^f over each coset of the face spanned by ``mask``,
    keyed by the coset's member with every free coordinate cleared."""
    size = bits.size
    index = np.arange(size)
    rep = index & ~mask & (size - 1)
    sums = np.bincount(rep, weights=1 - 2 * bits.astype(np.int64), minlength=size)
    return {int(r): int(sums[r]) for r in np.flatnonzero((index & mask) == 0)}


def ball_order(n: int, r: int) -> list[int]:
    """Points of weight <= r, sorted by (weight, index)."""
    return sorted((x for x in range(1 << n) if x.bit_count() <= r), key=lambda x: (x.bit_count(), x))


@dataclass(frozen=True)
class KnownFunction:
    """A function together with answers known from its construction."""

    n: int
    bits: np.ndarray
    anf: np.ndarray
    degree: int

    @property
    def table(self) -> int:
        return table_of(self.bits)

    @property
    def literal(self) -> str:
        return literal(self.n, self.table)


def random_anf_function(n: int, d: int, rng: random.Random) -> KnownFunction:
    """Uniform normal form over monomials of size <= d, with one monomial of
    size exactly d forced on, so the degree is exactly d."""
    index = np.arange(1 << n, dtype=np.uint32)
    weights = popcount(index)
    anf = bits_of(rng.getrandbits(1 << n), n) & (weights <= d)
    top = np.flatnonzero(weights == d)
    anf[top[rng.randrange(top.size)]] = 1
    return KnownFunction(n, moebius(anf), anf, d)


@dataclass(frozen=True)
class MaioranaMcFarland:
    """f(x, y) = <x, pi(y)> + g(y) on F_2^h x F_2^h, x in the low h index bits.

    Its spectrum is W(a, b) = 2^h (-1)^dual(a, b) with
    dual(a, b) = <b, pi^-1(a)> + g(pi^-1(a)), and its coset sum over the x
    block at y is 2^h (-1)^g(y) where pi(y) = 0, and 0 elsewhere.
    """

    n: int
    bits: np.ndarray
    dual_bits: np.ndarray
    perm: np.ndarray
    g: np.ndarray

    @property
    def h(self) -> int:
        return self.n // 2

    @property
    def literal(self) -> str:
        return literal(self.n, table_of(self.bits))

    @property
    def dual_literal(self) -> str:
        return literal(self.n, table_of(self.dual_bits))

    def spectrum(self) -> list[int]:
        return [int(v) for v in (1 << self.h) * (1 - 2 * self.dual_bits.astype(np.int64))]

    def x_block_sums(self) -> dict[int, int]:
        top = 1 << self.h
        return {
            y << self.h: (top * (1 - 2 * int(self.g[y])) if self.perm[y] == 0 else 0)
            for y in range(top)
        }


def maiorana_mcfarland(n: int, rng: random.Random) -> MaioranaMcFarland:
    h = n // 2
    block = 1 << h
    perm = list(range(block))
    rng.shuffle(perm)
    pi = np.array(perm, dtype=np.int64)
    g = np.array([rng.getrandbits(1) for _ in range(block)], dtype=np.uint8)
    index = np.arange(1 << n, dtype=np.int64)
    low, high = index & (block - 1), index >> h
    bits = ((popcount(low & pi[high]) & 1) ^ g[high]).astype(np.uint8)
    inverse = np.argsort(pi)[low]
    dual_bits = ((popcount(high & inverse) & 1) ^ g[inverse]).astype(np.uint8)
    return MaioranaMcFarland(n, bits, dual_bits, pi, g)


def flipped(bits: np.ndarray, rng: random.Random) -> np.ndarray:
    """Copy with one point flipped: every Walsh value moves by +-2, so a bent
    input becomes non-bent."""
    out = bits.copy()
    out[rng.randrange(out.size)] ^= 1
    return out


def two_flat_counts(n: int) -> dict[str, int]:
    """2-flat statistics shared by every bent function at arity n.

    D_u f is balanced for u != 0, so (2^n - 1) 2^(2n-4) / 3 flats have odd
    sum (|S| = 2); the rest split 1:3 between |S| = 4 and S = 0.
    """
    total = ((1 << n) - 1) * ((1 << n) - 2) // 6 << (n - 2)
    odd = ((1 << n) - 1) * (1 << (2 * n - 4)) // 3
    rest = total - odd
    return {"total": total, "odd": odd, "four": rest // 4, "zero": 3 * rest // 4}


def bound_fields(n: int) -> dict:
    """Closed forms of every numeric field of ``bentkit bounds --n n``."""
    half = math.comb(n, n // 2) // 2
    gl_log2 = sum(math.log2((1 << n) - (1 << i)) for i in range(n))
    out: dict = {
        "trivial_upper_log2": (1 << (n - 1)) + half,
        "tokareva_lower_log2": (1 << (n - 2)) + half,
        "a_n_log2": gl_log2 + 2 * n + 1,
    }
    if n >= 4:
        # T_n and Q_n are both sum_{i <= n/2} C(n-2, i): Q_n counts coset
        # representatives of weight <= n/2 off the two top coordinates.
        t = sum(math.comb(n - 2, i) for i in range(n // 2 + 1))
        out["t_n_log2"] = t
        out["q_n"] = t
        out["theorem_upper_log2"] = out["a_n_log2"] + 2 * t + 3 * t * math.log2(6) / 8
        out["simplified_log2"] = 3 << (n - 3)
    if n >= 6:
        out["headline_log2"] = 3 * (1 << (n - 6)) * math.log2(6) + (1 << (n - 2))
    if n in BENT_COUNTS:
        out["known_count_log2"] = math.log2(BENT_COUNTS[n])
    return out
