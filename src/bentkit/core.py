"""Bit-exact boolean function representation.

A function f: F_2^n -> F_2 is stored as its truth table packed into a single
Python int: bit k of ``table`` is f at the point with index k.  A point
(x_1, ..., x_n) has index sum(x_i * 2**(i-1)), i.e. x_1 is the least
significant bit.  All arithmetic on tables is exact integer arithmetic.
``unpack_bits``/``pack_bits`` (and the row forms for arrays of tables of at
most 64 bits) are the one codec between tables and numpy bit arrays.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

MAX_ARITY = 26
_LITERAL = re.compile(r"bf:([0-9]+):([0-9a-fA-F]+)")

Point = Union[int, Sequence[int]]


class ParseError(ValueError):
    """Malformed textual function literal."""


class ResourceCapError(RuntimeError):
    """Operation refused because it would exceed a configured resource cap."""


def _check_arity(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"arity must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if n > MAX_ARITY:
        raise ResourceCapError(f"arity {n} exceeds the cap of {MAX_ARITY}")


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of f: F_2^n -> F_2, packed LSB-first into an int."""

    n: int
    table: int

    def __post_init__(self) -> None:
        _check_arity(self.n)
        if not isinstance(self.table, int) or isinstance(self.table, bool):
            raise ValueError(f"table must be an int, got {self.table!r}")
        # bit_length comparison avoids materializing 2**(2**n) for large n
        if self.table < 0 or self.table.bit_length() > self.size:
            raise ValueError(
                f"table out of range for n={self.n}: need 0 <= table < 2**{self.size}"
            )

    @property
    def size(self) -> int:
        """Number of points in the domain, 2**n."""
        return 1 << self.n

    def bit(self, index: int) -> int:
        if index < 0 or index >> self.n:
            raise ValueError(f"point index {index} out of range for n={self.n}")
        return (self.table >> index) & 1

    def bits(self) -> list[int]:
        """Truth table as a list of bits in index order."""
        return unpack_bits(self.table, self.size).tolist()

    def __str__(self) -> str:
        return format_bf(self)


def unpack_bits(table: int, size: int) -> np.ndarray:
    """Bits 0..size-1 of a non-negative int as a uint8 array, LSB first."""
    raw = np.frombuffer(table.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little")


def pack_bits(bits: np.ndarray) -> int:
    """Inverse of unpack_bits: a 0/1 array, flattened in C order, as an int."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def unpack_rows(values: np.ndarray, width: int) -> np.ndarray:
    """Bits 0..width-1 (width <= 64) of each entry of an unsigned int array, as rows."""
    raw = np.ascontiguousarray(values, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(raw, axis=1, count=width, bitorder="little")


def pack_rows(rows: np.ndarray) -> list[int]:
    """Inverse of unpack_rows: each row of at most 64 bits as an int."""
    # the bits are distinct powers of two, so the uint64 sum never carries
    shifts = np.arange(rows.shape[1], dtype=np.uint64)
    return (rows.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64).tolist()


def _bit_array(values: Sequence, what: str) -> np.ndarray:
    for v in values:
        if v not in (0, 1):
            raise ValueError(f"{what} entries must be bits, got {v!r}")
    return np.array(values, dtype=np.uint8)


def make_function(n: int, bits: Union[str, Iterable[int]]) -> BooleanFunction:
    """Build a function from its truth table given as bits in index order.

    ``bits`` may be a sequence of 0/1 ints or a string of '0'/'1' characters;
    its length must be exactly 2**n.
    """
    _check_arity(n)
    if isinstance(bits, str):
        rest = bits.lstrip("01")
        if rest:
            raise ValueError(f"truth table string must be over '01', got {rest[0]!r}")
        values = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
    else:
        values = _bit_array(list(bits), "truth table")
    if len(values) != (1 << n):
        raise ValueError(
            f"truth table for n={n} needs {1 << n} bits, got {len(values)}"
        )
    return BooleanFunction(n, pack_bits(values))


def random_function(n: int, rng: Union[int, random.Random, None] = None) -> BooleanFunction:
    """Uniform random function on F_2^n; pass an int seed or a Random for determinism."""
    _check_arity(n)
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    return BooleanFunction(n, rng.getrandbits(1 << n))


def point_index(coords: Sequence[int]) -> int:
    """Index of the point (x_1, ..., x_n); x_1 lands in the least significant bit."""
    index = 0
    for i, bit in enumerate(coords):
        if bit not in (0, 1):
            raise ValueError(f"coordinates must be bits, got {bit!r}")
        index |= bit << i
    return index


def point_coords(index: int, n: int) -> tuple[int, ...]:
    """Coordinates (x_1, ..., x_n) of the point with the given index."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"point index {index} out of range for n={n}")
    return tuple((index >> i) & 1 for i in range(n))


def point_weight(index: int) -> int:
    """Hamming weight of a point given by index."""
    if index < 0:
        raise ValueError(f"point index must be >= 0, got {index}")
    return index.bit_count()


def _as_index(f: BooleanFunction, x: Point) -> int:
    if isinstance(x, int) and not isinstance(x, bool):
        if not 0 <= x < f.size:
            raise ValueError(f"point index {x} out of range for n={f.n}")
        return x
    coords = tuple(x)
    if len(coords) != f.n:
        raise ValueError(f"point has {len(coords)} coordinates, function has n={f.n}")
    return point_index(coords)


def evaluate(f: BooleanFunction, x: Point) -> int:
    """f(x) for x given as an index or a coordinate tuple."""
    return f.bit(_as_index(f, x))


def inner_product(x: Point, y: Point) -> int:
    """<x, y> = x_1 y_1 + ... + x_n y_n over F_2."""
    if not isinstance(x, int) or isinstance(x, bool):
        x = point_index(tuple(x))
    if not isinstance(y, int) or isinstance(y, bool):
        y = point_index(tuple(y))
    if x < 0 or y < 0:
        raise ValueError("point indices must be >= 0")
    return (x & y).bit_count() & 1


def weight(f: BooleanFunction) -> int:
    """Number of points where f is 1."""
    return f.table.bit_count()


def xor_add(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    """Pointwise sum f + g over F_2."""
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} != {g.n}")
    return BooleanFunction(f.n, f.table ^ g.table)


def _hex_digits(n: int) -> int:
    # ceil(2**n / 4) hex digits cover the table exactly
    return max(1, ((1 << n) + 3) // 4)


def format_bf(f: BooleanFunction) -> str:
    """Render as ``bf:<n>:<hex>`` with the table as a fixed-width lowercase hex int."""
    return f"bf:{f.n}:{f.table:0{_hex_digits(f.n)}x}"


def parse_bf(text: str) -> BooleanFunction:
    """Parse a ``bf:<n>:<hex>`` literal; hex digit count must match n exactly."""
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    match = _LITERAL.fullmatch(text.strip())
    if match is None:
        raise ParseError(f"malformed function literal {text!r}: expected bf:<n>:<hex>")
    n = int(match[1])
    if n < 1:
        raise ParseError(f"arity must be >= 1, got {n}")
    _check_arity(n)
    digits = match[2]
    if len(digits) != _hex_digits(n):
        raise ParseError(
            f"table for n={n} needs exactly {_hex_digits(n)} hex digits, got {len(digits)}"
        )
    table = int(digits, 16)
    if table.bit_length() > (1 << n):
        raise ParseError(f"table value out of range for n={n}")
    return BooleanFunction(n, table)
