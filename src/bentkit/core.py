"""Bit-exact boolean function representation.

A function f: F_2^n -> F_2 is stored as its truth table packed into a single
Python int: bit k of ``table`` is f at the point with index k.  A point
(x_1, ..., x_n) has index sum(x_i * 2**(i-1)), i.e. x_1 is the least
significant bit.  All arithmetic on tables is exact integer arithmetic.
``unpack_bits``/``pack_bits`` (and the row forms for blocks of tables) are
the one codec between tables and numpy bit arrays.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

MAX_ARITY = 26
# the one work budget: an enumeration may visit at most 2^MAX_WORK_LOG2 items
MAX_WORK_LOG2 = 24
# the one block size: a batched step holds at most this many truth-table points
# at once (the images bent-tested together, the spectra of a suite block, the
# terms of one convolve_pm gather); ``blocks`` alone reads it, at call time.
# At 2^15, prop1's n=4 chunk (2,048 maps) peaks no higher than one member's
# images did when each member was tested alone
CHUNK_POINTS = 1 << 15
_LITERAL = re.compile(r"bf:([0-9]+):([0-9a-fA-F]+)")


class ParseError(ValueError):
    """Malformed textual function literal."""


class ResourceCapError(RuntimeError):
    """Operation refused because it would exceed a configured resource cap."""


def _check_int(value: object, what: str) -> None:
    # type(), not isinstance, also refuses bools and int subclasses
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")


def _check_arity(n: int) -> None:
    _check_int(n, "arity")
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if n > MAX_ARITY:
        raise ResourceCapError(f"arity {n} exceeds the cap of {MAX_ARITY}")


def _check_work(log2_items: int, what: str) -> None:
    if log2_items > MAX_WORK_LOG2:
        raise ResourceCapError(f"needs 2^{log2_items} {what}, over the cap of 2^{MAX_WORK_LOG2}")


def _read_bounded(path: str, limit: int, what: str) -> str:
    """UTF-8 text of a file, read up to ``limit`` + 1 bytes: one more is a ValueError."""
    with open(path, "rb") as handle:
        data = handle.read(limit + 1)
    if len(data) > limit:
        raise ValueError(f"{path} is longer than {limit} bytes, {what}")
    return data.decode()


def _check_even(n: int, minimum: int = 2) -> None:
    _check_int(n, "arity")
    if n < minimum or n % 2:
        raise ValueError(f"need even n >= {minimum}, got {n}")


def _check_radius(n: int, r: int) -> None:
    _check_int(r, "radius")
    if not 0 <= r <= n:
        raise ValueError(f"radius must satisfy 0 <= r <= {n}, got {r}")


def _check_mask(n: int, mask: int) -> None:
    # a face of F_2^n, free where mask is set; a mask is O(1), so no arity cap applies
    _check_int(n, "arity")
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    _check_int(mask, "mask")
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#x} out of range for n={n}")


def _check_same_arity(n: int, other: int, what: str) -> None:
    if other != n:
        raise ValueError(f"arity mismatch: function n={n}, {what} n={other}")


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of f: F_2^n -> F_2, packed LSB-first into an int."""

    n: int
    table: int

    def __post_init__(self) -> None:
        _check_arity(self.n)
        _check_int(self.table, "table")
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


def blocks(count: int, n: int) -> Iterator[slice]:
    """The in-order slices of 0..count-1, each of at most max(1, CHUNK_POINTS
    >> n) items of arity n: CHUNK_POINTS truth-table points, or one item."""
    step = max(1, CHUNK_POINTS >> n)
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def table_words(values: Union[np.ndarray, Sequence[int]], words: int) -> np.ndarray:
    """Table ints, of an unsigned int array (one word each, higher words 0) or
    of any width, as read-only (rows, words) little-endian uint64 words."""
    if isinstance(values, np.ndarray):
        column = np.ascontiguousarray(values, dtype="<u8").reshape(-1, 1)
        return np.pad(column, ((0, 0), (0, words - 1))) if words > 1 else column
    data = b"".join(v.to_bytes(8 * words, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(-1, words)


def unpack_rows(values: Union[np.ndarray, Sequence[int]], width: int) -> np.ndarray:
    """Bits 0..width-1 of each entry, as rows, read through ``table_words``."""
    raw = table_words(values, (width + 63) >> 6).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=width, bitorder="little")


def pack_rows(rows: np.ndarray) -> list[int]:
    """Inverse of unpack_rows: each row of at most 64 bits as an int."""
    # each row's little-endian bytes, zero-padded to 8 and read as one <u8
    packed = np.packbits(rows, axis=1, bitorder="little")
    raw = np.zeros((len(rows), 8), dtype=np.uint8)
    raw[:, : packed.shape[1]] = packed
    return raw.view("<u8").ravel().tolist()


def random_function(n: int, rng: Union[int, random.Random, None] = None) -> BooleanFunction:
    """Uniform random function on F_2^n; pass an int seed or a Random for determinism."""
    _check_arity(n)
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    return BooleanFunction(n, rng.getrandbits(1 << n))


def weight(f: BooleanFunction) -> int:
    """Number of points where f is 1."""
    return f.table.bit_count()


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
