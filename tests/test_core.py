"""Representation, text format, and point helpers."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bentkit.core import (
    BooleanFunction,
    ParseError,
    ResourceCapError,
    evaluate,
    format_bf,
    inner_product,
    make_function,
    pack_bits,
    pack_rows,
    parse_bf,
    point_coords,
    point_index,
    point_weight,
    random_function,
    unpack_bits,
    unpack_rows,
    weight,
    xor_add,
)

AND = BooleanFunction(2, 0b1000)  # f(x1,x2) = x1 & x2, true only at index 3


def functions(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(BooleanFunction, st.just(n), st.integers(0, (1 << (1 << n)) - 1))
    )


def test_and_oracle():
    assert AND.size == 4
    assert [AND.bit(i) for i in range(4)] == [0, 0, 0, 1]
    assert AND.bits() == [0, 0, 0, 1]
    assert weight(AND) == 1
    assert format_bf(AND) == "bf:2:8"
    assert str(AND) == "bf:2:8"


def test_known_literals():
    assert parse_bf("bf:2:8") == AND
    assert parse_bf("bf:2:6").table == 0b0110
    assert parse_bf("bf:4:7888").table == 30856
    assert parse_bf("bf:1:2").table == 2


def test_parse_is_case_insensitive():
    assert parse_bf("bf:4:AbCd") == parse_bf("bf:4:abcd")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "bf",
        "bf:2",
        "bf:2:8:extra",
        "xf:2:8",
        "bf:two:8",
        "bf:2:zz",
        "bf:2:88",  # n=2 takes exactly one hex digit
        "bf:4:8",  # n=4 takes exactly four
        "bf:0:1",
        "bf:-1:1",
        "bf:2:-8",
        # int() accepts underscores, 0x prefixes and signs; the literal does not
        "bf:4:03_6",
        "bf:4:0x12",
        "bf:+4:0356",
        "bf:4:-356",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_bf(bad)


def test_parse_arity_cap():
    with pytest.raises(ResourceCapError):
        parse_bf("bf:27:" + "0" * ((1 << 27) // 4))
    with pytest.raises(ResourceCapError):
        BooleanFunction(27, 0)


def test_hex_digit_counts():
    # one digit covers n=1 and n=2; beyond that 2^n/4 digits
    assert format_bf(BooleanFunction(1, 0)) == "bf:1:0"
    assert format_bf(BooleanFunction(2, 0)) == "bf:2:0"
    assert format_bf(BooleanFunction(3, 0)) == "bf:3:00"
    assert format_bf(BooleanFunction(4, 0)) == "bf:4:0000"
    assert format_bf(BooleanFunction(5, 1)) == "bf:5:00000001"


@given(functions())
def test_format_parse_round_trip(f):
    assert parse_bf(format_bf(f)) == f


def test_table_validation():
    with pytest.raises(ValueError):
        BooleanFunction(2, 16)
    with pytest.raises(ValueError):
        BooleanFunction(2, -1)
    with pytest.raises(ValueError):
        BooleanFunction(0, 0)
    with pytest.raises(ValueError):
        BooleanFunction(2, 1.0)


def test_bit_bounds():
    with pytest.raises(ValueError):
        AND.bit(4)
    with pytest.raises(ValueError):
        AND.bit(-1)


def test_make_function():
    assert make_function(2, "0110").table == 0b0110
    assert make_function(2, [0, 1, 1, 0]).table == 0b0110
    assert make_function(1, "10").table == 0b01  # bits listed in index order
    with pytest.raises(ValueError):
        make_function(2, "011")
    with pytest.raises(ValueError):
        make_function(2, "0120")


def test_point_index_lsb_first():
    # x1 is the least significant coordinate
    assert point_index([1, 0]) == 1
    assert point_index([0, 1]) == 2
    assert point_index([1, 1, 0, 1]) == 0b1011
    with pytest.raises(ValueError):
        point_index([2, 0])


@given(st.integers(1, 10), st.data())
def test_point_coords_round_trip(n, data):
    index = data.draw(st.integers(0, (1 << n) - 1))
    coords = point_coords(index, n)
    assert len(coords) == n
    assert point_index(coords) == index
    assert point_weight(index) == sum(coords)


def test_evaluate_accepts_index_or_coords():
    assert evaluate(AND, 3) == 1
    assert evaluate(AND, (1, 1)) == 1
    assert evaluate(AND, (1, 0)) == 0
    with pytest.raises(ValueError):
        evaluate(AND, 4)
    with pytest.raises(ValueError):
        evaluate(AND, (1, 1, 1))


def test_inner_product():
    assert inner_product(0b101, 0b100) == 1
    assert inner_product(0b101, 0b111) == 0
    assert inner_product((1, 0, 1), (1, 1, 1)) == 0


def test_xor_add():
    x1 = parse_bf("bf:2:a")
    assert xor_add(AND, x1) == parse_bf("bf:2:2")
    assert xor_add(AND, AND).table == 0
    with pytest.raises(ValueError):
        xor_add(AND, BooleanFunction(3, 0))


def test_random_function_determinism():
    assert random_function(6, 123) == random_function(6, 123)
    assert random_function(6, random.Random(5)) == random_function(6, random.Random(5))
    f = random_function(3, 1)
    assert f.n == 3 and 0 <= f.table < (1 << 8)


@given(functions(6))
def test_weight_matches_bits(f):
    assert weight(f) == sum(f.bits())


def test_codec_round_trip_past_int64():
    # bit 63 set: a 64-bit table overflowed the old int64 row packing
    table = (1 << 63) | 0b1011
    bits = unpack_bits(table, 64)
    assert bits.tolist() == BooleanFunction(6, table).bits()
    assert pack_bits(bits) == table
    rows = unpack_rows(np.array([table, 5], dtype=np.uint64), 64)
    assert [pack_bits(row) for row in rows] == pack_rows(rows) == [table, 5]


@given(functions(10))
def test_codec_matches_shifts(f):
    assert f.bits() == [(f.table >> k) & 1 for k in range(f.size)]
    assert pack_bits(unpack_bits(f.table, f.size)) == f.table
    assert make_function(f.n, f.bits()) == f
    assert make_function(f.n, "".join(map(str, f.bits()))) == f
