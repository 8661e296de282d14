"""Representation, text format, the bit codec, and the shared input and work checks."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bentkit.cli as cli
from bentkit import core
from bentkit.bent import apply_affine
from bentkit.bounds import a_n_log2
from bentkit.census import enumerate_bent_by_degree, enumerate_bent_naive
from bentkit.core import (
    BooleanFunction,
    ParseError,
    ResourceCapError,
    format_bf,
    pack_bits,
    pack_rows,
    parse_bf,
    random_function,
    unpack_bits,
    unpack_rows,
    weight,
)
from bentkit.geometry import (
    ball_points,
    coset_spectrum,
    coset_value_class_sizes,
    covering_coset_count,
    gaussian_binomial,
    subcube_points,
)
from bentkit.reconstruct import check_lemma1, reconstruct_from_ball
from bentkit.transforms import check_restriction_identity, walsh_naive

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
        # one hex digit holds 4 bits, n=1 a 2-bit table
        "bf:1:4",
        # not a string at all
        5,
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


def test_radius_must_be_an_int():
    # not a TypeError from range() or comb(), and True is not the radius 1
    cases = [
        lambda: ball_points(4, 1.5),
        lambda: reconstruct_from_ball(4, 1.5, np.zeros((1, 5), dtype=np.uint8)),
        lambda: covering_coset_count(4, 1.0, 1),
        lambda: ball_points(4, True),
    ]
    for call in cases:
        with pytest.raises(ValueError, match="^radius must be an int, got "):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: a_n_log2(True),
        lambda: a_n_log2(2.5),
        lambda: gaussian_binomial(True, 1),
        lambda: gaussian_binomial(4.0, 2),
        lambda: coset_value_class_sizes(True),
        lambda: coset_value_class_sizes(2.0),
    ],
    ids=["a_n-bool", "a_n-float", "gaussian-bool", "gaussian-float", "classes-bool", "classes-float"],
)
def test_int_inputs_refuse_bools_and_floats(call):
    # True does not answer for 1, and a float is not a TypeError from range() or <<
    with pytest.raises(ValueError, match=" must be an int, got "):
        call()


def test_bit_bounds():
    with pytest.raises(ValueError):
        AND.bit(4)
    with pytest.raises(ValueError):
        AND.bit(-1)


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


@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64])
def test_pack_rows_matches_shift_and_sum(width):
    rows = np.random.default_rng(width).integers(0, 2, (20, width), dtype=np.uint8)
    rows[0], rows[1] = 1, 0  # all ones sets bit 63 at width 64
    assert pack_rows(rows) == [sum(int(b) << i for i, b in enumerate(row)) for row in rows]
    assert pack_rows(rows[:0]) == []


@pytest.mark.parametrize("width", [1, 2, 8, 9, 64, 100, 163, 1024])
def test_unpack_rows_reads_int_sequences_of_any_width(width):
    rng = random.Random(width)
    tables = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(5)]
    rows = unpack_rows(tables, width)
    assert rows.shape == (7, width) and rows.dtype == np.uint8
    assert rows.tolist() == [unpack_bits(t, width).tolist() for t in tables]
    if width <= 64:
        assert rows.tolist() == unpack_rows(np.array(tables, dtype=np.uint64), width).tolist()
    # a uint64 array is one word an entry at any width, its higher bits zero
    assert unpack_rows(np.array([5], np.uint64), width).tolist() == unpack_rows([5], width).tolist()
    assert unpack_rows([], width).shape == (0, width)


@pytest.mark.parametrize("n", [1, 4, 11, 15, 16, 26])
@pytest.mark.parametrize("count", [0, 1, 3, 2048, 2049, 5000])
def test_blocks_cut_every_item_once_in_order_within_the_point_bound(count, n):
    cuts = list(core.blocks(count, n))
    step = max(1, core.CHUNK_POINTS >> n)
    assert [i for cut in cuts for i in range(count)[cut]] == list(range(count))
    assert all(cut.stop - cut.start == step for cut in cuts[:-1])
    assert all(0 < cut.stop - cut.start <= step for cut in cuts)
    if count == 0:
        assert cuts == []
    if n >= 16:
        assert len(cuts) == count


def test_blocks_read_the_block_size_at_call_time(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_POINTS", 16)
    assert list(core.blocks(10, 2)) == [slice(0, 4), slice(4, 8), slice(8, 10)]
    assert list(core.blocks(3, 5)) == [slice(0, 1), slice(1, 2), slice(2, 3)]


@given(functions(10))
def test_codec_matches_shifts(f):
    assert f.bits() == [(f.table >> k) & 1 for k in range(f.size)]
    assert pack_bits(unpack_bits(f.table, f.size)) == f.table


def test_one_work_budget_sets_every_enumeration_limit(monkeypatch):
    # each limit sits exactly where the work passes 2^MAX_WORK_LOG2, so a
    # budget of 25 moves none of them, and 23 is the first to move one
    refused = [
        lambda: walsh_naive(BooleanFunction(13, 0)),
        lambda: coset_value_class_sizes(5),
        lambda: enumerate_bent_naive(6),
        lambda: enumerate_bent_by_degree(6),
        lambda: coset_spectrum(BooleanFunction(16, 0), 0x3F),  # 2^26 points
    ]
    for budget in (24, 25):
        monkeypatch.setattr(core, "MAX_WORK_LOG2", budget)
        walsh_naive(BooleanFunction(12, 0))
        assert len(coset_spectrum(BooleanFunction(16, 0), 0xFF)) == 256  # 2^24 points
        coset_value_class_sizes(4)
        assert enumerate_bent_naive(4).count == 896
        assert enumerate_bent_by_degree(4).count == 896
        for call in refused:
            with pytest.raises(ResourceCapError, match=rf"over the cap of 2\^{budget}$"):
                call()
    monkeypatch.setattr(core, "MAX_WORK_LOG2", 23)
    with pytest.raises(ResourceCapError, match=r"needs 2\^24 terms of the defining sum"):
        walsh_naive(BooleanFunction(12, 0))
    needs = r"needs 2\^24 truth-table points for 2\^8 coset sums at n=16"
    with pytest.raises(ResourceCapError, match=needs):
        coset_spectrum(BooleanFunction(16, 0), 0xFF)


def test_bounded_read_refuses_one_byte_past_the_limit(tmp_path):
    path = tmp_path / "text.txt"
    path.write_text("é" * 5)  # 10 bytes of UTF-8
    assert core._read_bounded(str(path), 10, "ten bytes") == "é" * 5
    path.write_text("é" * 5 + " ")
    with pytest.raises(ValueError, match=r"text\.txt is longer than 10 bytes, ten bytes$"):
        core._read_bounded(str(path), 10, "ten bytes")


def test_arity_mismatch_has_one_wording():
    cases = [
        (lambda: check_lemma1(AND, BooleanFunction(3, 0), 1), "second function"),
        (lambda: apply_affine([AND], np.array([[1, 2, 4, 0, 0, 0]])), "map"),
    ]
    for call, what in cases:
        with pytest.raises(ValueError, match=f"^arity mismatch: function n=2, {what} n=3$"):
            call()


MASK_TAKERS = {
    "subcube_points": lambda mask: subcube_points(2, mask),
    "coset_spectrum": lambda mask: coset_spectrum(AND, mask),
    "covering_coset_count": lambda mask: covering_coset_count(2, 1, mask),
    "check_lemma1": lambda mask: check_lemma1(AND, AND, mask),
    "check_restriction_identity": lambda mask: check_restriction_identity([(AND, mask)]),
}


# the strings are forms int(text, 0) takes that --help does not name
@pytest.mark.parametrize("mask", [-1, 1 << 2, True, 1.0, "1_0", "0x1_0", "+3", " 3"], ids=repr)
@pytest.mark.parametrize("entry", [*MASK_TAKERS, "cli"])
def test_bad_masks_are_refused_everywhere(entry, mask, capsys):
    # -1 also guards the submask walk, whose (s - mask) & mask never returns to 0
    if entry != "cli":
        with pytest.raises(ValueError, match="^mask "):
            MASK_TAKERS[entry](mask)
        return
    text = f"{mask:#x}" if type(mask) is int else str(mask)
    assert cli.main(["coset-spectrum", "--f", format_bf(AND), f"--mask={text}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
