"""Exact bound arithmetic and the comparison report."""

import json
import math

import pytest

from bentkit import bounds, census
from bentkit.bounds import (
    _ROWS,
    a_n_log2,
    bound_report,
    format_report_table,
    headline_log2,
    load_known_counts,
    q_n,
    simplified_log2,
    t_n_log2,
    theorem_upper_log2,
    tokareva_lower_log2,
    trivial_upper_log2,
)

LOG2_6 = math.log2(6)


def test_trivial_upper_oracles():
    assert trivial_upper_log2(2) == 3
    assert trivial_upper_log2(4) == 11
    assert trivial_upper_log2(8) == 163
    with pytest.raises(ValueError):
        trivial_upper_log2(3)
    with pytest.raises(ValueError):
        trivial_upper_log2(0)


def test_tokareva_lower_oracles():
    assert tokareva_lower_log2(2) == 2
    assert tokareva_lower_log2(4) == 7
    assert tokareva_lower_log2(8) == 99


def test_upper_lower_gap_is_quarter():
    for n in range(2, 32, 2):
        assert trivial_upper_log2(n) - tokareva_lower_log2(n) == 1 << (n - 2)


def test_t_n_oracles():
    assert t_n_log2(4) == 4
    assert t_n_log2(6) == 15
    assert t_n_log2(8) == 57
    with pytest.raises(ValueError):
        t_n_log2(2)


def test_t_n_below_quarter_exponent():
    for n in range(4, 32, 2):
        assert t_n_log2(n) <= 1 << (n - 2)


def test_q_n_matches_t_n():
    # q_n counts covering cosets of the actual face through the closed form of
    # covering_coset_count; test_covering_coset_count_brute checks that form
    # against an enumeration of coset representatives
    for n in range(4, 18, 2):
        assert q_n(n) == t_n_log2(n)


def test_q_n_share_decreases():
    shares = [q_n(n) / (1 << (n - 3)) for n in range(4, 22, 2)]
    assert all(a > b for a, b in zip(shares, shares[1:]))


def test_a_n_oracles():
    assert a_n_log2(1) == 3.0
    assert math.isclose(a_n_log2(2), math.log2(192))
    assert math.isclose(a_n_log2(4), math.log2(10321920))
    with pytest.raises(ValueError):
        a_n_log2(0)


def test_a_n_equals_the_written_out_group_order():
    for n in [*range(1, 65), 1024]:
        # |GL(n,2)| as the product of the 2^n - 2^i choices for each column
        gl = 1
        for i in range(n):
            gl *= (1 << n) - (1 << i)
        assert a_n_log2(n) == math.log2(gl * (1 << n) * (1 << (n + 1))), n


def test_a_n_equals_the_odd_factors_multiplied_one_at_a_time():
    # the pairwise product is the same exact int as the product in order,
    # so the same float
    for n in [*range(1, 129), 255, 256, 511, 512, 1023, 1024]:
        odd = 1
        for i in range(1, n + 1):
            odd *= (1 << i) - 1
        assert a_n_log2(n) == math.log2(odd << (n * (n - 1) // 2 + 2 * n + 1)), n


def test_a_n_approaches_n_squared():
    # log2 of the group order is n^2 + 2n + 1 - c with c -> 1.792, so the
    # ratio to n^2 drifts down toward 1: still 19 percent high at n=10,
    # under 15 percent from n=14 on
    ratios = [a_n_log2(n) / n**2 for n in range(8, 26, 2)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert 1.19 < a_n_log2(10) / 100 < 1.20
    assert a_n_log2(14) / 14**2 < 1.15
    assert ratios[-1] < 1.09


def test_theorem_upper_monotone():
    values = [theorem_upper_log2(n) for n in range(4, 20, 2)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_theorem_to_simplified_ratio_decreases():
    # the exact surrogate keeps theorem_upper above 3*2^(n-3) at every desk
    # arity (1.505x at n=20); only the trend toward the asymptote is testable
    ratios = [theorem_upper_log2(n) / (3 << (n - 3)) for n in range(4, 28, 2)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert 1.50 < ratios[8] < 1.51  # n=20
    assert all(r > 1 for r in ratios)


def test_theorem_excess_over_the_headline_vanishes():
    # the abstract's o(1): theorem / headline - 1 falls towards 0, about as
    # fast as 1/sqrt(n); every even n up to 1024 takes ~9 s against 0.2 s
    # for this sample (2-core Xeon)
    ns = [*range(8, 257, 2), 384, 512, 768, 1022, 1024]
    excess = [theorem_upper_log2(n) / headline_log2(n) - 1 for n in ns]
    assert min(excess) > 0
    assert all(a > b for a, b in zip(excess, excess[1:]))
    assert all(2.3 <= math.sqrt(n) * e <= 4.6 for n, e in zip(ns, excess))


def test_headline_oracles():
    assert math.isclose(headline_log2(6), 3 * LOG2_6 + 16, rel_tol=1e-12)
    assert headline_log2(8) < 96
    with pytest.raises(ValueError):
        headline_log2(4)


def test_headline_below_simplified_with_exact_gap():
    for n in range(6, 32, 2):
        simplified = simplified_log2(n)
        headline = headline_log2(n)
        assert headline < simplified
        gap = (8 - 3 * LOG2_6) * (1 << (n - 6))
        assert math.isclose(simplified - headline, gap, rel_tol=1e-9)


def test_simplified_oracles():
    assert simplified_log2(4) == 6
    assert simplified_log2(6) == 24
    with pytest.raises(ValueError):
        simplified_log2(2)


def test_no_overflow_at_large_arity():
    # arbitrary-precision integers all the way up
    assert trivial_upper_log2(64) == (1 << 63) + math.comb(64, 32) // 2
    assert tokareva_lower_log2(64) == (1 << 62) + math.comb(64, 32) // 2
    assert t_n_log2(64) == sum(math.comb(62, i) for i in range(33))
    assert simplified_log2(64) == 3 << 61


def test_load_known_counts(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(
        json.dumps(
            [
                {"n": 6, "count": "5425430528", "source": "literature"},
                {"n": 8, "count": 99, "source": "made up"},
            ]
        )
    )
    entries = load_known_counts(str(path))
    assert entries[0]["count"] == "5425430528"
    assert entries[1]["count"] == "99"


@pytest.mark.parametrize(
    "payload",
    [
        '{"n": 6}',
        '[{"n": 6, "count": "10"}]',
        '[{"n": 6, "count": "ten", "source": "x"}]',
        '[{"count": "10", "source": "x"}]',
        '[{"n": 6, "count": "10", "source": ""}]',
        '[[1, 2]]',
        # a JSON true is a Python bool, which is an int but not an arity
        '[{"n": true, "count": "10", "source": "x"}]',
        '[{"n": 0, "count": "10", "source": "x"}]',
    ],
)
def test_load_known_counts_rejects(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ValueError):
        load_known_counts(str(path))


@pytest.mark.parametrize("count", ["\u00b2", "\u0663"])
def test_load_known_counts_takes_only_ascii_digits(tmp_path, count):
    # str.isdigit admits a superscript two, which int() refuses, and an
    # Arabic-Indic three, which int() reads as 3
    path = tmp_path / "counts.json"
    path.write_text(json.dumps([{"n": 4, "count": count, "source": "x"}]))
    with pytest.raises(ValueError, match="^count for n=4 must be a positive decimal string$"):
        load_known_counts(str(path))


def test_known_count_file_is_read_up_to_its_bound(tmp_path):
    limit = bounds._KNOWN_FILE_BYTES
    assert limit == 512 * (4300 + 1024)
    # one entry per even n that bound_report accepts, each with a 4300-digit
    # count, fits with room to spare for whitespace
    largest = [{"n": n, "count": "9" * 4300, "source": "s" * 900} for n in range(2, 1025, 2)]
    text = json.dumps(largest)
    assert len(text) < limit
    path = tmp_path / "counts.json"
    path.write_text(text + " " * (limit - len(text)))
    assert path.stat().st_size == limit
    assert load_known_counts(str(path)) == largest
    path.write_text(text + " " * (limit - len(text) + 1))
    with pytest.raises(ValueError, match=rf"longer than {limit} bytes"):
        load_known_counts(str(path))


def test_load_known_counts_missing_file():
    with pytest.raises(OSError):
        load_known_counts("/nonexistent/counts.json")


def test_bound_report_n4_uses_census():
    report = bound_report(4)
    assert report["trivial_upper_log2"] == 11
    assert report["tokareva_lower_log2"] == 7
    assert report["known_provenance"] == "census"
    assert math.isclose(report["known_count_log2"], math.log2(896), rel_tol=1e-12)
    assert report["tokareva_lower_log2"] <= report["known_count_log2"] <= report["trivial_upper_log2"]
    # the theorem surrogate exceeds the trivial bound at n=4: flagged, not hidden
    assert report["warnings"]
    assert "simplified_log2" in report["asymptotic_only"]


def test_bound_report_takes_the_small_known_count_from_the_degree_census(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force census ran")

    monkeypatch.setattr(census, "enumerate_bent_naive", refuse)
    assert bound_report(2)["known_count_log2"] == 3.0
    assert bound_report(4)["known_count_log2"] == math.log2(896)
    assert bound_report(4)["known_source"] == "exhaustive census at this arity"


def test_bound_report_n2_omits_theorem_fields():
    report = bound_report(2)
    assert "t_n_log2" not in report
    assert "q_n" not in report
    assert "theorem_upper_log2" not in report
    assert "headline_log2" not in report
    assert "simplified_log2" not in report
    data = report
    assert "t_n_log2" not in data
    assert "theorem_upper_log2" not in data
    assert data["trivial_upper_log2"] == 3


def test_bound_report_external_provenance():
    known = [{"n": 6, "count": "5425430528", "source": "literature"}]
    report = bound_report(6, known)
    assert report["known_provenance"] == "external"
    assert report["known_source"] == "literature"
    assert math.isclose(report["known_count_log2"], math.log2(5425430528))
    # the n=6 surrogates sit below the true count and must be flagged
    assert "headline_log2" in report["asymptotic_only"]
    assert "simplified_log2" in report["asymptotic_only"]
    assert "trivial_upper_log2" not in report["asymptotic_only"]


def test_bound_report_no_known_count_above_census_range():
    report = bound_report(8)
    assert "known_count_log2" not in report
    assert report["asymptotic_only"] == []


@pytest.mark.parametrize("n", [*range(2, 31, 2), 1024])
def test_bound_report_holds_each_row_exactly_where_its_formula_is_defined(n):
    report = bound_report(n)
    for name, formula, _, _ in _ROWS:
        try:
            value = formula(n)
        except ValueError:
            assert name not in report
        else:
            assert report[name] == value
    # n first, then the rows in table order
    present = [name for name, *_ in _ROWS if name in report]
    assert list(report)[: len(present) + 1] == ["n", *present]


def test_bound_report_rejects_odd():
    with pytest.raises(ValueError):
        bound_report(5)


def test_report_json_round_trip():
    report = bound_report(6)
    data = report
    assert json.loads(json.dumps(data)) == data
    assert data["note"]
    assert isinstance(data["asymptotic_only"], list)
    assert isinstance(data["warnings"], list)


def test_format_report_table():
    report = bound_report(4)
    table = format_report_table(report)
    assert "bounds at n=4" in table
    assert "trivial_upper_log2" in table
    assert "11" in table
    assert "asymptotic-only" in table
    n2 = format_report_table(bound_report(2))
    assert "\n  theorem_upper_log2" not in n2  # no row; the note may name it
