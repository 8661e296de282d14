"""CLI: thin-adapter equivalence, exit codes, stream discipline."""

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import inspect
import io
import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bentkit.cli as cli
from bentkit import bent, bounds, geometry
from bentkit.bent import apply_affine, dual_bent, random_invertible, two_flat_sum_distribution
from bentkit.bounds import bound_report
from bentkit.census import enumerate_bent_by_degree
from bentkit.core import BooleanFunction, format_bf, pack_bits, parse_bf, random_function
from bentkit.geometry import ball_points, coset_spectrum
from bentkit.reconstruct import reconstruct_from_ball
from bentkit.suites import suite_lemma1
from bentkit.transforms import degree, moebius, walsh_fast


# nests past the JSON decoder's recursion limit
DEEP_JSON = "[" * 100_000


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_wht_matches_library(capsys):
    code, payload, _ = run_json(capsys, "wht", "--f", "bf:2:8")
    assert code == 0
    assert payload == {"n": 2, "values": [2, 2, 2, -2]}
    assert payload["values"] == walsh_fast(parse_bf("bf:2:8"))


def test_anf_matches_library(capsys):
    f = parse_bf("bf:4:7888")
    code, payload, _ = run_json(capsys, "anf", "--f", "bf:4:7888")
    assert code == 0
    assert payload == {"n": 4, "values": moebius(f).bits()}


def test_degree_matches_library(capsys):
    code, payload, _ = run_json(capsys, "degree", "--f", "bf:4:7888")
    assert code == 0
    assert payload == {"n": 4, "degree": degree(parse_bf("bf:4:7888"))}


def test_bent_test_and_dual(capsys):
    code, payload, _ = run_json(capsys, "bent", "test", "--f", "bf:2:6")
    assert code == 0 and payload["bent"] is False
    code, payload, _ = run_json(capsys, "bent", "dual", "--f", "bf:4:7888")
    assert code == 0
    assert payload["dual"] == format_bf(dual_bent(parse_bf("bf:4:7888")))


def test_bent_flats_matches_library(capsys):
    f = parse_bf("bf:4:7888")
    code, payload, _ = run_json(capsys, "bent", "flats", "--f", "bf:4:7888")
    dist = two_flat_sum_distribution(f)
    assert code == 0
    assert payload["total"] == dist.total
    assert payload["counts"] == {str(k): v for k, v in dist.counts.items()}


def test_bent_affine_matches_library_replay(capsys):
    f = parse_bf("bf:4:7888")
    rng = random.Random(3)
    expected = [
        format_bf(BooleanFunction(4, pack_bits(apply_affine([f], random_invertible(4, rng, 1))[0])))
        for _ in range(4)
    ]
    code, payload, _ = run_json(
        capsys, "bent", "affine", "--f", "bf:4:7888", "--count", "4", "--seed", "3"
    )
    assert code == 0
    assert [img["function"] for img in payload["images"]] == expected
    assert payload["all_bent"] is True


def test_bent_affine_rejects_non_bent(capsys):
    code, out, err = run(capsys, "bent", "affine", "--f", "bf:2:6")
    assert code == 2
    assert out == ""
    assert "not bent" in err


def test_coset_spectrum_matches_library(capsys):
    f = parse_bf("bf:2:8")
    expected = coset_spectrum(f, 1)
    code, payload, _ = run_json(capsys, "coset-spectrum", "--f", "bf:2:8", "--mask", "0x1")
    assert code == 0
    assert payload["sums"] == {str(k): v for k, v in expected.items()}
    assert payload["dim"] == 1
    code2, payload2, _ = run_json(capsys, "coset-spectrum", "--f", "bf:2:8", "--mask", "1")
    assert payload2 == payload


def test_reconstruct_inline_and_file(capsys, tmp_path):
    doc = '{"n": 2, "r": 1, "values": [0, 1, 1]}'
    code, payload, _ = run_json(capsys, "reconstruct", "--ball", doc)
    assert code == 0
    assert payload["function"] == "bf:2:6"
    assert payload["degree"] == 1
    path = tmp_path / "ball.json"
    path.write_text(doc)
    code, payload2, _ = run_json(capsys, "reconstruct", "--ball", f"@{path}")
    assert payload2 == payload
    expected = reconstruct_from_ball(2, 1, np.array([[0, 1, 1]]))[0]
    assert payload["function"] == format_bf(BooleanFunction(2, pack_bits(expected)))


@pytest.mark.parametrize(
    "ball, code, message",
    [
        ('{"n": 2, "r": 1, "values": [0, 1]}', 2, "ball of radius 1 in n=2 has 3 points, got 2 values"),
        ('{"n": 2, "r": 1, "values": [0, 1, 2]}', 2, "assignment entries must be bits, got 2"),
        ('{"n": 2, "r": 1, "values": [1.0, 0, 0]}', 2, "assignment entries must be an int, got 1.0"),
        ('{"n": 2, "r": 1, "values": [0, false, 0]}', 2, "assignment entries must be an int, got False"),
        ('{"n": 2, "r": 3, "values": [0, 0, 0, 0]}', 2, "radius must satisfy 0 <= r <= 2, got 3"),
        ('{"n": 27, "r": 1, "values": [0]}', 4, "arity 27 exceeds the cap of 26"),
        ('{"n": 26, "r": 13, "values": [0]}', 2, "has 38754732 points, got 1 values"),
        ('{"n": 2, "r": 1, "values": [0, 0, 18446744073709551616]}', 2,
         "assignment entries must be bits, got 18446744073709551616"),
        ('{"n": 2, "r": 1, "values": [0, -1, 0]}', 2, "assignment entries must be bits, got -1"),
    ],
)
def test_reconstruct_refusals_keep_their_messages(capsys, ball, code, message):
    got, out, err = run(capsys, "reconstruct", "--ball", ball)
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and err.rstrip().endswith(message)
    assert "Traceback" not in err


def test_function_from_file(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("bf:2:8\n")
    code, payload, _ = run_json(capsys, "degree", "--f", f"@{path}")
    assert code == 0 and payload["degree"] == 2


def test_function_file_is_read_up_to_the_longest_literal(capsys, tmp_path):
    limit = cli._FUNCTION_FILE_BYTES
    literal = "bf:26:" + "0" * (1 << 24)
    path = tmp_path / "f26.txt"
    path.write_text(literal + "\n")
    f = cli._load_function(f"@{path}")
    assert f.n == 26 and f.table == 0
    path.write_text(literal + " " * (limit - len(literal)))
    assert cli._load_function(f"@{path}") == f
    path.write_text(literal + " " * (limit - len(literal) + 1))
    assert path.stat().st_size == limit + 1
    assert cli.main(["degree", "--f", f"@{path}"]) == 2
    err = capsys.readouterr().err
    assert f"longer than {limit} bytes" in err
    assert limit == len("bf:26:") + (1 << 24) + 64


def test_ball_file_is_read_up_to_the_largest_ball(capsys, tmp_path, monkeypatch):
    limit = cli._BALL_FILE_BYTES
    assert limit == 3 * (1 << 26) + 128
    # json.dumps writes each further bit in 3 bytes, so B_26 in n=26 leaves
    # 64 bytes of the bound for whitespace
    five = len(json.dumps({"n": 26, "r": 26, "values": [1] * 5}))
    assert five + 3 * ((1 << 26) - 5) <= limit - 64
    # the same read against a small bound: a file at the real one is 192 MiB
    doc = '{"n": 2, "r": 1, "values": [0, 1, 1]}'
    monkeypatch.setattr(cli, "_BALL_FILE_BYTES", len(doc) + 8)
    path = tmp_path / "ball.json"
    path.write_text(doc + " " * 8)
    code, payload, _ = run_json(capsys, "reconstruct", "--ball", f"@{path}")
    assert code == 0 and payload["function"] == "bf:2:6"
    path.write_text(doc + " " * 9)
    code, out, err = run(capsys, "reconstruct", "--ball", f"@{path}")
    assert (code, out) == (2, "")
    assert f"longer than {len(doc) + 8} bytes" in err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["degree", "--f", "@/dev/zero"], cli._FUNCTION_FILE_BYTES),
        (["reconstruct", "--ball", "@/dev/zero"], cli._BALL_FILE_BYTES),
        (["bounds", "--n", "4", "--known", "/dev/zero"], bounds._KNOWN_FILE_BYTES),
    ],
    ids=["function", "ball", "known"],
)
def test_endless_file_inputs_stop_at_their_bound(capsys, argv, limit):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: /dev/zero is longer than {limit} bytes, ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_census_payload_and_emit(capsys, tmp_path):
    emit = tmp_path / "bent2.txt"
    code, payload, err = run_json(
        capsys, "census", "--n", "2", "--emit", str(emit)
    )
    assert code == 0
    assert payload["counts"] == {"naive": 8, "degree": 8}
    assert payload["agreement"] is True
    assert "elapsed" not in json.dumps(payload)  # timings stay on stderr
    assert "elapsed" in err
    expected = enumerate_bent_by_degree(2).functions
    assert emit.read_text().splitlines() == [format_bf(f) for f in expected]


def test_census_single_method(capsys):
    code, payload, _ = run_json(capsys, "census", "--n", "2", "--method", "naive")
    assert code == 0
    assert payload["counts"] == {"naive": 8}
    assert "agreement" not in payload


def test_bounds_matches_library(capsys):
    code, payload, err = run_json(capsys, "bounds", "--n", "4")
    assert code == 0
    assert payload == bound_report(4)
    assert "bounds at n=4" in err  # table goes to stderr only


@pytest.mark.parametrize("n", [28, 64, 1024])
def test_bounds_past_the_arity_cap(capsys, n):
    # pure arithmetic: the arity cap on truth tables does not apply
    code, payload, _ = run_json(capsys, "bounds", "--n", str(n))
    assert code == 0
    assert payload == bound_report(n)
    assert payload["q_n"] == payload["t_n_log2"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_bounds_prints_strict_json_at_the_largest_arity(capsys):
    # Infinity and NaN are not JSON (RFC 8259); 3q/8 * log2(6) stays finite
    code, out, _ = run(capsys, "bounds", "--n", "1024")
    assert code == 0
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert math.isfinite(payload["theorem_upper_log2"])


def test_bounds_known_file(capsys, tmp_path):
    path = tmp_path / "known.json"
    path.write_text('[{"n": 6, "count": "5425430528", "source": "literature"}]')
    code, payload, _ = run_json(capsys, "bounds", "--n", "6", "--known", str(path))
    assert code == 0
    assert payload["known_provenance"] == "external"
    assert "headline_log2" in payload["asymptotic_only"]


@pytest.mark.parametrize("count", ["\u00b2", "\u0663"])
def test_bounds_known_count_of_non_ascii_digits_is_one_error_line(capsys, tmp_path, count):
    path = tmp_path / "known.json"
    path.write_text(json.dumps([{"n": 4, "count": count, "source": "x"}]))
    code, out, err = run(capsys, "bounds", "--n", "4", "--known", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: count for n=4 must be a positive decimal string\n"


def test_verify_success(capsys):
    code, payload, err = run_json(capsys, "verify", "--suite", "lemma1", "--n", "2")
    assert code == 0
    assert payload["passed"] is True
    assert payload == suite_lemma1(n=2)
    assert "checks" in err


def test_verify_failure_exits_3(capsys, monkeypatch):
    stub = {
        "suite": "lemma1",
        "mode": "stub",
        "params": {},
        "checks": 1,
        "failures": 1,
        "counterexamples": [{"f": "bf:2:0"}],
        "passed": False,
        "details": {},
    }
    monkeypatch.setitem(cli.SUITES, "lemma1", lambda **kwargs: stub)
    code, payload, _ = run_json(capsys, "verify", "--suite", "lemma1")
    assert code == 3
    assert payload["passed"] is False


def test_verify_lemma2_refuses_the_n26_ball_before_listing_it(capsys, monkeypatch):
    def refuse(n, r):
        raise AssertionError(f"ball_points({n}, {r}) listed the ball")

    monkeypatch.setattr(geometry, "ball_points", refuse)
    code, out, err = run(capsys, "verify", "--suite", "lemma2", "--n", "26")
    assert code == 4
    assert out == ""
    assert err.startswith("resource cap: ") and err.count("\n") == 1
    assert "38754732" in err and "Traceback" not in err


def test_coset_spectrum_past_the_work_budget_exits_4(capsys):
    literal = format_bf(BooleanFunction(16, 0))
    code, out, err = run(capsys, "coset-spectrum", "--f", literal, "--mask", "0")
    assert code == 4
    assert out == ""
    assert err.startswith("resource cap: ") and err.count("\n") == 1
    assert "needs 2^32 truth-table points" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "suite, refused",
    [("parseval", "2^38"), ("involution", "2^42"), ("convolution", "2^36"), ("involution", "2^25")],
)
def test_verify_sampled_streams_refuse_their_expected_cost(capsys, suite, refused):
    samples = "2049" if refused == "2^25" else "300000000"
    code, out, err = run(capsys, "verify", "--suite", suite, "--samples", samples)
    assert (code, out) == (4, "")
    assert err.startswith(f"resource cap: needs {refused} expected truth-table points for {samples}")
    assert err.count("\n") == 1


def test_verify_involution_stream_cap_sits_between_2048_and_2049_samples(capsys):
    # n uniform on 1..16: 2,048 samples expect 16,776,960 points, 2,049 expect 16,785,152;
    # the refusal's form is checked with the other sampled streams above
    code, payload, _ = run_json(capsys, "verify", "--suite", "involution", "--samples", "2048")
    assert code == 0 and payload["passed"] is True
    assert payload["checks"] == 4 + 16 + 256 + 65536 + 2048 == 67860
    code, _, err = run(capsys, "verify", "--suite", "involution", "--samples", "2049")
    assert code == 4 and "2^25" in err and "(16785152)" in err


def test_verify_lemma1_refuses_its_drawn_points(capsys):
    code, out, err = run(capsys, "verify", "--suite", "lemma1", "--n", "4", "--samples", "300000000")
    assert (code, out) == (4, "")
    needs = "needs 2^34 drawn truth-table points for 300000000 samples at n=4 (9600000000)"
    assert err == f"resource cap: {needs}, over the cap of 2^24\n"


def test_verify_lemma1_with_no_premise_true_triple_exits_3(capsys):
    code, payload, _ = run_json(capsys, "verify", "--suite", "lemma1", "--n", "10")
    assert code == 3
    assert payload["passed"] is False
    assert payload["details"]["premise_true"] == 0


@pytest.mark.parametrize(
    "argv,needs",
    [
        (("bent", "affine", "--f", "bf:4:0356", "--count", str((1 << 20) + 1)), "2^25"),
        (("verify", "--suite", "prop1", "--maps", "2000"), "2^25"),
    ],
    ids=["affine-count", "prop1-maps"],
)
def test_affine_image_work_is_capped_before_any_map_is_drawn(capsys, monkeypatch, argv, needs):
    def refuse(n, rng, count):
        raise AssertionError("a map was drawn")

    monkeypatch.setattr(bent, "random_invertible", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("resource cap: ") and err.count("\n") == 1
    assert f"needs {needs} truth-table points" in err and "Traceback" not in err
    # within the budget the patched name is what draws the maps
    with pytest.raises(AssertionError, match="a map was drawn"):
        run(capsys, *argv[:-1], "1")


@pytest.mark.parametrize("method", ["naive", "degree", "both"])
def test_census_jobs_1_prints_what_no_jobs_prints(capsys, method):
    # --jobs stays for scripts that pass it; the census runs in one process
    plain = run(capsys, "census", "--n", "2", "--method", method)
    jobs = run(capsys, "census", "--n", "2", "--method", method, "--jobs", "1")
    assert plain[0] == jobs[0] == 0
    assert plain[1] == jobs[1]


def test_census_disagreement_exits_3(capsys, monkeypatch):
    real = cli.enumerate_bent_naive

    def one_short(n):
        result = real(n)
        return dataclasses.replace(result, count=result.count - 1, tables=result.tables[1:])

    monkeypatch.setattr(cli, "enumerate_bent_naive", one_short)
    code, payload, _ = run_json(capsys, "census", "--n", "2")
    assert code == 3
    assert payload["counts"] == {"naive": 7, "degree": 8}
    assert payload["agreement"] is False


def test_verify_rejects_foreign_flag(capsys):
    code, out, err = run(capsys, "verify", "--suite", "convolution", "--n", "4")
    assert code == 1
    assert out == ""
    assert "does not accept --n" in err


def test_output_is_stable(capsys):
    first = run(capsys, "verify", "--suite", "parseval", "--samples", "20", "--seed", "5")
    second = run(capsys, "verify", "--suite", "parseval", "--samples", "20", "--seed", "5")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["frobnicate"], 1),
        (["wht"], 1),  # --f is required
        (["verify", "--suite", "nope"], 1),
        (["wht", "--f", "bf:2:zz"], 2),
        (["wht", "--f", "not-a-literal"], 2),
        (["wht", "--f", "@/nonexistent/path.txt"], 2),
        (["bent", "dual", "--f", "bf:2:6"], 2),
        (["census", "--n", "3"], 2),
        (["coset-spectrum", "--f", "bf:2:8", "--mask", "0x10"], 2),
        (["coset-spectrum", "--f", "bf:2:8", "--mask", "xyz"], 2),
        (["reconstruct", "--ball", "{broken"], 2),
        (["reconstruct", "--ball", '{"n": 2, "r": 1, "values": [0, 1]}'], 2),
        (["census", "--n", "6"], 4),
        # the arity guard fires before digit-count validation
        (["degree", "--f", "bf:27:0"], 4),
        (["bounds", "--n", "5"], 2),
        (["reconstruct", "--ball", "[1,2]"], 2),
        (["reconstruct", "--ball", '{"n": 2, "r": 1, "values": null}'], 2),
        (["reconstruct", "--ball", '{"n": "2", "r": 1, "values": [0, 1, 1]}'], 2),
        (["wht", "--f", "bf:4:03_6"], 2),
        (["wht", "--f", "bf:4:0x12"], 2),
        (["wht", "--f", "bf:+4:0356"], 2),
        (["wht", "--f", "bf:4:-356"], 2),
        (["verify", "--suite", "lemma1", "--n", "8", "--samples", "-5"], 1),
        (["verify", "--suite", "lemma2", "--n", "6", "--samples", "0"], 1),
        (["verify", "--suite", "prop1", "--maps", "0"], 1),
        (["bounds", "--n", "1026"], 2),
        (["census", "--n", "2", "--jobs", "0"], 1),
        (["census", "--n", "2", "--jobs", "-3"], 1),
        (["census", "--n", "2", "--shards", "2"], 1),
        (["bent", "affine", "--f", "bf:4:0356", "--maps", "3"], 1),
        (["verify", "--suite", "lemma1", "--n", "-2"], 2),
        (["verify", "--suite", "lemma2", "--n", "-2"], 2),
        (["bent", "affine", "--f", "bf:4:0356", "--count", "0"], 1),
        (["bent", "affine", "--f", "bf:4:0356", "--count", "-2"], 1),
        # the arity cap fires before the degree-space exponent is summed
        (["census", "--n", "100000", "--method", "degree"], 4),
        (["verify", "--suite", "flats", "--n", "100000"], 4),
        (["verify", "--suite", "prop1", "--n", "100000"], 4),
        # the ball's size is counted, not listed, after the arity cap
        (["reconstruct", "--ball", '{"n": 22, "r": 11, "values": [0]}'], 2),
        (["reconstruct", "--ball", '{"n": 27, "r": 1, "values": [0]}'], 4),
        # bits are plain ints
        (["reconstruct", "--ball", '{"n": 2, "r": 1, "values": [1.0, 0, 0]}'], 2),
        (["reconstruct", "--ball", '{"n": 2, "r": 1, "values": [true, 0, 0]}'], 2),
        (["reconstruct", "--ball", DEEP_JSON], 2),
        (["bounds", "--n", "4", "--known", "DEEP_FILE"], 2),
        # the parser refuses the count before the literal is read
        (["bent", "affine", "--f", "bf:2:zz", "--count", "0"], 1),
        (["census", "--n", "2", "--jobs", "x"], 1),
        # the census runs in one process, so --jobs takes only 1
        (["census", "--n", "2", "--jobs", "2"], 1),
        # past int64, and the 2 after a bit
        (["reconstruct", "--ball", '{"n": 2, "r": 1, "values": [0, 0, 1' + "0" * 30 + "]}"], 2),
        (["reconstruct", "--ball", '{"n": 2, "r": 1, "values": [0, 0, -1' + "0" * 30 + "]}"], 2),
        (["reconstruct", "--ball", '{"n": 2, "r": 1, "values": [0, 1, 2]}'], 2),
        (["verify", "--suite", "parseval", "--samples", "abc"], 1),
    ],
)
def test_exit_codes(capsys, tmp_path, argv, expected):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    argv = [str(deep) if a == "DEEP_FILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""  # no JSON document on failure
    assert err  # but a diagnostic


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert "census" in captured.out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bentkit.cli", "wht", "--f", "bf:2:8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 2, "values": [2, 2, 2, -2]}


# Maiorana-McFarland <x, y> on F_2^4 x F_2^4, x the low index bits
MM8 = format_bf(BooleanFunction(8, sum(((x & 15) & (x >> 4)).bit_count() % 2 << x for x in range(256))))
# the same on F_2^8 x F_2^8
_X16 = np.arange(1 << 16)
MM16 = format_bf(BooleanFunction(16, pack_bits(np.bitwise_count(_X16 & (_X16 >> 8) & 255) & 1)))
GOLDEN_ARGVS = [
    ["wht", "--f", "bf:2:8"],
    ["wht", "--f", format_bf(random_function(8, 8))],
    ["wht", "--f", format_bf(random_function(12, 12))],
]
for _literal, _mask in (("bf:4:0356", "0x5"), (MM8, "0x33")):
    GOLDEN_ARGVS += [
        ["bent", "test", "--f", _literal],
        ["bent", "dual", "--f", _literal],
        ["bent", "affine", "--f", _literal, "--count", "3"],
        ["coset-spectrum", "--f", _literal, "--mask", _mask],
    ]
GOLDEN_ARGVS += [["bounds", "--n", "4"], ["bounds", "--n", "26"], ["census", "--n", "4"]]
GOLDEN_ARGVS += [
    ["verify", "--suite", suite]
    for suite in ("lemma1", "lemma2", "prop1", "flats", "convolution", "parseval", "involution")
]
GOLDEN_ARGVS += [
    ["bent", "flats", "--f", literal]
    for literal in (
        "bf:2:8",
        "bf:4:0356",
        MM8,
        format_bf(random_function(3, 3)),
        format_bf(random_function(10, 10)),
    )
]
# count 9 at n=16 tests the images in nine chunks of 1
GOLDEN_ARGVS += [
    ["bent", "affine", "--f", "bf:2:8", "--count", "5"],
    ["bent", "affine", "--f", MM16, "--count", "9"],
]
GOLDEN_ARGVS += [
    ["verify", "--suite", "census-agreement"],
    ["verify", "--suite", "census-agreement", "--n", "2"],
]
# top-level int lists of 4,096 and 65,536 entries
GOLDEN_ARGVS += [
    ["anf", "--f", format_bf(random_function(12, 12))],
    ["wht", "--f", MM16],
    ["anf", "--f", MM16],
]
# (sha256 of stdout, exit code) per argv above
GOLDEN = [
    ("f92695d70604bbee38f227f10a969a05229a3c8d136a4506a38021287ee3a70b", 0),
    ("493d6219a2c46aba300e9cc39a52cff243865a4f21a2f7fd7992d347341a19d1", 0),
    ("e922ecb73e657e77798e7defed12417ae26eb4a300432a01c38b092f5ee18e02", 0),
    ("3d33bc5bbf180d80bb7022f8ccc2827691ad58ed4acfbfbc6483d73e8313437f", 0),
    ("673fe3f7a616733b9432f93ba889b9bc599d3c34115ff693a9b1081f175e7581", 0),
    ("be153cdaf154f6145295e96c76af3ecc1d747881727ac31506162ff6777bb3bb", 0),
    ("5a11dbc909821cb715c78139a2d2ed6550443825dcdb07401638088160a53a6b", 0),
    ("f368abb41d8e36d6fc631beabdeedc503fa75825308e73178e21447a325e6ab2", 0),
    ("ad1459c31323556cae5c665bb3b9ed2966c3a449ae18fe39e1f9bff4906d86a6", 0),
    ("d6bcd3118e8c391a0c7ad01b161ef7c5a91497e5b9050e9be0b2e975b1d2b955", 0),
    ("93c405f0610843a89bb1118e22d44ad3dcd5ee0ee2e214aef630735a4c9eee82", 0),
    ("4877edbf1de2f0641225fa182853a97e260d8d5958d199f5f465fb2c2862fce9", 0),
    ("69682f3c739f199c37f76d3edac84dccd3b42d4bda65afa330674b7c655c607c", 0),
    ("4f77c628c206b90bc081bc5698f491c8aa9facbd155bb0470d4d2b56a6f9344f", 0),
    ("dd94e3e7d88e68f59521c8bcabd6572a4c4ae4aadc117ccdf49ba92473e81525", 0),
    ("3784b9b792c5d06777ebec53e4d1b8ddc935772b1eeaefeeea2f41401a15bf11", 0),
    ("7e24ce66a88216c40c2009d5a0b1a529d1949cb2df50e54527658f936cb82de7", 0),
    ("a20d50d9f55b094dbde870727c1e35feceaf27b8c63e0632d2b20924827fa5b4", 0),
    ("539d0928e731e66a9d2b8054327c5349b2b4520fc661ddb2ecd25e619404e34d", 0),
    ("3fa658c9919b5210189789cb4e5212b45c2afe5cf761f03e2974bc6178c5d6f7", 0),
    ("1bf1b5b90c6d9b23272c643d64ce43d8dfd747ba83346283f57c48969b220a4d", 0),
    ("b2c5771654b7ea73f777de4f0096d23d170d99399b8d4ea8c2194b21dcd1a5f9", 0),
    ("688de565d24828ba14eada79b58098c52867a218af4bd4ffaf4209bbb66ca39c", 0),
    ("f7c18e5b85adfba2ae0fb509231788522ae315bc096ed69063339c9790a51f35", 0),
    ("7417bca63ca8aee526819866fac1e4eddb91fa54a319b586783c1ddbcbf258cc", 0),
    ("1c2d0a2be88bd49c0459a5e798c9aea96fd51e07f36460a5d383b1355592f28c", 0),
    ("c2691bb4c4e1ec67b0229050d5f0cdff64326db9b0fc3f3ac8ea487ab180eed3", 0),
    ("8cca86b17daa56f885942b0c64d3820db232460b1034182d0ca7e7c2fe148c22", 0),
    ("c8b7dd830100746982b403d4737f14459b0b99606e369a9eebadd4a2accd4449", 0),
    ("1a0b4498d1dadac744de23767c0cc01f68a7d6d799c0e6fa5f6ba2f3520c2cb4", 0),
    ("22ae71a67f80262c6ee4395352ee5a4ef005f26e777ecdfce773c25d7be75266", 0),
    ("7a9e24cf2bca8f785d5970ce2cbec93a54856e5d6ae7c3cff691101173a7bb51", 0),
    ("10475c0bf1093cc03b984e948baaea3a0dae695727d4524797d022e3eadab593", 0),
]


def test_stdout_bytes_and_exit_codes_match_the_golden_digests(capsys):
    changed = []
    for argv, expected in zip(GOLDEN_ARGVS, GOLDEN, strict=True):
        code, out, _ = run(capsys, *argv)
        if (hashlib.sha256(out.encode()).hexdigest(), code) != expected:
            changed.append(argv)
    assert changed == []


def test_golden_digests_hold_in_reverse_order_in_one_process(capsys):
    # every argv after the first reuses the parser that an earlier one built
    changed = []
    for argv, expected in reversed(list(zip(GOLDEN_ARGVS, GOLDEN, strict=True))):
        code, out, _ = run(capsys, *argv)
        if (hashlib.sha256(out.encode()).hexdigest(), code) != expected:
            changed.append(argv)
    assert changed == []


def test_golden_stdout_is_the_stock_encoding_of_its_payload(capsys):
    for argv in GOLDEN_ARGVS:
        _, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert out == cli._dumps(payload) + "\n" == json.dumps(payload, indent=2) + "\n"


class _Bit(enum.IntEnum):
    ONE = 1


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.text(),
    st.sampled_from(["a\nb", "\u00e9\r\n", "\u2028", '"\\', "\U0001f600"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
PAYLOADS = st.dictionaries(
    st.text(max_size=6),
    st.one_of(JSON_VALUES, st.lists(st.integers(), max_size=20), st.lists(st.integers(-(2**70), 2**70))),
    max_size=5,
)


@given(PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_dumps_matches_the_stock_encoder(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("payload", [
    {"v": [1, True]},
    {"v": [1, _Bit.ONE, 2]},
    {"v": []},
    {"v": [0]},
    {},
    {1: [1, 2], "v": [3]},
    {"n": 2, "values": [2, 2, 2, -2], "note": "a\nb", "nested": {"w": [1, 2]}},
    # the shape of bent affine's images, with int lists below the top level
    {"n": 2, "images": [{"values": [1, 0]}, {"values": []}], "v": [-(2**64), 2**64]},
])
def test_dumps_matches_the_stock_encoder_on_fixed_payloads(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2)


def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # 622 kB of output: the write blocks on the pipe until the reader closes it
    path = tmp_path / "mm16.txt"
    path.write_text(MM16)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bentkit.cli", "wht", "--f", f"@{path}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.read(8) == b'{\n  "n":'
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == cli.EXIT_DOMAIN
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_builds_the_parser_once_per_process(capsys):
    cli.build_parser.cache_clear()
    assert run(capsys, "bent", "test", "--f", "bf:4:0356")[0] == 0
    assert run(capsys, "bounds", "--n", "4")[0] == 0
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


def test_a_reused_parser_carries_no_value_into_the_next_call(capsys):
    code, payload, _ = run_json(
        capsys, "bent", "affine", "--f", "bf:4:0356", "--count", "3", "--seed", "9"
    )
    assert code == 0 and (payload["count"], payload["seed"]) == (3, 9)
    code, payload, _ = run_json(capsys, "bent", "affine", "--f", "bf:4:0356")
    assert code == 0 and (payload["count"], payload["seed"]) == (10, 1)
    parser = cli.build_parser()
    assert parser.parse_args(["verify", "--suite", "lemma1", "--n", "3"]).n == 3
    assert parser.parse_args(["verify", "--suite", "lemma1"]).n is None
    # a usage error leaves nothing behind for the call after it
    code, out, err = run(capsys, "bent", "affine", "--f", "bf:4:0356", "--count", "0")
    assert (code, out) == (1, "") and "usage error" in err
    code, payload, _ = run_json(capsys, "bent", "affine", "--f", "bf:4:0356", "--count", "2")
    assert code == 0 and len(payload["images"]) == 2


def _leaf_parsers(parser, words=()):
    """(subcommand words, parser) for every runnable subcommand of the CLI."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield list(words), parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_parsers(sub, (*words, name))


LEAVES = list(_leaf_parsers(cli.build_parser()))
SMALL = st.integers(-1, 3).map(str)
ARITIES = st.sampled_from([-2, 0, 1, 2, 3, 27, 10**6])
LITERALS = st.one_of(
    st.integers(1, 4).flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda t: format_bf(BooleanFunction(n, t)))
    ),
    st.builds(
        "bf:{}:{}".format,
        st.integers(-1, 30).map(str) | st.sampled_from(["+4", "04", " 2", "x", ""]),
        st.text("0123456789abcdefABCDEFxz_+- ", max_size=6),
    ),
    st.sampled_from(["not-a-literal", "@/nonexistent/f.txt", "", "bf:4:0x12"]),
)
MASKS = st.one_of(
    st.integers(-2, 20).map(str),
    st.integers(0, 31).map(hex),
    st.sampled_from(["0b11", "xyz", "", " 3", "3.0", "0x"]),
)


def _ball_json(n, r, bits):
    """A well-formed ball assignment: r clipped to n, the low bits of ``bits``."""
    r = min(r, n)
    values = [(bits >> i) & 1 for i in range(len(ball_points(n, r)))]
    return json.dumps({"n": n, "r": r, "values": values})


BALLS = st.one_of(
    st.builds(_ball_json, st.integers(1, 4), st.integers(0, 4), st.integers(0, (1 << 16) - 1)),
    st.fixed_dictionaries({
        "n": ARITIES | st.integers(1, 4),
        "r": st.integers(-1, 4),
        "values": st.lists(st.sampled_from([0, 1, 1.0, True, 2, None, "1"]), max_size=12),
    }).map(json.dumps),
    st.sampled_from(["{broken", "[1,2]", "null", "{}", '{"n": 2, "r": 1}', DEEP_JSON]),
)
VALUES = {
    "f": LITERALS,
    "mask": MASKS,
    "ball": BALLS,
    "n": ARITIES.map(str),
    "samples": SMALL,
    "maps": SMALL,
    "count": SMALL,
    "seed": st.integers(0, 9).map(str),
    "known": st.sampled_from(["/nonexistent/known.json", "."]),
}


@st.composite
def argvs(draw):
    words, parser = draw(st.sampled_from(LEAVES))
    argv = list(words)
    accepted = set()
    for action in parser._actions:
        if action.dest == "suite":
            suite = draw(st.sampled_from(sorted(action.choices)))
            argv += ["--suite", suite]
            accepted = set(inspect.signature(cli.SUITES[suite]).parameters)
    for action in parser._actions:
        if not action.option_strings or action.dest in ("help", "suite", "emit"):
            continue
        # a suite's default samples or maps would run for seconds; pass <= 3
        forced = action.dest in ("samples", "maps") and action.dest in accepted
        if forced or draw(st.booleans()):
            values = st.sampled_from(action.choices) if action.choices else VALUES[action.dest]
            argv += [action.option_strings[0], draw(values)]
    return argv


@given(argvs())
@example(["census", "--n", "100000", "--method", "degree"])
@example(["verify", "--suite", "flats", "--n", "100000"])
@example(["reconstruct", "--ball", '{"n": 22, "r": 11, "values": [0]}'])
@example(["reconstruct", "--ball", '{"n": 2, "r": 1, "values": [1.0, 0, 0]}'])
@example(["reconstruct", "--ball", DEEP_JSON])
@settings(max_examples=150, deadline=None)
def test_main_keeps_its_stream_and_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in range(5)
    if code in (0, 3):
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
