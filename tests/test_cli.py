"""CLI: thin-adapter equivalence, exit codes, stream discipline."""

import json
import random
import subprocess
import sys

import pytest

import bentkit.cli as cli
from bentkit.bent import apply_affine, dual_bent, random_invertible, two_flat_sum_distribution
from bentkit.bounds import bound_report
from bentkit.census import enumerate_bent_by_degree
from bentkit.core import format_bf, parse_bf
from bentkit.geometry import FaceMask, coset_spectrum
from bentkit.reconstruct import BallAssignment, reconstruct_from_ball
from bentkit.suites import suite_lemma1
from bentkit.transforms import degree, moebius, walsh_fast


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
    assert payload["values"] == list(walsh_fast(parse_bf("bf:2:8")).values)


def test_anf_matches_library(capsys):
    f = parse_bf("bf:4:7888")
    code, payload, _ = run_json(capsys, "anf", "--f", "bf:4:7888")
    assert code == 0
    assert payload == {"n": 4, "values": moebius(f.bits())}


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
    expected = [format_bf(apply_affine(f, random_invertible(4, rng))) for _ in range(4)]
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
    expected = coset_spectrum(f, FaceMask(2, 1))
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
    expected = reconstruct_from_ball(BallAssignment(2, 1, (0, 1, 1)))
    assert payload["function"] == format_bf(expected)


def test_function_from_file(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("bf:2:8\n")
    code, payload, _ = run_json(capsys, "degree", "--f", f"@{path}")
    assert code == 0 and payload["degree"] == 2


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
    assert payload == bound_report(4).to_json_dict()
    assert "bounds at n=4" in err  # table goes to stderr only


@pytest.mark.parametrize("n", [28, 64, 1024])
def test_bounds_past_the_arity_cap(capsys, n):
    # pure arithmetic: the arity cap on truth tables does not apply
    code, payload, _ = run_json(capsys, "bounds", "--n", str(n))
    assert code == 0
    assert payload == bound_report(n).to_json_dict()
    assert payload["q_n"] == payload["t_n_log2"]


def test_bounds_known_file(capsys, tmp_path):
    path = tmp_path / "known.json"
    path.write_text('[{"n": 6, "count": "5425430528", "source": "literature"}]')
    code, payload, _ = run_json(capsys, "bounds", "--n", "6", "--known", str(path))
    assert code == 0
    assert payload["known_provenance"] == "external"
    assert "headline_log2" in payload["asymptotic_only"]


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
    ],
)
def test_exit_codes(capsys, argv, expected):
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
