"""The three workloads: seeded request lists with expected answers.

A workload is a list of ``Request``: the argv one ``bentkit`` invocation
gets, the arity it works at, and a check of the JSON it must print.  Every
expected answer comes from ``reference`` (closed forms and numpy kernels
written independently of bentkit), never from bentkit itself.  The mix of
commands and arities is fixed per workload; the seed draws the functions,
masks and affine-map seeds, and the order of the requests.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference as ref

Check = Callable[[dict], Optional[str]]


@dataclass(frozen=True)
class Request:
    argv: list[str]
    n: int
    check: Check

    @property
    def kind(self) -> str:
        """The argv without its long literals, for error messages."""
        return " ".join(a for a in self.argv if len(a) <= 20)


def _mismatch(field: str, got, want) -> Optional[str]:
    if got == want:
        return None
    text = f"{field}: got {got!r}"[:120]
    return f"{text}, want {want!r}"[:240]


def _fields(payload: dict, want: dict) -> Optional[str]:
    for key, value in want.items():
        problem = _mismatch(key, payload.get(key), value)
        if problem:
            return problem
    return None


def wht(n: int, bits: np.ndarray) -> Request:
    """Spectrum of an arbitrary function: Parseval, W(0) = 2^n - 2 wt, and
    the reference transform."""
    spectrum = ref.walsh(bits)
    want = [int(v) for v in spectrum]
    weight = int(bits.sum())

    def check(payload: dict) -> Optional[str]:
        values = payload.get("values")
        if not isinstance(values, list) or len(values) != 1 << n:
            return "values: wrong length"
        if sum(v * v for v in values) != 1 << (2 * n):
            return "values: Parseval fails"
        if values[0] != (1 << n) - 2 * weight:
            return "values: W(0) != 2^n - 2 wt"
        return _mismatch("values", values, want)

    return Request(["wht", "--f", ref.literal(n, ref.table_of(bits))], n, check)


def wht_bent(mm: ref.MaioranaMcFarland) -> Request:
    want = {"n": mm.n, "values": mm.spectrum()}
    return Request(["wht", "--f", mm.literal], mm.n, lambda p: _fields(p, want))


def anf(f: ref.KnownFunction) -> Request:
    want = {"n": f.n, "values": f.anf.tolist()}
    return Request(["anf", "--f", f.literal], f.n, lambda p: _fields(p, want))


def degree(n: int, literal: str, value: int) -> Request:
    want = {"n": n, "degree": value}
    return Request(["degree", "--f", literal], n, lambda p: _fields(p, want))


def bent_test(n: int, bits: np.ndarray, bent: bool) -> Request:
    literal = ref.literal(n, ref.table_of(bits))
    want = {"n": n, "function": literal, "bent": bent}
    return Request(["bent", "test", "--f", literal], n, lambda p: _fields(p, want))


def bent_dual(mm: ref.MaioranaMcFarland) -> Request:
    want = {"n": mm.n, "function": mm.literal, "dual": mm.dual_literal}
    return Request(["bent", "dual", "--f", mm.literal], mm.n, lambda p: _fields(p, want))


def coset_spectrum(n: int, bits: np.ndarray, mask: int, sums: Optional[dict] = None) -> Request:
    """Coset sums; ``sums`` is a closed form when the caller has one, else the
    reference bincount.  Either way the sums must total 2^n - 2 wt."""
    if sums is None:
        sums = ref.coset_sums(bits, mask)
    literal = ref.literal(n, ref.table_of(bits))
    want = {
        "n": n,
        "function": literal,
        "mask": f"{mask:#x}",
        "dim": mask.bit_count(),
        "sums": {str(k): v for k, v in sums.items()},
    }
    total = (1 << n) - 2 * int(bits.sum())

    def check(payload: dict) -> Optional[str]:
        got = payload.get("sums")
        if not isinstance(got, dict) or sum(got.values()) != total:
            return "sums: total != 2^n - 2 wt"
        return _fields(payload, want)

    return Request(["coset-spectrum", "--f", literal, "--mask", f"{mask:#x}"], n, check)


def reconstruct(f: ref.KnownFunction, r: int) -> Request:
    """Ball restriction of a degree <= r function: reconstruction returns it."""
    ball = {"n": f.n, "r": r, "values": [int(f.bits[p]) for p in ref.ball_order(f.n, r)]}
    want = {"n": f.n, "r": r, "function": f.literal, "degree": f.degree}
    return Request(["reconstruct", "--ball", json.dumps(ball)], f.n, lambda p: _fields(p, want))


def flats(mm: ref.MaioranaMcFarland) -> Request:
    stats = ref.two_flat_counts(mm.n)

    def check(payload: dict) -> Optional[str]:
        counts = payload.get("counts") or {}
        got = {
            "total": payload.get("total"),
            "odd": counts.get("-2", 0) + counts.get("2", 0),
            "four": counts.get("-4", 0) + counts.get("4", 0),
            "zero": counts.get("0", 0),
        }
        return _fields({"function": payload.get("function"), **got}, {"function": mm.literal, **stats})

    return Request(["bent", "flats", "--f", mm.literal], mm.n, check)


def affine(mm: ref.MaioranaMcFarland, seed: int, count: int = 4) -> Request:
    """Affine images of a bent function must be bent; the reference
    transform checks each image."""
    want = {"n": mm.n, "function": mm.literal, "seed": seed, "count": count, "all_bent": True}

    def check(payload: dict) -> Optional[str]:
        problem = _fields(payload, want)
        if problem:
            return problem
        images = payload.get("images")
        if not isinstance(images, list) or len(images) != count:
            return "images: wrong count"
        for image in images:
            text = image.get("function", "")
            prefix = f"bf:{mm.n}:"
            if not text.startswith(prefix) or not image.get("bent"):
                return f"image {text[:40]!r} not reported bent"
            if not ref.is_bent(ref.bits_of(int(text[len(prefix):], 16), mm.n), mm.n):
                return f"image {text[:40]!r} is not bent"
        return None

    argv = ["bent", "affine", "--f", mm.literal, "--count", str(count), "--seed", str(seed)]
    return Request(argv, mm.n, check)


def bounds(n: int) -> Request:
    want = ref.bound_fields(n)
    known = want.get("known_count_log2")
    flagged = [
        name
        for name in ("trivial_upper_log2", "theorem_upper_log2", "headline_log2", "simplified_log2")
        if known is not None and name in want and want[name] < known - 1e-12
    ]
    warnings = 1 if want.get("theorem_upper_log2", 0) > want["trivial_upper_log2"] else 0

    def check(payload: dict) -> Optional[str]:
        if set(want) - set(payload):
            return f"missing fields {sorted(set(want) - set(payload))}"
        for key, value in want.items():
            got = payload[key]
            if isinstance(value, float):
                if not isinstance(got, (int, float)) or not math.isclose(got, value, rel_tol=1e-9):
                    return _mismatch(key, got, value)
            elif got != value:
                return _mismatch(key, got, value)
        return _fields(
            {"n": payload.get("n"), "asymptotic_only": payload.get("asymptotic_only"),
             "warnings": len(payload.get("warnings", []))},
            {"n": n, "asymptotic_only": flagged, "warnings": warnings},
        )

    return Request(["bounds", "--n", str(n)], n, check)


def census(n: int, method: str = "both") -> Request:
    count = ref.BENT_COUNTS[n]
    methods = ("naive", "degree") if method == "both" else (method,)
    want = {"n": n, "method": method, "counts": {m: count for m in methods}}
    if method == "both":
        want["agreement"] = True
    argv = ["census", "--n", str(n), "--method", method, "--jobs", "1"]
    return Request(argv, n, lambda p: _fields(p, want))


def _lemma2_checks(n: int = 4, samples: int = 256) -> int:
    # per radius: one collision check per normal form on the ball, plus one
    # round trip each (all of them up to 2048, else `samples` of them)
    total = 0
    for r in range(n + 1):
        forms = 1 << len(ref.ball_order(n, r))
        total += forms + (forms if forms <= 2048 else min(samples, forms))
    return total


def _exhaustive(max_n: int) -> int:
    return sum(1 << (1 << n) for n in range(1, max_n + 1))


def verify(suite: str) -> Request:
    """A suite at its default flags: it must pass, with the number of checks
    its definition implies."""
    bent4 = ref.BENT_COUNTS[4]
    flat4 = ref.two_flat_counts(4)
    expected = {
        "lemma1": (3, ref.LEMMA1_CHECKS, {"premise_true": ref.LEMMA1_PREMISE_TRUE}),
        "lemma2": (4, _lemma2_checks(), {}),
        "prop1": (4, bent4 * 10, {"census_size": bent4}),
        "convolution": (2, 16 * 4 + 1000, {}),
        "parseval": (3, _exhaustive(3) + 1000, {}),
        "involution": (4, _exhaustive(4) + 1000, {}),
        "flats": (
            4,
            1 + 2 * bent4,
            {
                "census_size": bent4,
                "total_flats": flat4["total"],
                "abs_distribution": {"0": flat4["zero"], "2": flat4["odd"], "4": flat4["four"]},
            },
        ),
        "census-agreement": (4, 1, {"count": bent4}),
    }
    n, checks, details = expected[suite]
    want = {"suite": suite, "checks": checks, "failures": 0, "passed": True}

    def check(payload: dict) -> Optional[str]:
        return _fields(payload, want) or _fields(payload.get("details") or {}, details)

    return Request(["verify", "--suite", suite], n, check)


def _random_bits(n: int, rng: random.Random) -> np.ndarray:
    return ref.bits_of(rng.getrandbits(1 << n), n)


def _random_mask(n: int, rng: random.Random) -> int:
    return sum(1 << i for i in rng.sample(range(n), n // 2))


def large_n(rng: random.Random) -> list[Request]:
    """One big function per request at n = 12, 14, 16.  The n = 16 anf and
    degree requests form the latency tail; the median lands among the four
    n = 16 bent tests, inside the cluster rather than at its edge."""
    out: list[Request] = []
    for n, heavy, tests in ((12, 1, 1), (14, 1, 1), (16, 3, 2)):
        mm = ref.maiorana_mcfarland(n, rng)
        bits = _random_bits(n, rng)
        out += [
            wht(n, bits),
            wht_bent(mm),
            bent_dual(mm),
            coset_spectrum(n, bits, _random_mask(n, rng)),
            coset_spectrum(n, mm.bits, (1 << mm.h) - 1, mm.x_block_sums()),
        ]
        for _ in range(tests):
            out += [bent_test(n, mm.bits, True), bent_test(n, ref.flipped(mm.bits, rng), False)]
        for k in range(heavy):
            f = ref.random_anf_function(n, n - k, rng)
            out.append(anf(f))
            g = ref.random_anf_function(n, n - 1 - k, rng)
            out.append(degree(n, g.literal, g.degree))
    for _ in range(4):
        out.append(reconstruct(ref.random_anf_function(12, 6, rng), 6))
    rng.shuffle(out)
    return out


def small_n(rng: random.Random) -> list[Request]:
    """Many cheap requests on Maiorana-McFarland bent functions at
    n = 4, 6, 8 plus ``bounds`` for every even n from 4 to 26."""
    out: list[Request] = []
    for n in (4, 6, 8):
        for k in range(20):
            mm = ref.maiorana_mcfarland(n, rng)
            mask = (1 << mm.h) - 1 if k % 2 else _random_mask(n, rng)
            sums = mm.x_block_sums() if k % 2 else None
            out += [
                wht_bent(mm),
                degree(n, mm.literal, ref.anf_degree(ref.moebius(mm.bits))),
                bent_test(n, mm.bits, True),
                bent_test(n, ref.flipped(mm.bits, rng), False),
                bent_dual(mm),
                affine(mm, rng.randrange(1 << 30)),
                coset_spectrum(n, mm.bits, mask, sums),
            ]
    for n, count in ((4, 20), (6, 30), (8, 3)):
        out += [flats(ref.maiorana_mcfarland(n, rng)) for _ in range(count)]
    out += [bounds(n) for n in range(4, 27, 2)]
    rng.shuffle(out)
    return out


def verify_census(rng: random.Random) -> list[Request]:
    """Every verify suite at its default flags plus the n = 4 and n = 2
    census.  Suite inputs come from their own default seeds (other seeds
    change their cost by up to a third), so the seed only orders requests.
    The degree-only n = 4 census makes the count odd, so the median latency
    is one request's time rather than the mean of two unlike ones."""
    out = [verify(suite) for suite in (
        "lemma1", "lemma2", "prop1", "convolution", "parseval", "involution", "flats", "census-agreement",
    )]
    out += [census(4), census(4, "degree"), census(2)]
    rng.shuffle(out)
    return out


WORKLOADS = {"large-n": large_n, "small-n": small_n, "verify-census": verify_census}


def build(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(seed))
