"""Spans around bentkit's layer boundaries, recorded from outside the package.

``install`` wraps the public functions listed in TRACED and rebinds every
name in every loaded ``bentkit`` module (and the ``SUITES`` table) that holds
one of them, because ``bent``, ``reconstruct``, ``suites`` and ``cli`` bind
their callees with ``from .x import f``.  Each call records one span: name,
start, end, parent span, request id and arity n.  Spans live in flat arrays
until the session ends; ``Tracer.metrics`` then reduces them.  A span's self
time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

TRACED = {
    "cli": ("main",),
    "core": ("parse_bf", "format_bf"),
    "transforms": (
        "walsh_fast",
        "walsh_naive",
        "moebius",
        "degree",
        "hadamard_transform",
        "convolve_pm",
        "check_restriction_identity",
    ),
    "geometry": ("coset_spectrum", "ball_points", "covering_coset_count"),
    "bent": ("is_bent", "dual_bent", "apply_affine", "random_invertible", "two_flat_sum_distribution"),
    "reconstruct": ("check_lemma1", "reconstruct_from_ball"),
    "census": ("enumerate_bent_naive", "enumerate_bent_by_degree"),
    "bounds": ("bound_report",),
}
SUITE_NAMES = (
    "lemma1",
    "lemma2",
    "prop1",
    "convolution",
    "parseval",
    "involution",
    "flats",
    "census-agreement",
)
LAYERS = tuple(TRACED) + ("suites",)
SPANS = tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names) + tuple(
    f"suites.{s}" for s in SUITE_NAMES
)
_LAYER_OF = tuple(span.split(".")[0] for span in SPANS)
# spans whose calls each touch 2^n points; transforms.points sums them
_TRANSFORM_SPANS = (
    "transforms.walsh_fast",
    "transforms.walsh_naive",
    "transforms.moebius",
    "transforms.hadamard_transform",
)
# per-arity rows: metric name -> (span, n, statistic over that span's calls)
ARITY_ROWS = {
    "transforms.walsh_fast.n16.ms": ("transforms.walsh_fast", 16, "median"),
    "transforms.degree.n16.ms": ("transforms.degree", 16, "median"),
    "bent.two_flat_sum_distribution.n8.ms": ("bent.two_flat_sum_distribution", 8, "median"),
    "bent.two_flat_sum_distribution.n8.cold_ms": ("bent.two_flat_sum_distribution", 8, "first"),
    "reconstruct.reconstruct_from_ball.n12.ms": ("reconstruct.reconstruct_from_ball", 12, "median"),
    "census.enumerate_bent_naive.n4.ms": ("census.enumerate_bent_naive", 4, "median"),
    "census.enumerate_bent_by_degree.n4.ms": ("census.enumerate_bent_by_degree", 4, "median"),
}
# counted as spans close; transforms.points is derived from the spans instead
COUNTERS = (
    "cli.stdout_bytes",
    "bent.flats_scanned",
    "census.candidates",
    "census.bent_found",
    "suites.checks",
)


def _census_candidates(n: int, method: str) -> int:
    # naive scans every truth table; the degree method every normal form
    # supported on the ball of radius n/2
    if method == "naive":
        return 1 << (1 << n)
    return 1 << sum(math.comb(n, i) for i in range(n // 2 + 1))


def _arity_of(args, kwargs, default):
    if args:
        first = args[0]
        if isinstance(first, int):
            return first
        n = getattr(first, "n", None)
        if n is not None:
            return n
        if isinstance(first, (list, tuple)):
            return len(first).bit_length() - 1
    return kwargs.get("n", default)


class Tracer:
    """Span log of one session; ``request`` and ``request_n`` are set by the
    caller before each CLI request."""

    def __init__(self) -> None:
        self.name_ids = array("q")
        self.arity = array("q")
        self.parent = array("q")
        self.request_ids = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request = -1
        self.request_n = -1
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, span_id: int, name: str, func, default_n: int = -1):
        layer = _LAYER_OF[span_id]
        names, arity, parent, requests = self.name_ids, self.arity, self.parent, self.request_ids
        start, end, stack, counts = self.start, self.end, self.stack, self.counts
        is_main = name == "cli.main"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(span_id)
            n = self.request_n if is_main else _arity_of(args, kwargs, default_n)
            arity.append(n)
            parent.append(stack[-1])
            requests.append(self.request)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                end[idx] = perf_counter()
                stack.pop()
                up = parent[idx]
                if up < 0 or _LAYER_OF[names[up]] != layer:
                    self.errors[layer] += 1
                raise
            end[idx] = perf_counter()
            stack.pop()
            if n < 0 and hasattr(result, "n"):
                arity[idx] = result.n
            if layer == "census":
                counts["census.bent_found"] += result.count
                counts["census.candidates"] += _census_candidates(n, result.method)
            elif name == "bent.two_flat_sum_distribution":
                counts["bent.flats_scanned"] += sum(result.counts.values())
            elif layer == "suites":
                counts["suites.checks"] += result["checks"]
            return result

        return traced

    def metrics(self) -> tuple[dict, dict]:
        """(per-session layer metrics, per-arity call durations in ms)."""
        names = np.frombuffer(self.name_ids, dtype=np.int64)
        arity = np.frombuffer(self.arity, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
        self_time = duration - covered
        calls = np.bincount(names, minlength=len(SPANS))
        self_s = np.bincount(names, weights=self_time, minlength=len(SPANS))
        out: dict = {}
        for i, span in enumerate(SPANS):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
        points = 0
        for span in _TRANSFORM_SPANS:
            sel = names == SPANS.index(span)
            points += int(np.sum(np.left_shift(1, arity[sel])))
        out["transforms.points"] = points
        for counter in COUNTERS:
            out[counter] = int(self.counts[counter])
        out["census.yield"] = (
            out["census.bent_found"] / out["census.candidates"] if out["census.candidates"] else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.errors"] = int(self.errors[layer])
        rows = {}
        for metric, (span, n, _) in ARITY_ROWS.items():
            sel = (names == SPANS.index(span)) & (arity == n)
            rows[metric] = (duration[sel] * 1e3).tolist()
        return out, rows


def install(tracer: Tracer) -> None:
    """Wrap every span in SPANS and rebind each bentkit name that held it."""
    import bentkit.suites as suites_module

    originals = {}
    for module, functions in TRACED.items():
        mod = sys.modules[f"bentkit.{module}"]
        for fname in functions:
            originals[f"{module}.{fname}"] = getattr(mod, fname)
    for key in SUITE_NAMES:
        originals[f"suites.{key}"] = suites_module.SUITES[key]

    # keyed by id(): ``originals`` keeps every original alive meanwhile, so
    # no other object can share one of these ids
    replacement = {}
    for span_id, span in enumerate(SPANS):
        func = originals[span]
        param = inspect.signature(func).parameters.get("n")
        default_n = param.default if param is not None and isinstance(param.default, int) else -1
        replacement[id(func)] = tracer.wrap(span_id, span, func, default_n)

    for name, mod in list(sys.modules.items()):
        if name != "bentkit" and not name.startswith("bentkit."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in replacement:
                setattr(mod, attr, replacement[id(value)])
    for key in SUITE_NAMES:
        suites_module.SUITES[key] = replacement[id(originals[f"suites.{key}"])]


# Per-layer metrics that must read nonzero on the workload each is mapped to
# (README.md gives the end-to-end metric each should move).
MAPPED = {
    "large-n": (
        "cli.main.calls",
        "cli.stdout_bytes",
        "transforms.walsh_fast.calls",
        "transforms.moebius.calls",
        "transforms.degree.calls",
        "transforms.points",
        "transforms.walsh_fast.n16.ms",
        "transforms.degree.n16.ms",
        "reconstruct.reconstruct_from_ball.n12.ms",
    ),
    "small-n": (
        "core.parse_bf.calls",
        "core.format_bf.calls",
        "bent.two_flat_sum_distribution.calls",
        "bent.flats_scanned",
        "bent.apply_affine.calls",
        "bent.random_invertible.calls",
        "bent.is_bent.calls",
        "bent.dual_bent.calls",
        "geometry.coset_spectrum.calls",
        "geometry.covering_coset_count.calls",
        "bounds.bound_report.calls",
        "bent.two_flat_sum_distribution.n8.ms",
        "bent.two_flat_sum_distribution.n8.cold_ms",
    ),
    "verify-census": (
        "transforms.walsh_naive.calls",
        "transforms.hadamard_transform.calls",
        "transforms.convolve_pm.calls",
        "transforms.check_restriction_identity.calls",
        "geometry.coset_spectrum.calls",
        "geometry.ball_points.calls",
        "reconstruct.check_lemma1.calls",
        "reconstruct.reconstruct_from_ball.calls",
        "census.enumerate_bent_naive.calls",
        "census.enumerate_bent_by_degree.calls",
        "census.candidates",
        "census.bent_found",
        "census.yield",
        "census.enumerate_bent_naive.n4.ms",
        "census.enumerate_bent_by_degree.n4.ms",
        "suites.checks",
    )
    + tuple(f"suites.{s}.calls" for s in SUITE_NAMES),
}
