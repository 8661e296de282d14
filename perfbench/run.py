"""bentkit benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 30 --trace 0

Runs back-to-back cold CLI sessions of one workload (perfbench/session.py,
one fresh interpreter each, one at a time: a single closed-loop client) for
about ``--seconds`` seconds.  Every session runs the same seeded request list.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json as
medians over the sessions; with ``--trace 1`` it alternates traced and
untraced sessions and reports the per-layer metrics.  The last stdout line
is the result; the line before it records the machine and the code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "bentkit"
# a run must finish within 180 s: every session is killed past this point
HARD_LIMIT_S = 170
_STARTED = time.perf_counter()
# Set-up time is reported at a reference import speed: import time on a
# shared sandbox swings by a third for minutes at a time while request times
# hold.  Each run makes SETUP_PAIRS pairs of fresh processes, one timing
# ``import numpy`` and the next ``import bentkit.cli``, and reports the
# median ratio within a pair times NUMPY_REF_S, the numpy import's CPU time
# on the 2-core sandbox the benchmark was defined on.
SETUP_PAIRS = 8
NUMPY_REF_S = 0.15
_NUMPY_IMPORT = "import time; t = time.process_time(); import numpy; print(time.process_time() - t)"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402  (stdlib + numpy only; imports no bentkit)


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _run(argv: list[str]):
    env = {k: v for k, v in os.environ.items() if k not in ("BENTKIT_MAX_ARITY", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - _STARTED))
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)


def _numpy_import_s() -> float:
    return float(_run([sys.executable, "-c", _NUMPY_IMPORT]).stdout)


def _run_session(workload: str, seed: int, traced: bool, *extra: str) -> dict:
    argv = [sys.executable, str(HERE / "session.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)), *extra]
    done = _run(argv)
    if done.returncode != 0:
        raise RuntimeError(f"session exited {done.returncode}: {done.stderr.strip()[-800:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"session printed no result: {done.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


def _sessions(workload: str, seed: int, seconds: float, trace: bool) -> list[tuple[bool, dict]]:
    """Sessions back to back until the next one would overrun ``seconds``.
    A traced run alternates traced and untraced sessions, at least one each."""
    began = time.perf_counter()
    records: list[tuple[bool, dict]] = []
    took = {True: [], False: []}
    while True:
        traced = trace and len(records) % 2 == 0
        t = time.perf_counter()
        records.append((traced, _run_session(workload, seed, traced)))
        took[traced].append(time.perf_counter() - t)
        upcoming = trace and len(records) % 2 == 0
        elapsed = time.perf_counter() - began
        if trace and not took[False]:
            continue
        if elapsed + max(took[upcoming] or took[traced]) > seconds:
            return records


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(records: list[dict], setups: list[tuple[float, float]]) -> dict:
    """Medians over sessions; latency quantiles pool every request; set-up
    time from the (numpy, bentkit.cli) import pairs."""
    latencies = [x for r in records for x in r["latencies_s"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "setup_s": statistics.median(b / a for a, b in setups) * NUMPY_REF_S,
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "latency_p50_ms": _quantile(latencies, 50) * 1e3,
        "latency_p95_ms": _quantile(latencies, 95) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "success_ratio": (attempted - failed) / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over traced sessions; per-arity rows pool every call."""
    out = {}
    for name in traced[0]["layers"]:
        out[name] = statistics.median(r["layers"][name] for r in traced)
    for name, (_, _, stat) in tracing.ARITY_ROWS.items():
        if stat == "first":
            firsts = [r["arity_ms"][name][0] for r in traced if r["arity_ms"][name]]
            out[name] = statistics.median(firsts) if firsts else 0.0
        else:
            pooled = [x for r in traced for x in r["arity_ms"][name]]
            out[name] = statistics.median(pooled) if pooled else 0.0
    out["trace.overhead"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in untraced
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "cli.py").is_file():
        print(f"run: no bentkit sources under {SRC}", file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    try:
        setups = [
            (_numpy_import_s(), _run_session(args.workload, args.seed, False, "--setup-only")["setup_s"])
            for _ in range(0 if args.trace else SETUP_PAIRS)
        ]
        sessions = _sessions(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    traced = [r for t, r in sessions if t]
    untraced = [r for t, r in sessions if not t]

    records = [r for _, r in sessions]
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, setups)
    if set(metrics) != set(units):
        print(f"run: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}",
              file=sys.stderr)
        return 1
    if args.trace:
        zero = [m for m in tracing.MAPPED[args.workload] if not metrics[m]]
        if zero:
            print(f"run: traced layer metrics read zero on {args.workload}: {zero}", file=sys.stderr)
            return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for problem in sorted({p for r in records for p in r["problems"]})[:10]:
        print(f"run: wrong output: {problem}", file=sys.stderr)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sessions": len(records),
        "traced_sessions": len(traced),
        "requests_per_session": records[0]["attempted"],
        # measured over reference seconds: below 1 when the machine ran slow
        "speed_vs_reference": statistics.median(r["wall_s"] / r["raw_wall_s"] for r in records),
        "setup_raw_s": statistics.median(r["setup_s"] for r in records),
        "numpy_import_s": statistics.median(a for a, _ in setups) if setups else None,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": records[0]["numpy"],
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
    }
    print(json.dumps({"header": header}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
