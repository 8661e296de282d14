"""One cold CLI session: a fresh interpreter that imports bentkit, runs one
workload's request list through ``bentkit.cli.main`` in-process, checks
every output and prints one JSON line of measurements.

    python3 perfbench/session.py --workload small-n --seed 1 --trace 0

Only the standard library is loaded before ``bentkit.cli`` is imported, so
the import time measured here is the full cost a CLI invocation pays before
its first request.  Nothing is warmed beyond that import: lazy caches are
paid inside the session, as a real invocation pays them.

Times are process CPU time, so time the OS gives to other processes does
not count, and requests are reported at a reference machine speed.  The
speed of a shared sandbox drifts by 15-30% over tens of seconds, for every
kind of code alike, so a fixed calibration kernel is timed every
PROBE_INTERVAL_S while requests run, and each request's time is scaled by
CAL_REF_S over the kernel's median time around it.  The kernel's own time is
subtracted from the request.  The import is reported raw; ``run.py`` scales
it by a reference import.
"""

import os
import signal
import sys
import time

# median time of _kernel on the 2-core sandbox the benchmark was defined on;
# it only fixes the unit, seconds at that speed
CAL_REF_S = 0.0005
PROBE_INTERVAL_S = 0.02


def _kernel() -> int:
    # interpreter loop plus big-int shifts; allocates no containers, so it
    # neither triggers nor pays for garbage collection of bentkit's objects
    s = 0
    for i in range(6000):
        s += i * i % 7
    x = (1 << 32768) - 12345
    for i in range(20):
        x ^= (x >> 3) << 1
    return s ^ (x & 1)


class SpeedProbe:
    """Kernel timings in time order, taken on SIGALRM or by ``tick``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t = time.process_time()
        _kernel()
        self.samples.append(time.process_time() - t)
        self.stolen += time.process_time() - t
        self._busy = False

    def start(self) -> None:
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.tick()

    def mark(self) -> tuple:
        return len(self.samples), self.stolen, time.process_time()

    def since(self, mark: tuple) -> tuple:
        """(seconds since ``mark`` without kernel time, first and last sample
        index of the interval)."""
        n0, stolen, t0 = mark
        return time.process_time() - t0 - (self.stolen - stolen), n0, len(self.samples)

    def scale(self, n0: int, n1: int) -> float:
        """Reference over measured speed, from the samples taken during an
        interval and the two on either side of it; call once sampling has
        stopped.  The median drops a kernel run that was disturbed."""
        import statistics  # not at the top: it loads random before bentkit does

        return CAL_REF_S / statistics.median(self.samples[max(0, n0 - 2): n1 + 2])


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.process_time()
    try:
        import bentkit.cli as cli
    except ImportError as exc:
        print(f"session: cannot import bentkit from {src}: {exc}", file=sys.stderr)
        return 2
    setup_s = time.process_time() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"session: imported bentkit from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import argparse
    import contextlib
    import io
    import json
    import resource

    import numpy as np

    import tracing
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop after the import")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    requests = workloads.build(args.workload, args.seed)
    probe = SpeedProbe()
    tracer = None
    if args.trace:
        # a kernel run inside a span would count as that layer's time, so a
        # traced session samples speed only between requests
        tracer = tracing.Tracer()
        tracing.install(tracer)
        probe.tick()
    else:
        probe.start()

    results = []
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request, tracer.request_n = i, request.n
        out, err = io.StringIO(), io.StringIO()
        error = None
        mark = probe.mark()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(request.argv)
        except Exception as exc:  # an escaped exception is a failed request
            code, error = None, f"{type(exc).__name__}: {exc}"
        timing = probe.since(mark)
        if tracer is not None:
            probe.tick()
        results.append((timing, code, out.getvalue(), error or err.getvalue()[-300:]))
    if tracer is None:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = 0
    problems = []
    for request, (_, code, stdout, stderr) in zip(requests, results):
        if code != 0:
            problem = f"exit {code}: {stderr.strip()[-200:]}"
        else:
            try:
                problem = request.check(json.loads(stdout))
            except (ValueError, TypeError, AttributeError, KeyError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            problems.append(f"{request.kind} n={request.n}: {problem}")

    latencies = [raw * probe.scale(n0, n1) for (raw, n0, n1), *_ in results]
    record = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(r[0][0] for r in results),
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": latencies,
        "attempted": len(requests),
        "failed": failed,
        "problems": problems[:5],
        "numpy": np.__version__,
    }
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] = sum(len(r[2].encode()) for r in results)
        record["layers"], record["arity_ms"] = tracer.metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
