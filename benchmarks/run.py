#!/usr/bin/env python3
"""Benchmark of the ``braid`` CLI, run in-process.

Run from the repository root:

    python3 benchmarks/run.py --workload conjugacy --seed 1 --seconds 35 --trace 0

One closed-loop client and no threads: each request is one
``braidcalc.cli.main(argv + ["--format", "json"])`` call with stdout
captured, then checked against the answer its generator built
(``checks.py``).  Workloads and their inputs are in ``workloads.py``.

``--trace 0`` cycles through the seeded pool, one whole pass at least
and until ``--seconds`` have gone by, with no wrapper installed, and
reports the end-to-end metrics.  ``--trace 1`` makes one untraced pass
and then one traced pass over the same pool, and reports the per-layer
metrics (``spans.py``) and the tracing slowdown between the two.  The
spans of the traced pass are written to
``benchmarks/.spans-<workload>.tsv.gz``.

Times are speed-adjusted: see ``probe``.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the input digest, the sample
count, ``failed_ratio`` and the unadjusted throughput.  Without the
braidcalc sources under ``src/`` the script exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Pool sizes, in generator blocks: one pass takes 15 to 20 s at the
# parent commit on a 2-core Python 3.11 machine, for every workload, so
# a 35 s run times most requests twice.
BLOCKS = {"word-problem": 18, "conjugacy": 25, "certificates": 80}

# ``probe`` takes about this long on that machine when it is quiet.
PROBE_STEPS = 4000
PROBE_REF_S = 1.4e-3

SETUP_RUNS = 21
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import braidcalc.cli
braidcalc.cli.catalog()
print(time.perf_counter() - t0)
"""


def probe() -> float:
    """Time a fixed pure-Python computation: the machine's current speed.

    The machine is shared, and the same braidcalc computation ran up to
    1.9 times slower for stretches of seconds to minutes.  This probe
    slows down with it (tuples and a dict, like braidcalc's own work),
    so each request's time is scaled by ``PROBE_REF_S`` over the mean of
    the probes just before and just after it.  Over 2 s windows that cut
    the spread of a fixed computation's time from 18% to 4%.
    """

    t0 = time.perf_counter()
    seen: dict = {}
    p = tuple(range(8))
    for i in range(PROBE_STEPS):
        p = p[1:] + p[:1]
        seen[p] = seen.get(p, 0) + i
    return time.perf_counter() - t0


def measure_setup() -> float:
    """Median speed-adjusted time, in fresh interpreters, to import
    braidcalc and load the template catalog, as a first request would."""

    times = []
    before = probe()
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        after = probe()
        times.append(float(proc.stdout) * 2 * PROBE_REF_S / (before + after))
        before = after
    return statistics.median(times)


def call(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """One request: (exit code or None on an exception, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv + ["--format", "json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not a crashed run
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = None
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), seconds


class Tally:
    """Latencies and outcomes of the requests made so far."""

    def __init__(self):
        self.latencies: list[float] = []  # speed-adjusted
        self.raw_seconds = 0.0
        self.failed = 0
        self.decided = 0
        self.first_failure = ""
        self.memo: dict = {}
        self._probe = probe()

    def run(self, cli, request: workloads.Request, argv: list[str]) -> None:
        code, out, seconds = call(cli, argv)
        after = probe()
        self.latencies.append(seconds * 2 * PROBE_REF_S / (self._probe + after))
        self._probe = after
        self.raw_seconds += seconds
        try:
            if code is None:
                raise checks.WrongAnswer("exception")
            self.decided += checks.check(
                request.kind, request.expect, code, out, self.memo
            )
        except (checks.WrongAnswer, KeyError, TypeError, ValueError) as err:
            self.failed += 1
            self.first_failure = self.first_failure or (
                f"{' '.join(argv)}: {type(err).__name__}: {err}"
            )

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.raw_seconds += other.raw_seconds
        self.failed += other.failed
        self.decided += other.decided
        self.first_failure = self.first_failure or other.first_failure


def concrete(requests, work: str) -> list[list[str]]:
    return [[a.replace(workloads.WORK, work) for a in r.argv] for r in requests]


def require_untraced() -> None:
    wrapped = spans.installed_wrappers()
    if wrapped:
        raise RuntimeError(f"tracing wrappers still installed: {wrapped}")


def timed(cli, requests, argvs, seconds: float) -> tuple[Tally, list[float]]:
    """Cycle through the pool until ``seconds`` have gone by, one whole
    pass at least; return each request's mean latency, so that every
    request in the pool weighs the same however many passes reached it."""

    require_untraced()
    tally = Tally()
    per_request: list[list[float]] = [[] for _ in requests]
    start = time.perf_counter()
    i = 0
    while i < len(requests) or time.perf_counter() - start < seconds:
        k = i % len(requests)
        tally.run(cli, requests[k], argvs[k])
        per_request[k].append(tally.latencies[-1])
        i += 1
    return tally, [statistics.fmean(x) for x in per_request]


def traced(cli, requests, argvs, out_path: Path) -> tuple[Tally, dict]:
    require_untraced()
    plain = Tally()
    for request, argv in zip(requests, argvs):
        plain.run(cli, request, argv)
    tracer = spans.Tracer()
    tracer.install()
    tally = Tally()
    try:
        for number, (request, argv) in enumerate(zip(requests, argvs)):
            tracer.begin_request(number)
            tally.run(cli, request, argv)
    finally:
        tracer.remove()
    require_untraced()
    tracer.write(out_path)
    layer = tracer.layer_metrics()
    layer["tracing.slowdown"] = sum(tally.latencies) / sum(plain.latencies)
    tally.merge(plain)
    return tally, layer


def quantile(values: list[float], q: float) -> float:
    """Mean of the values ranked within 5 points of the ``q`` quantile.

    A band of ten or more requests moves less with the noise on any one
    of them than a single order statistic does.
    """

    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, round(n * (q - 0.05)))
    hi = min(n, max(lo + 1, round(n * (q + 0.05))))
    return statistics.fmean(ordered[lo:hi])


def end_to_end(tally: Tally, latencies: list[float], setup_s: float) -> dict:
    """``latencies`` holds one value per request in the pool."""
    return {
        "setup_s": setup_s,
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_p90_ms": quantile(latencies, 0.9) * 1e3,
        "requests_per_s": len(latencies) / sum(latencies),
        "decided_ratio": tally.decided / len(tally.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidcalc" / "cli.py").is_file():
        print(f"error: braidcalc sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    import braidcalc.cli as cli

    names = sorted(t.name for t in cli.catalog())
    if names != sorted(workloads.CATALOG_DELTA_B):
        print(f"error: catalog changed: {names}", file=sys.stderr)
        return 2
    setup_s = measure_setup()

    requests = workloads.pool(args.workload, args.seed, BLOCKS[args.workload])
    print(
        f"workload={args.workload} seed={args.seed}"
        f" requests_in_pool={len(requests)}"
        f" inputs_sha256={workloads.pool_digest(requests)}"
    )
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        argvs = concrete(requests, work)
        if args.trace:
            out_path = BENCH_DIR / f".spans-{args.workload}.tsv.gz"
            tally, values = traced(cli, requests, argvs, out_path)
        else:
            tally, latencies = timed(cli, requests, argvs, args.seconds)
            values = end_to_end(tally, latencies, setup_s)
    # names and units come from BENCHMARK.json, the one list of metrics
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }

    attempted = len(tally.latencies)
    print(
        f"samples={attempted} failed={tally.failed}"
        f" failed_ratio={tally.failed / attempted}"
        f" unadjusted_requests_per_s={attempted / tally.raw_seconds}"
    )
    if tally.first_failure:
        print(f"first failure: {tally.first_failure}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
