#!/usr/bin/env python3
"""Print every benchmark metric for every workload.

Run from the repository root:

    python3 benchmarks/report.py --seed 1 --seconds 35

Each workload runs twice, each time in a fresh ``run.py`` process so
that set-up time and peak memory belong to that workload alone: once
untraced for the end-to-end metrics, once traced for the per-layer
metrics and the tracing slowdown.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [
            sys.executable,
            str(RUN),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)
    for workload in workloads.WORKLOADS:
        print(f"## {workload} (seed {args.seed})")
        for trace in (0, 1):
            result, info = run(workload, args.seed, args.seconds, trace)
            for line in info:
                print(f"    {line}")
            failed_ratio = result["failed"] / result["attempted"]
            print(f"    {'failed_ratio':40s} {failed_ratio:14.6g}")
            for name, metric in result["metrics"].items():
                print(f"    {name:40s} {metric['value']:14.6g} {metric['unit']}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
