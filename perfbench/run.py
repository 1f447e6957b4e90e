#!/usr/bin/env python3
"""Benchmark of exact certified solves: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload symmetric_lp --seed 1 --seconds 10 --trace 0

Workloads: symmetric_lp, random_lp, cli_solve (see README.md).  With
``--trace 0`` the run reports the end-to-end metrics: it starts the
measured worker several times up to its first operation to time set-up,
then once to run whole rounds of the batch for ``--seconds``.  With
``--trace 1`` it reports the per-layer metrics of one traced round and
the tracing overhead against an untraced round.  Every operation's
output is checked here, after the worker has ended.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("symmetric_lp", "random_lp", "cli_solve")
SETUP_SAMPLES = 14  # set-up-only starts per timed run, plus the timed run's own
IMPORT_SAMPLES = 7
WORKER_TIMEOUT_S = 150
SHORT_TIMEOUT_S = 30


def fraction_loop_ms() -> float:
    """Machine-speed diagnostic: a fixed stdlib Fraction loop, no program code."""
    start = time.perf_counter()
    acc = Fraction(0)
    step = Fraction(1, 3)
    for k in range(1, 8001):
        acc += step * Fraction(k, k + 7) - Fraction(1, k)
    if acc.denominator == 0:
        raise AssertionError("unreachable")
    return (time.perf_counter() - start) * 1e3


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def run_worker(args, mode, workdir, records=None, spans=None) -> tuple:
    """Start the worker, wait for it; (seconds from spawn to first op, summary)."""
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", workdir,
    ]
    if records:
        argv += ["--records", records]
    if spans:
        argv += ["--spans", spans]
    timeout = SHORT_TIMEOUT_S if mode == "setup" else WORKER_TIMEOUT_S
    spawned_at = time.monotonic()
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return summary["first_op_at"] - spawned_at, summary


def import_ms() -> float:
    """`import persuade.cli` in a fresh interpreter, less a bare start (median)."""
    env = child_env()
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, into in (("pass", bare), ("import persuade.cli", full)):
            start = time.monotonic()
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=ROOT,
                env=env,
                check=True,
                timeout=SHORT_TIMEOUT_S,
            )
            into.append(time.monotonic() - start)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def check_records(path):
    import checks  # scipy is imported here, in this process only

    with open(path, encoding="utf-8") as handle:
        checker = checks.Checker(json.loads(handle.readline())["instances"])
        for line in handle:
            checker.feed(json.loads(line))
    checker.flush()
    return checker, len(checks.FIXTURES)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "persuade", "__init__.py")):
        print(f"error: no persuade package under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    records = os.path.join(workdir, "records.jsonl")
    try:
        before_ms = fraction_loop_ms()
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            _, summary = run_worker(args, "trace", workdir, records, spans)
            cli_import = import_ms()
        else:
            run_worker(args, "setup", workdir)  # warm-up: bytecode and file caches
            setups = [run_worker(args, "setup", workdir)[0] for _ in range(SETUP_SAMPLES)]
            setup, summary = run_worker(args, "timed", workdir, records)
            setups.append(setup)
        after_ms = fraction_loop_ms()
        checker, num_fixtures = check_records(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = (
        checker.wrong == 0
        and checker.attempted == summary["attempted"]
        and (
            args.workload != "cli_solve"
            or len(checker.fixtures_seen) == num_fixtures
        )
    )
    if args.trace:
        metrics = dict(summary["layers"])
        metrics["cli.import_ms"] = {"value": cli_import, "unit": "ms"}
    else:
        metrics = {
            "solves_per_s": {
                "value": summary["completed"] / (summary["timed_ns"] / 1e9)
                if summary["timed_ns"]
                else 0.0,
                "unit": "1/s",
            },
            "solve_p50_ms": {"value": summary["p50_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }

    print(f"workload {args.workload}, seed {args.seed}: {summary['describe']}")
    print(
        f"rounds {summary['rounds']}, attempted {checker.attempted}, "
        f"failed {checker.failed}, wrong outputs {checker.wrong}"
    )
    for message in checker.messages:
        print(f"  FAILED {message}")
    if args.trace:
        print(
            f"untraced round {summary['untraced_s']:.3f} s, "
            f"traced round {summary['traced_s']:.3f} s"
        )
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(
        "machine speed (stdlib Fraction loop, not a metric): "
        f"before {before_ms:.1f} ms, after {after_ms:.1f} ms"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
