"""The measured process of one benchmark run.

Started by run.py, never by hand.  It puts the checkout's ``src/`` first
on ``sys.path``, imports ``persuade`` from there, builds the workload's
batch and then, depending on ``--mode``:

* ``setup``: stops right before the first operation, to time set-up;
* ``timed``: runs whole rounds of the batch until ``--seconds`` have
  passed, timing each operation;
* ``trace``: runs one untraced round, then one round with every layer
  wrapped in spans (see spans.py), and reports per-layer totals.

Each operation's result is written as one JSON line to ``--records``
outside the timed region and dropped; run.py checks them after this
process has ended, so the checker (and scipy) never share its memory.
The last line of standard output is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import persuade  # noqa: E402  (must come after the sys.path insert)

if not os.path.abspath(persuade.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"persuade imported from {persuade.__file__}, not {SRC}")

import batches  # noqa: E402
import spans  # noqa: E402
from run import child_env  # noqa: E402

CLI_TIMEOUT_S = 120


class Runner:
    def __init__(self, workload, batch, records):
        self.workload = workload
        self.batch = batch
        self.records = records
        self.op_ns: list = []
        self.attempted = 0
        self.env = child_env()
        self.recorder = None  # set for the traced round

    def _write(self, rec) -> None:
        self.records.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def _run_inprocess_op(self, op, index, round_no) -> int:
        start = time.perf_counter_ns()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # a failed operation; the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        rec = {
            "op": index,
            "round": round_no,
            "inst": op.instance,
            "model": op.model,
            "method": op.method,
            "ns": elapsed,
            "error": error,
        }
        if error is None:
            rec.update(op.record(out))
        self._write(rec)
        return elapsed if error is None else -1

    def _run_cli_op(self, op, index, round_no, in_process) -> int:
        out_path = op.call[-1]
        if in_process:
            from persuade import cli

            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter_ns()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(list(op.call))
                except Exception as exc:  # a crash is a failed operation
                    code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - start
            text, err = stdout.getvalue(), stderr.getvalue()
        else:
            argv = [sys.executable, "-m", "persuade.cli", *op.call]
            start = time.perf_counter_ns()
            proc = subprocess.run(
                argv,
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
            elapsed = time.perf_counter_ns() - start
            code, text, err = proc.returncode, proc.stdout, proc.stderr
        doc = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as handle:
                doc = json.load(handle)
            os.remove(out_path)
        error = None if code == 0 else f"exit {code}: {err.strip()[-500:]}"
        self._write(
            {
                "op": index,
                "round": round_no,
                "inst": op.instance,
                "model": op.model,
                "method": op.method,
                "ns": elapsed,
                "error": error,
                "argv": list(op.call),
                "stdout": text,
                "out": doc,
            }
        )
        return elapsed if error is None else -1

    def round(self, round_no, in_process=True) -> int:
        """Run the whole batch once; returns the timed ns of its operations."""
        total = 0
        for index, op in enumerate(self.batch.ops):
            self.attempted += 1
            if self.recorder is not None:
                self.recorder.op = index
            if self.workload == "cli_solve":
                elapsed = self._run_cli_op(op, index, round_no, in_process)
            else:
                elapsed = self._run_inprocess_op(op, index, round_no)
            if elapsed >= 0:
                self.op_ns.append(elapsed)
                total += elapsed
        return total


def build(workload, seed, workdir):
    if workload == "cli_solve":
        return batches.cli_solve(seed, workdir)
    return batches.BATCHES[workload](seed)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--records", default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    batch = build(args.workload, args.seed, args.workdir)
    if args.mode == "trace" and args.workload == "cli_solve":
        from persuade import cli  # noqa: F401  (in-process runs, imported before timing)
    first_op_at = time.monotonic()
    summary = {"first_op_at": first_op_at, "describe": batch.describe}
    if args.mode == "setup":
        print(json.dumps(summary))
        return 0

    with open(args.records, "w", encoding="utf-8") as records:
        records.write(json.dumps({"instances": batch.instances}) + "\n")
        runner = Runner(args.workload, batch, records)
        if args.mode == "timed":
            in_process = args.workload != "cli_solve"
            started = time.perf_counter()
            rounds = 0
            timed_ns = 0
            while True:
                timed_ns += runner.round(rounds, in_process)
                rounds += 1
                if time.perf_counter() - started >= args.seconds:
                    break
            who = (
                resource.RUSAGE_CHILDREN
                if args.workload == "cli_solve"
                else resource.RUSAGE_SELF
            )
            summary.update(
                rounds=rounds,
                timed_ns=timed_ns,
                completed=len(runner.op_ns),
                p50_ms=statistics.median(runner.op_ns) / 1e6 if runner.op_ns else 0.0,
                peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024,
            )
        else:
            untraced_ns = runner.round(0)
            recorder = spans.Recorder()
            runner.recorder = recorder
            recorder.install()
            try:
                traced_ns = runner.round(1)
            finally:
                recorder.uninstall()
            recorder.write(args.spans)
            layers = recorder.metrics()
            layers["trace.overhead_pct"] = (
                100.0 * (traced_ns - untraced_ns) / untraced_ns if untraced_ns else 0.0,
                "%",
            )
            summary.update(
                rounds=2,
                untraced_s=untraced_ns / 1e9,
                traced_s=traced_ns / 1e9,
                layers={k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
            )
        summary.update(attempted=runner.attempted)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
