"""The binoidal benchmark: seeded closed-loop CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process runs the jobs of a workload back to back through
``binoidal.cli.main(argv)`` (``cli-cold`` runs each as a fresh
``python -m binoidal.cli`` subprocess instead).  Jobs come in passes of a
fixed stratified mix; whole passes run until the jobs have taken
``--seconds`` of wall time and the workload's minimum job count is reached.
Every output goes through an independent check.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the untraced passes take half of ``--seconds``, the same
passes run a second time with the tracing wrappers installed, and the last
line holds the per-layer metrics; so a traced run lasts about as long as an
untraced one.  ``--out FILE``
appends the full record of the run to a JSON-lines file for
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPS = 11
IMPORT_REPS = 5
WALL_LIMIT = 75.0  # seconds one measuring loop may take, checks included

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
UNITS.update(error_rate="share", undecided_share="share")


# --------------------------------------------------------------------------
# running jobs


def import_library():
    """Import ``binoidal.cli`` afresh, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "binoidal" or n.startswith("binoidal.")]:
        del sys.modules[name]
    return importlib.import_module("binoidal.cli")


class InProcess:
    """Calls ``cli.main`` with stdout and stderr captured."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, job):
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(job.argv))
            except Exception:  # a traceback is a failed job, not a harness crash
                code, crash = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
        return code, out.getvalue(), seconds, crash


class Cold:
    """Runs ``python -m binoidal.cli`` per job; the in-process answer is the
    reference its stdout must match byte for byte."""

    def __init__(self, cli):
        self.reference = InProcess(cli)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.reference_seconds = 0.0  # in-process time of the last job

    def __call__(self, job):
        code, out, seconds, crash = self.reference(job)
        self.reference_seconds = seconds
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "binoidal.cli", *job.argv],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
        )
        seconds = time.perf_counter() - t0
        if crash is None and (proc.stdout != out or proc.returncode != code):
            crash = f"subprocess output differs from cli.main (exit {proc.returncode} vs {code})"
        return code, out, seconds, crash


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.in_process: list[float] = []  # same jobs through cli.main
        self.pass_seconds: list[float] = []
        self.setup_seconds: list[float] = []
        self.digests: list[bytes] = []
        self.failed = 0
        self.undecided = 0
        self.reasons: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(why)


class Checker:
    """A separate process for the checks (``checker.py``), so that neither
    their memory nor their garbage lands in the measured process.  It reads
    passes from a pipe; ``close`` ends it and waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "checker.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def judge(self, batch):
        pickle.dump(batch, self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_pass(jobs, runner, tally, checker, cold) -> float:
    """Run one pass, then have the checker process judge it."""
    busy = 0.0
    batch = []
    for job in jobs:
        code, out, dt, crash = runner(job)
        busy += dt
        tally.latencies.append(dt)
        tally.in_process.append(runner.reference_seconds if cold else dt)
        tally.digests.append(hashlib.sha1(out.encode()).digest())
        batch.append((job, code, out, crash))
    tally.pass_seconds.append(busy)
    for job, reason in zip(jobs, checker.judge(batch)):
        if reason == checks.UNDECIDED:
            tally.undecided += 1
        elif reason is not None:
            tally.fail(f"{job.kind} {job.argv[1:3]}: {reason}")
    return busy


def measure(workload, seed, seconds, checker, min_jobs):
    """Whole passes until the jobs took ``seconds`` and ``min_jobs`` ran.

    The set-up is repeated before each of the first passes, so that its
    median samples the machine at several moments of the run.
    """
    wl = workloads.WORKLOADS[workload]
    tally = Tally()
    passes = 0
    busy = 0.0
    wall0 = time.perf_counter()
    while True:
        if len(tally.setup_seconds) < SETUP_REPS:
            took, cli, runner, first_pass = set_up(workload, seed)
            tally.setup_seconds.append(took)
        jobs = first_pass if passes == 0 else workloads.make_pass(workload, seed, passes)
        busy += run_pass(jobs, runner, tally, checker, wl.cold)
        passes += 1
        enough = busy >= seconds and len(tally.latencies) >= min_jobs
        if enough or time.perf_counter() - wall0 > WALL_LIMIT:
            break
    while len(tally.setup_seconds) < SETUP_REPS:
        took, cli, _, _ = set_up(workload, seed)
        tally.setup_seconds.append(took)
    return tally, passes, cli


def traced_rerun(workload, seed, passes, cli, tally):
    """The same passes again, traced; outputs must not change."""
    tracer = Tracer()
    runner = InProcess(cli)
    latencies = []
    k = 0
    wall0 = time.perf_counter()
    tracer.install()
    try:
        for index in range(passes):
            for job in workloads.make_pass(workload, seed, index):
                tracer.current_job = k
                code, out, dt, crash = runner(job)
                latencies.append(dt)
                if crash is not None or hashlib.sha1(out.encode()).digest() != tally.digests[k]:
                    tally.fail(f"{job.kind} {job.argv[1:3]}: traced output differs")
                k += 1
            if time.perf_counter() - wall0 > WALL_LIMIT:
                break
    finally:
        tracer.remove()
    return tracer, latencies


def python_start_ms() -> tuple[float, float]:
    """Median wall time of ``python -c pass`` and of importing binoidal.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, full = [], []
    for _ in range(IMPORT_REPS):
        for code, into in (("pass", bare), ("import binoidal.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            into.append(1000 * (time.perf_counter() - t0))
    return statistics.median(bare), statistics.median(full)


# --------------------------------------------------------------------------
# set-up


def set_up(workload, seed):
    """Import the library, generate the first pass and warm up; timed."""
    t0 = time.perf_counter()
    cli = import_library()
    first_pass = workloads.make_pass(workload, seed, 0)
    wl = workloads.WORKLOADS[workload]
    runner = Cold(cli) if wl.cold else InProcess(cli)
    for argv in workloads.WARMUP[workload]:
        runner(workloads.Job("warm-up", argv))
    return time.perf_counter() - t0, cli, runner, first_pass


# --------------------------------------------------------------------------


def tail(latencies, pct):
    ordered = sorted(latencies)
    rank = math.ceil(len(ordered) * pct / 100)
    return ordered[max(rank - 1, 0)], len(ordered) - rank


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="append the record here")
    args = ap.parse_args(argv)

    if not (SRC / "binoidal" / "cli.py").is_file() or not (TESTS / "tests_support.py").is_file():
        print("perfbench: run from a binoidal checkout (src/binoidal and tests/ missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(TESTS))

    # a SIGTERM unwinds like an exception, so every child is ended and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wl = workloads.WORKLOADS[args.workload]
    checker = Checker()
    try:
        # the tail percentile is reported only untraced, so only there it
        # needs its minimum job count
        seconds, min_jobs = (args.seconds / 2, 0) if args.trace else (args.seconds, wl.min_jobs)
        tally, passes, cli = measure(args.workload, args.seed, seconds, checker, min_jobs)
        # read before the checker process ends, so only job processes count
        usage = resource.RUSAGE_CHILDREN if wl.cold else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    finally:
        checker.close()

    lat = tally.latencies
    n = len(lat)
    tail_s, beyond = tail(lat, wl.tail_pct)
    end_to_end = {
        "setup_s": statistics.median(tally.setup_seconds),
        # all jobs over all their time: steadier across runs than the median pass
        "jobs_per_s": n / sum(tally.pass_seconds),
        "job_p50_ms": 1000 * statistics.median(lat),
        "job_tail_ms": 1000 * tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer = None
    if args.trace:
        tracer, traced = traced_rerun(args.workload, args.seed, passes, cli, tally)
        tracer.write(HERE / "out" / f"spans-{args.workload}")
        per_layer = tracer.metrics()
        per_layer["trace.overhead_ratio"] = sum(tally.in_process[: len(traced)]) / sum(traced)
        bare_ms, import_ms = python_start_ms()
        per_layer["cli.interpreter_start_ms"] = bare_ms
        per_layer["cli.import_ms"] = import_ms - bare_ms
        per_layer["error_rate"] = tally.failed / n
        per_layer["undecided_share"] = tally.undecided / n

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  jobs {n}"
          f"  ({wl.tail_pct}th percentile has {beyond} samples beyond it)")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    report = dict(end_to_end, error_rate=tally.failed / n, undecided_share=tally.undecided / n)
    for name, value in report.items():
        print(f"  {name:<18} {value:12.4f} {UNITS[name]}")
    for name, value in (per_layer or {}).items():
        print(f"  {name:<32} {value:14.3f} {UNITS[name]}")

    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": passes, "attempted": n, "failed": tally.failed,
            "error_rate": report["error_rate"], "undecided_share": report["undecided_share"],
            "tail_percentile": wl.tail_pct, "tail_samples_beyond": beyond,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "setup_seconds": tally.setup_seconds, "pass_seconds": tally.pass_seconds,
            "latencies": lat,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    shown = per_layer if args.trace else end_to_end
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in shown.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": n,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
