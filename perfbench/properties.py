"""Measured input properties of each workload.

    python3 perfbench/properties.py [--seed N] [--passes P] [--workload NAME ...]

For the first passes of a seed it reports the job mix, the share of
large-exponent ``nf`` jobs, the rank and spectrum size of the inputs, and
how many spectrum scans and completions each job runs (counted by the
tracing wrappers).  A claim that a change helps only inputs with some
property can cite these shares.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import Counter

import oracles
import run
import workloads
from tracing import Tracer


def describe(values: list[int]) -> str:
    if not values:
        return "none"
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"min {min(values)}  q1 {q[0]:g}  median {q[1]:g}  q3 {q[2]:g}  max {max(values)}"


def report(workload: str, seed: int, passes: int, cli) -> None:
    jobs = [j for k in range(passes) for j in workloads.make_pass(workload, seed, k)]
    kinds = Counter(j.kind for j in jobs)
    ranks = [j.pres.rank for j in jobs if j.pres]
    sizes = [oracles.spectrum_size(j.pres) for j in jobs if j.pres]
    runner = run.InProcess(cli)
    tracer = Tracer()
    tracer.install()
    try:
        for k, job in enumerate(jobs):
            tracer.current_job = k
            runner(job)
    finally:
        tracer.remove()
    scans, completions = Counter(), Counter()
    for i, nid in enumerate(tracer.span_name):
        name = tracer.names[nid]
        if name == "spectrum.compute_spectrum":
            scans[tracer.job[i]] += 1
        elif name == "rewrite.complete":
            completions[tracer.job[i]] += 1
    per_job = [(scans[k], completions[k]) for k in range(len(jobs))]
    print(f"{workload} (seed {seed}, {passes} passes, {len(jobs)} jobs)")
    print("  job mix: " + ", ".join(f"{k} {v / len(jobs):.0%}" for k, v in sorted(kinds.items())))
    print(f"  large-exponent nf share: {kinds['nf-large'] / len(jobs):.3f}")
    print(f"  rank: {describe(ranks)}")
    print(f"  spectrum size: {describe(sizes)}")
    print(f"  spectrum scans per job: {describe([s for s, _ in per_job])}")
    print(f"  completions per job: {describe([c for _, c in per_job])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--workload", action="append", default=None)
    args = ap.parse_args()
    sys.path[:0] = [str(run.SRC), str(run.TESTS)]
    cli = run.import_library()
    for name in args.workload or list(workloads.WORKLOADS):
        report(name, args.seed, args.passes, cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
