"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]
                               [--seconds S] --out runs.jsonl

Each run is a separate ``perfbench/run.py`` process; its record is appended
to ``--out``.  The spread of a metric is the distance between the first and
third quartile of its values, as a share of their median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import quartiles

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    for name in names:
        records, walls = [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(args.out)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            walls.append(time.perf_counter() - t0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
            records.append(result)
        print(f"{name}: {sum(r['failed'] for r in records)} failed of "
              f"{sum(r['attempted'] for r in records)} jobs; wall time per run: "
              f"median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for metric in records[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in records]
            line = (f"  {metric:<32} median {statistics.median(values):12.4f}"
                    f"  min {min(values):12.4f}  max {max(values):12.4f}")
            line += f"  spread {spread(values):.4f}"
            if bounds.get(metric) is not None:
                line += f"  (bound {bounds[metric]})"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
