"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Both files hold records appended by ``run.py --out`` (or ``sweep.py``).  For
each workload and end-to-end metric the table gives each side's median and
quartiles and a verdict under the bounds in ``BENCHMARK.json``:

* ``worse``: the change's median is worse than the base median by more than
  the bound;
* ``improved``: the medians differ by more than the base's own quartile
  spread and the change wins at least nine tenths of the runs paired by
  seed;
* ``unresolved``: either side's quartile spread exceeds the bound and not
  every run of one side beats every run of the other;
* ``unchanged``: everything else.

Traced records, when present, add a table of per-layer medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict:
    """workload -> trace flag -> seed -> record (the last one wins)."""
    out: dict = defaultdict(lambda: defaultdict(dict))
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            out[rec["workload"]][rec["trace"]][rec["seed"]] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """``base`` and ``new`` map seed -> value."""
    sign = 1 if better == "lower" else -1  # positive means worse
    b, n = list(base.values()), list(new.values())
    bq, nq = quartiles(b), quartiles(n)
    worsening = sign * (nq[1] - bq[1]) / bq[1]
    all_better = max(sign * x for x in n) < min(sign * x for x in b)
    all_worse = min(sign * x for x in n) > max(sign * x for x in b)
    if (bq[2] - bq[0]) / bq[1] > bound or (nq[2] - nq[0]) / nq[1] > bound:
        return "improved" if all_better else "worse" if all_worse else "unresolved"
    if worsening > bound:
        return "worse"
    common = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in common] or list(zip(b, n))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    if -worsening * bq[1] > bq[2] - bq[0] and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def fmt(q) -> str:
    return f"{q[1]:11.4f} [{q[0]:.4f}, {q[2]:.4f}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':<16} {'metric':<12} {'base median [q1, q3]':>34}"
          f" {'change median [q1, q3]':>34}  verdict")
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload][0], new[workload][0]
        if not b or not n:
            continue
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            bv = {s: r["end_to_end"][name] for s, r in b.items()}
            nv = {s: r["end_to_end"][name] for s, r in n.items()}
            v = verdict(bv, nv, metric["better"], metric["bound"])
            print(f"{workload:<16} {name:<12} {fmt(quartiles(list(bv.values()))):>34}"
                  f" {fmt(quartiles(list(nv.values()))):>34}  {v}")
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload][1], new[workload][1]
        if not b or not n:
            continue
        print(f"\nper-layer medians, {workload} (traced runs: {len(b)} vs {len(n)})")
        for name in next(iter(b.values()))["per_layer"]:
            bm = statistics.median(r["per_layer"][name] for r in b.values())
            nm = statistics.median(r["per_layer"].get(name, float("nan")) for r in n.values())
            print(f"  {name:<34} {bm:14.3f} {nm:14.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
