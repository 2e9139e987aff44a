"""Compare two sets of runs under the bounds of BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` (the parent) and ``B`` (the change) are result files written by
``run.py --out`` — one JSON line per run, at least three ``--trace 0``
runs per workload on each side.  For every end-to-end metric of every
workload it prints B's median over A's, with the base, and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound
  (or B failed more operations than A: any increase counts);
* ``unresolved`` — the spread between same-side runs (interquartile
  range over median) is wider than the bound, so the medians cannot
  tell;
* ``ok``         — neither.

One row per workload; a row's verdict is its worst metric's.  Exit
status 0 only when every row is ``ok`` — which is also the A/A test of
the benchmark itself (two sets of runs of one commit must agree).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
_RANK = {"ok": 0, "unresolved": 1, "regressed": 2}


def load(path: str) -> Dict[str, dict]:
    """workload -> {"metrics": {name: [values]}, "failed": n, "runs": n}"""
    sides: Dict[str, dict] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            side = sides.setdefault(record["workload"], {
                "metrics": {}, "failed": 0, "attempted": 0, "runs": 0})
            side["runs"] += 1
            side["failed"] += record["failed"]
            side["attempted"] += record["attempted"]
            for name, entry in record["metrics"].items():
                side["metrics"].setdefault(name, []).append(entry["value"])
    return sides


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def judge(metric: dict, before: List[float], after: List[float]):
    """(verdict, ratio, base, widest same-side spread)."""
    base = statistics.median(before)
    ratio = statistics.median(after) / base
    worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
    widest = max(spread(before), spread(after))
    if widest > metric["bound"]:
        verdict = "unresolved"
    elif worse > metric["bound"]:
        verdict = "regressed"
    else:
        verdict = "ok"
    return verdict, ratio, base, widest


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        contract = json.load(handle)
    before, after = load(argv[1]), load(argv[2])
    worst_overall = "ok"
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in before or workload not in after:
            print(f"{workload}: missing on one side — unresolved")
            worst_overall = max(worst_overall, "unresolved", key=_RANK.get)
            continue
        a, b = before[workload], after[workload]
        cells = []
        row = "ok"
        for metric in contract["end_to_end"]:
            name = metric["name"]
            verdict, ratio, base, widest = judge(
                metric, a["metrics"][name], b["metrics"][name])
            row = max(row, verdict, key=_RANK.get)
            cells.append(
                f"{name} x{ratio:.3f} of {base:.4g} {metric['unit']} "
                f"(bound {metric['bound']:.2f}, spread {widest:.3f}) "
                f"{verdict}")
        share_a = a["failed"] / max(1, a["attempted"])
        share_b = b["failed"] / max(1, b["attempted"])
        verdict = "regressed" if share_b > share_a else "ok"
        row = max(row, verdict, key=_RANK.get)
        cells.append(f"failed {b['failed']}/{b['attempted']} vs "
                     f"{a['failed']}/{a['attempted']} {verdict}")
        print(f"{workload} [{a['runs']} vs {b['runs']} runs]: {row}")
        for cell in cells:
            print(f"    {cell}")
        worst_overall = max(worst_overall, row, key=_RANK.get)
    print(f"overall: {worst_overall}")
    return 0 if worst_overall == "ok" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
