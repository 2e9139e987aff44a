"""Fail when a recorded benchmark metric drops below its floor.

Reads every ``BENCH_*.json`` at the repository root (written by the
``bench_report`` fixture in :mod:`benchmarks.conftest`).  A series row
that carries a ``floor`` declares a regression bar for its guarded
metric (named by ``metric``, default ``speedup``); any row under its
floor fails the build with a summary of what regressed.  A row that
names a ``metric`` but whose floor is null (recorded that way when
the machine has too few cores for the bar to mean anything) gates
nothing; it is listed as ``ungated`` so the gap shows in the output.

Usage::

    python benchmarks/check_floors.py [root]
"""

import glob
import json
import os
import sys


def check(root: str) -> int:
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print(f"no BENCH_*.json files under {root}; run the benchmarks "
              f"first (pytest benchmarks/ -s --benchmark-disable)")
        return 1
    failures = []
    checked = 0
    ungated = 0
    for path in paths:
        with open(path) as handle:
            document = json.load(handle)
        name = document.get("benchmark", os.path.basename(path))
        for row in document.get("series", []):
            floor = row.get("floor")
            if floor is None:
                if "metric" in row:
                    ungated += 1
                    print(f"ungated  {name}/{row.get('label')}: floor is "
                          f"null (recorded on cores={row.get('cores')})")
                continue
            metric = row.get("metric", "speedup")
            value = row.get(metric)
            checked += 1
            if value is None:
                failures.append(
                    f"{name}/{row.get('label')}: declares floor {floor} "
                    f"but has no {metric!r} value")
            elif value < floor:
                failures.append(
                    f"{name}/{row.get('label')}: {metric} {value} "
                    f"dropped below floor {floor}")
            else:
                print(f"ok  {name}/{row.get('label')}: "
                      f"{metric} {value} >= {floor}")
    if failures:
        print(f"\n{len(failures)} benchmark floor(s) violated:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"\n{checked} floor(s) hold, {ungated} row(s) ungated")
    return 0


if __name__ == "__main__":
    sys.exit(check(sys.argv[1] if len(sys.argv) > 1 else
                   os.path.dirname(os.path.dirname(
                       os.path.abspath(__file__)))))
