"""Committed dump digests for ``batch_rebuild``.

``run.py --write-expected --seed N`` records, under ``expected/``, the
SHA-256 of each warehouse's canonical target dump for seed N.  It
refuses to write unless the dynamic-matcher oracle — the naive,
planner-free transformation the repository keeps as its differential
reference — produces byte-identical dumps first, so a digest is never
taken from the path it is meant to check.

Seeds 11 (the default) and 12 (held out) are committed.  For any other
seed the run still requires a clean audit and identical bytes from
every pass.
"""

from __future__ import annotations

import json
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def write(seed: int) -> int:
    from repro.io.json_io import instance_to_json

    digests = {}
    for warehouse in workloads.WAREHOUSES:
        sources = warehouse.sources(seed)
        planned = instance_to_json(
            warehouse.build().transform(sources).target)
        try:
            oracle = instance_to_json(warehouse.build().transform(
                sources, use_planner=False).target)
        except TypeError:
            print("error: this checkout no longer exposes the naive "
                  "matcher as transform(use_planner=False); point "
                  "expected.py at its new entry point before recording "
                  "digests", file=sys.stderr)
            return 2
        if workloads.dump_digest(planned) != workloads.dump_digest(oracle):
            print(f"error: {warehouse.name}: the dynamic-matcher oracle "
                  f"disagrees with the planned target for seed {seed}; "
                  f"nothing written", file=sys.stderr)
            return 1
        digests[warehouse.name] = workloads.dump_digest(planned)
        print(f"{warehouse.name}: oracle agrees, sha256 "
              f"{digests[warehouse.name][:16]}…")
    path = os.path.join(HERE, "expected", f"seed-{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "sizes": {
            "genome": workloads.GENOME_SIZE,
            "relibase": workloads.RELIBASE_SIZE,
            "cities": workloads.CITIES_SIZE}, "sha256": digests},
            handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0
