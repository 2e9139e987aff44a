"""The repo's one benchmark: end-to-end numbers, split into layers.

    python3 benchmarks/e2e/run.py --workload serve_read --seed 11 \\
        --seconds 28 --trace 0

runs one workload against the default production path, checks every
output against an oracle, prints every metric by name with its unit
and sample count, and ends with one JSON line::

    {"correct": true, "attempted": 1920, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (untraced rounds);
``--trace 1`` reports the per-layer metrics (one more untraced round
plus an in-process replay under the tracing shim).  Without
``--workload`` every workload runs in both modes.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
HASHSEED = "0"
#: A run that has not finished by then is stuck: kill it rather than
#: hang the caller (who allows 180 s).
HARD_LIMIT_S = 170


def _pin_hash_seed() -> None:
    """Re-exec with a fixed PYTHONHASHSEED (set iteration order, and
    with it timing, otherwise varies from process to process)."""
    if os.environ.get("PYTHONHASHSEED") != HASHSEED:
        os.environ["PYTHONHASHSEED"] = HASHSEED
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _import_program() -> None:
    source = os.path.join(REPO, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"error: {source}/repro not found — the benchmark runs "
                 f"the program from a checkout of the repository")
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)


def machine_stamp() -> dict:
    import harness
    commit = "unknown"
    head = os.path.join(REPO, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(REPO, ".git", ref[5:]),
                      encoding="utf-8") as handle:
                ref = handle.read().strip()
        commit = ref[:12]
    except OSError:
        pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "clients": harness.client_count(),
            "hashseed": HASHSEED, "fsync": False}


# ----------------------------------------------------------------------
# End-to-end mode
# ----------------------------------------------------------------------

def run_rounds(workload: str, seed: int, seconds: float, smoke: bool,
               scratch: str, plan, limit=None, want_layers=False):
    """Whole rounds until the next one would overrun ``seconds``."""
    import harness
    rounds = []
    started = time.perf_counter()
    minimum = 1 if smoke or limit == 1 else 2
    while True:
        if workload == "batch_rebuild":
            current = harness.batch_pass(seed)
        else:
            current = harness.serve_round(workload, plan, seed, scratch,
                                          len(rounds), want_layers)
        rounds.append(current)
        elapsed = time.perf_counter() - started
        if limit is not None and len(rounds) >= limit:
            break
        if (len(rounds) >= minimum
                and elapsed + elapsed / len(rounds) > seconds):
            break
    return rounds


def check_digests(rounds, seed: int) -> int:
    """batch_rebuild: every pass must dump the same bytes, and for the
    seeds with committed digests exactly those bytes."""
    path = os.path.join(HERE, "expected", f"seed-{seed}.json")
    expected = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            expected = json.load(handle)["sha256"]
    reference = expected or rounds[0].digests
    return sum(1 for current in rounds if current.digests != reference)


# ----------------------------------------------------------------------
# Traced replay
# ----------------------------------------------------------------------

def replay_serve(workload: str, plan, seed: int, scratch: str, shim):
    """Replay a share of lane 0 in-process, one client, thread-hosted
    server.  Returns ([(id, kind, key)], {id: seconds}, failed)."""
    import harness
    import workloads
    from repro.service import make_server

    store_dir = os.path.join(scratch, "replay")
    morphase = workloads.GENOME.build()
    morphase.compile()
    store = morphase.open_store(store_dir, workloads.GENOME.sources(seed))
    session = morphase.serve(store)
    server = make_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    ops = workloads.lane_share(plan.lanes, workloads.TRACE_FRACTION)
    listing = [(index, op.kind, op.key) for index, op in enumerate(ops)]
    walls = {}

    def stop() -> None:
        server.shutdown()
        server.server_close()
        thread.join()

    class Timed:
        """Client-side root span (or a bare timer with the shim off)."""

        def __init__(self, index: int, kind: str) -> None:
            self.index = index
            self.root = (shim.root(f"client.{kind}", index)
                         if shim is not None else None)

        def __enter__(self):
            if self.root is not None:
                self.root.__enter__()
            self.start = time.perf_counter()

        def __exit__(self, *exc_info) -> None:
            walls[self.index] = time.perf_counter() - self.start
            if self.root is not None:
                self.root.__exit__(*exc_info)

    try:
        address = server.server_address[:2]
        harness.drive(address, [plan.warmup], 1, keep=())
        result = harness.drive(
            address, [ops], 1, keep=(),
            around=lambda position, op: Timed(position, op.kind))
        bad = sum(1 for s in result.samples if s.status != 200)
        if workload == "serve_ingest":
            stop()
            session.close()
            with Timed(len(listing), "recover"):
                store = morphase.open_store(store_dir)
                session = morphase.serve(store)
            listing.append((len(listing), "recover", "recover"))
            with Timed(len(listing), "snapshot"):
                session.snapshot()
            listing.append((len(listing), "snapshot", "snapshot"))
            session.close()
        else:
            stop()
            session.close()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return listing, walls, bad


def replay_batch(seed: int, shim):
    import harness
    root = (shim.root("client.pass", 0) if shim is not None
            else harness.NO_SPAN)
    current = harness.batch_pass(seed, around=root)
    return [(0, "pass", "pass")], {0: current.window_s}, current.failed


# ----------------------------------------------------------------------
# One workload, one mode
# ----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    import harness
    import layers
    import workloads
    from shim import Shim

    os.makedirs(harness.OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=harness.OUT_DIR)
    started = time.perf_counter()
    try:
        plan = None
        source_objects = 0
        if workload != "batch_rebuild":
            plan = workloads.plan_serve(workload, seed, smoke)
            source_objects = plan.source_objects
        if not trace:
            rounds = run_rounds(workload, seed, seconds, smoke, scratch,
                                plan)
            metrics = layers.end_to_end(rounds)
        else:
            rounds = run_rounds(workload, seed, seconds, smoke, scratch,
                                plan, limit=1, want_layers=True)
            metrics = layers.observed(rounds, source_objects)
            shim = Shim()

            def replay(tracer):
                if workload == "batch_rebuild":
                    return replay_batch(seed, tracer)
                return replay_serve(workload, plan, seed, scratch, tracer)

            _, walls_off, bad_off = replay(None)
            shim.install()
            try:
                listing, walls_on, bad_on = replay(shim)
            finally:
                shim.uninstall()
            metrics.update(layers.traced(shim, listing, walls_on,
                                         walls_off))
            shim.dump(os.path.join(harness.OUT_DIR,
                                   f"trace-{workload}.json"), listing)
            rounds[0].failed += bad_off + bad_on
            rounds[0].ops += len(walls_off) + len(walls_on)
        failed = sum(r.failed for r in rounds)
        if workload == "batch_rebuild":
            failed += check_digests(rounds, seed)
        attempted = sum(r.ops for r in rounds)
    finally:
        harness.kill_children()
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "smoke": smoke, "seconds": seconds,
        "machine": machine_stamp(),
        "round_ops": workloads.round_ops(workload, smoke),
        "rounds": len(rounds),
        "wall_s": time.perf_counter() - started,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }


def print_report(record: dict) -> None:
    machine = record["machine"]
    print(f"== {record['workload']}  seed={record['seed']} "
          f"trace={record['trace']}  rounds={record['rounds']} x "
          f"{record['round_ops']} ops  wall={record['wall_s']:.1f}s")
    print(f"   machine: cores={machine['cores']} python={machine['python']} "
          f"commit={machine['commit']} clients={machine['clients']} "
          f"(closed loop) PYTHONHASHSEED={machine['hashseed']} "
          f"fsync={'on' if machine['fsync'] else 'off'} obs=on")
    for name, (value, unit, count) in record["metrics"].items():
        print(f"   {name:<50} {value:>14.4f} {unit:<6} n={count}")
    print(f"   attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")


def check_names(record: dict) -> None:
    """The printed names must be exactly the ones BENCHMARK.json lists."""
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as handle:
        contract = json.load(handle)
    section = "per_layer" if record["trace"] else "end_to_end"
    declared = {m["name"]: m["unit"] for m in contract[section]}
    printed = {name: unit
               for name, (_v, unit, _n) in record["metrics"].items()}
    if declared != printed:
        odd = sorted(set(declared.items()) ^ set(printed.items()))
        sys.exit(f"error: metrics differ from BENCHMARK.json "
                 f"{section}: {odd[:6]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", default="both",
                        choices=("0", "1", "both"))
    parser.add_argument("--smoke", action="store_true",
                        help="round sizes / 20, one round: same code "
                             "path and checks, well under a minute")
    parser.add_argument("--out", default=None,
                        help="append one JSON line per run to this file "
                             "(default benchmarks/e2e/out/results.jsonl)")
    parser.add_argument("--write-expected", action="store_true",
                        help="record batch_rebuild dump digests for "
                             "--seed, after the dynamic-matcher oracle "
                             "agrees with the planned targets")
    args = parser.parse_args()

    _pin_hash_seed()
    _import_program()
    import harness
    import layers
    import workloads

    def on_alarm(_signum, _frame):
        harness.kill_children()
        sys.stderr.write(f"error: run exceeded {HARD_LIMIT_S}s\n")
        os._exit(3)

    if args.write_expected:
        import expected
        return expected.write(args.seed)

    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r} "
                         f"(choose from {', '.join(workloads.WORKLOADS)})")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(REPO, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            seconds = float(json.load(handle)["run_seconds"])
    modes = {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]
    out_path = args.out or os.path.join(harness.OUT_DIR, "results.jsonl")

    signal.signal(signal.SIGALRM, on_alarm)
    record = None
    all_correct = True
    for name in names:
        for trace in modes:
            signal.alarm(HARD_LIMIT_S)
            record = run_workload(name, args.seed, seconds, trace,
                                  args.smoke)
            signal.alarm(0)
            print_report(record)
            check_names(record)
            all_correct = all_correct and record["correct"]
            os.makedirs(os.path.dirname(os.path.abspath(out_path)),
                        exist_ok=True)
            with open(out_path, "a", encoding="utf-8") as handle:
                stored = dict(record,
                              metrics=layers.as_json(record["metrics"]))
                handle.write(json.dumps(stored, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": layers.as_json(record["metrics"])}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
