"""Rounds of fixed work: child server, closed-loop clients, verification.

A *round* is the unit of comparable work: one set-up, one frozen
operation list, one verification.  A run repeats whole rounds until
its ``--seconds`` are used, so a faster commit completes more rounds of
the same work instead of reaching a different state (ingest cost grows
with the deltas already applied, so only equal work is comparable).

Closed loop: ``clients = min(LANES, cores)`` keep-alive connections,
each sending its next request only when the previous reply is fully
read.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, List, Sequence, Tuple

import workloads
from workloads import Op

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Every child this process started and has not reaped yet.
_LIVE_CHILDREN: List["Child"] = []


def client_count() -> int:
    return min(workloads.LANES, os.cpu_count() or 1)


def kill_children() -> None:
    for child in list(_LIVE_CHILDREN):
        child.stop()


# ----------------------------------------------------------------------
# Child process
# ----------------------------------------------------------------------

class Child:
    """One served process over a store directory (it inherits the
    pinned PYTHONHASHSEED from this process's environment)."""

    def __init__(self, store_dir: str, seed: int) -> None:
        self.spawned_at = time.perf_counter()
        self._log = open(store_dir + ".log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"),
             "--store", store_dir, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=self._log)
        _LIVE_CHILDREN.append(self)
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.start_s = 0.0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until ``GET /health`` answers 200."""
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode().strip()
            if not line.startswith("PORT "):
                raise RuntimeError(
                    f"served child did not come up (said {line!r}; see "
                    f"{self._log.name})")
            self.address = ("127.0.0.1", int(line.split()[1]))
            conn = HTTPConnection(*self.address)
            try:
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                if response.status != 200:
                    raise RuntimeError(f"/health answered {response.status}")
            finally:
                conn.close()
        finally:
            watchdog.cancel()
        self.start_s = time.perf_counter() - self.spawned_at

    def cpu_seconds(self) -> float:
        """User + system CPU time the child has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b") ", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGKILL and reap (the served process holds no state worth a
        graceful shutdown: every acknowledged delta is in the WAL)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        if self in _LIVE_CHILDREN:
            _LIVE_CHILDREN.remove(self)


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------

@dataclass
class Sample:
    kind: str
    key: str
    seconds: float
    status: int          # 0 = client-side error
    size: int
    digest: bytes


@dataclass
class Drive:
    """What one measured segment observed."""

    wall: float
    samples: List[Sample]
    #: raw bodies worth verifying: (key, digest) -> bytes
    bodies: Dict[Tuple[str, bytes], bytes]
    sent_bytes: int


NO_SPAN = contextlib.nullcontext()


def _request(conn: HTTPConnection, op: Op) -> Tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if op.body else {}
    conn.request(op.method, op.path, body=op.body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def drive(address: Tuple[str, int], lanes: Sequence[Sequence[Op]],
          clients: int, keep: Sequence[str],
          around=None) -> Drive:
    """Run the lanes to completion over ``clients`` connections.

    ``keep`` names the op kinds whose response bodies are retained for
    verification (one copy per distinct (key, content) pair).
    ``around(position, op)`` returns a context manager entered around
    each request (the traced replay's client-side span).
    """
    samples: List[Sample] = []
    bodies: Dict[Tuple[str, bytes], bytes] = {}
    barrier = threading.Barrier(clients + 1)
    keep = frozenset(keep)
    errors: List[BaseException] = []

    def worker(index: int) -> None:
        mine = [op for lane in lanes[index::clients] for op in lane]
        conn = HTTPConnection(*address)
        try:
            conn.connect()
            barrier.wait()
            for position, op in enumerate(mine):
                with around(position, op) if around else NO_SPAN:
                    start = time.perf_counter()
                    try:
                        status, raw = _request(conn, op)
                    except (OSError, HTTPException):
                        status, raw = 0, b""
                        conn.close()
                        conn = HTTPConnection(*address)
                    seconds = time.perf_counter() - start
                digest = b""
                if op.kind in keep:
                    digest = hashlib.blake2b(raw, digest_size=12).digest()
                    bodies.setdefault((op.key, digest), raw)
                samples.append(Sample(op.kind, op.key, seconds, status,
                                      len(raw), digest))
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)
            barrier.abort()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(index,), daemon=True)
               for index in range(clients)]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass                # a worker failed to connect: raised below
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    sent = sum(len(op.body) for lane in lanes for op in lane if op.body)
    return Drive(wall, samples, bodies, sent)


def fetch(address: Tuple[str, int], method: str, path: str
          ) -> Tuple[int, bytes, float]:
    """One request on a fresh connection: status, body, seconds."""
    conn = HTTPConnection(*address)
    try:
        start = time.perf_counter()
        conn.request(method, path)
        response = conn.getresponse()
        raw = response.read()
        return response.status, raw, time.perf_counter() - start
    finally:
        conn.close()


def result_of(raw: bytes) -> Any:
    """The ``result`` of a success envelope, or None."""
    try:
        document = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(document, dict) or document.get("ok") is not True:
        return None
    return document.get("result")


def scrape(address: Tuple[str, int]) -> Dict[str, float]:
    """The child's public ``/metrics``, summed over labels per sample
    name (plus ``name{mode="read"}``-style keys for labelled samples)."""
    status, raw, _ = fetch(address, "GET", "/metrics")
    totals: Dict[str, float] = {}
    if status != 200:
        return totals
    for line in raw.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        try:
            number = float(value)
        except ValueError:
            continue
        base = name_part.split("{", 1)[0]
        totals[base] = totals.get(base, 0.0) + number
        if "{" in name_part:
            totals[name_part] = totals.get(name_part, 0.0) + number
    return totals


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

def verify_reads(result: Drive, oracle) -> int:
    """Failed reads: non-200, or rows differing from the oracle's."""
    verdicts: Dict[Tuple[str, bytes], bool] = {}
    failed = 0
    for sample in result.samples:
        if sample.kind == "ingest":
            continue
        if sample.status != 200:
            failed += 1
            continue
        if oracle is None:
            continue
        ident = (sample.key, sample.digest)
        if ident not in verdicts:
            payload = result_of(result.bodies.get(ident, b""))
            verdicts[ident] = (payload is not None and oracle.matches(
                sample.kind, sample.key, payload))
        if not verdicts[ident]:
            failed += 1
    return failed


def _acks(result: Drive) -> List[Any]:
    """The ``result`` of every 200 ingest ack (None if malformed)."""
    return [result_of(result.bodies.get((s.key, s.digest), b""))
            for s in result.samples
            if s.kind == "ingest" and s.status == 200]


def verify_acks(result: Drive, first_seq: int) -> int:
    """Failed ingests: non-200, or seqs not ``first_seq..`` exactly once."""
    failed = sum(1 for s in result.samples
                 if s.kind == "ingest" and s.status != 200)
    payloads = _acks(result)
    seqs = [p["seq"] for p in payloads if p and "seq" in p]
    failed += len(payloads) - len(seqs)
    expected = list(range(first_seq, first_seq + len(seqs)))
    if sorted(seqs) != expected:
        failed += max(1, len(set(expected) ^ set(seqs)))
    return failed


def batch_sizes(result: Drive) -> List[int]:
    """``batch_size`` of every ack whose request applied a batch."""
    return [p["batch_size"] for p in _acks(result)
            if p and p.get("batch_size")]


def target_matches(address: Tuple[str, int], expected: Dict[str, Any]
                   ) -> bool:
    status, raw, _ = fetch(address, "GET", "/target")
    payload = result_of(raw) if status == 200 else None
    return (payload is not None and workloads.canonical_dump(payload)
            == workloads.canonical_dump(expected))


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------

@dataclass
class Round:
    """One round's observations (times in seconds)."""

    setup_s: float
    window_s: float = 0.0
    ops: int = 0
    failed: int = 0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    samples: List[Sample] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)
    #: batch_rebuild: per-warehouse phase times of this pass
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    #: serve rounds: batch_size of every ack that applied a batch
    batch_sizes: List[int] = field(default_factory=list)


def _dir_bytes(path: str, prefix: str) -> int:
    try:
        return sum(os.path.getsize(os.path.join(path, name))
                   for name in os.listdir(path) if name.startswith(prefix))
    except OSError:
        return 0


def serve_round(workload: str, plan: workloads.ServePlan, seed: int,
                scratch: str, index: int, want_layers: bool = False
                ) -> Round:
    """Set up a fresh served store, run the lanes, verify, tear down."""
    clients = client_count()
    store_dir = os.path.join(scratch, f"{workload}-{index}")
    start = time.perf_counter()
    child = Child(store_dir, seed)
    try:
        child.wait_ready()
        extras: Dict[str, float] = {"start_s": child.start_s}
        warm = drive(child.address, [plan.warmup], 1, keep=())
        setup_s = time.perf_counter() - start
        failed = sum(1 for s in warm.samples if s.status != 200)

        before = scrape(child.address) if want_layers else {}
        wal_before = _dir_bytes(store_dir, "wal")
        cpu_before = child.cpu_seconds()
        keep = ("ingest",) if plan.read_oracle is None else \
            ("query", "program", "target", "check")
        result = drive(child.address, plan.lanes, clients, keep=keep)
        cpu_s = child.cpu_seconds() - cpu_before
        window_s = result.wall
        ops = len(result.samples)
        if want_layers:
            after = scrape(child.address)
            for name, value in after.items():
                extras["metric:" + name] = value - before.get(name, 0.0)
            extras["wal_bytes"] = _dir_bytes(store_dir, "wal") - wal_before
            extras["sent_bytes"] = result.sent_bytes
            extras["snapshot_bytes"] = _dir_bytes(store_dir, "snap-")

        failed += verify_reads(result, plan.read_oracle)
        if plan.read_oracle is None:
            failed += verify_acks(result, workloads.WARMUP_DELTAS + 1)
            if not target_matches(child.address, plan.final_target):
                failed += 1
        rss_mb = child.peak_rss_mb()

        if workload == "serve_ingest":
            # crash, recover on the same directory, compact: two more
            # operations of the window.  Process-crash durability only:
            # fsync is off and the OS page cache survives the SIGKILL.
            child.stop()
            recover_start = time.perf_counter()
            child = Child(store_dir, seed)
            child.wait_ready()
            recovery_s = time.perf_counter() - recover_start
            extras["recovery_s"] = recovery_s
            if not target_matches(child.address, plan.final_target):
                failed += 1
            status, _raw, snapshot_s = fetch(child.address, "POST",
                                             "/snapshot")
            failed += status != 200
            cpu_s += child.cpu_seconds()    # its whole life is the op
            window_s += recovery_s + snapshot_s
            ops += 2
            extras["snapshot_s"] = snapshot_s
            rss_mb = max(rss_mb, child.peak_rss_mb())
            result.samples.append(
                Sample("recover", "recover", recovery_s, 200, 0, b""))
            result.samples.append(
                Sample("snapshot", "snapshot", snapshot_s, status, 0, b""))
        return Round(setup_s=setup_s, window_s=window_s, ops=ops,
                     failed=failed, cpu_s=cpu_s, rss_mb=rss_mb,
                     samples=result.samples, extras=extras,
                     batch_sizes=batch_sizes(result))
    finally:
        child.stop()
        shutil.rmtree(store_dir, ignore_errors=True)


def batch_pass(seed: int, around=NO_SPAN) -> Round:
    """One cold rebuild pass over the three bundled warehouses.

    ``Morphase(...)`` -> ``compile()`` -> ``transform(sources)`` ->
    ``audit(sources, target)`` -> ``instance_to_json(target)`` per
    warehouse, default production path throughout.  Set-up is input
    generation; the dump digests are taken after the clock stops.
    ``around`` is entered around the timed pass (the traced replay's
    root span).
    """
    from repro.io.json_io import instance_to_json

    start = time.perf_counter()
    inputs = [(w, w.sources(seed)) for w in workloads.WAREHOUSES]
    setup_s = time.perf_counter() - start

    phases: Dict[str, Dict[str, float]] = {}
    documents = {}
    violations = 0
    counts = {"clauses_out": 0, "fallback_steps": 0, "source_objects": 0}
    stats = []
    cpu_before = time.process_time()
    wall_start = time.perf_counter()
    with around:
        for warehouse, sources in inputs:
            t0 = time.perf_counter()
            morphase = warehouse.build()
            normalized = morphase.compile()
            t1 = time.perf_counter()
            outcome = morphase.transform(sources)
            t2 = time.perf_counter()
            violations += len(morphase.audit(sources, outcome.target))
            t3 = time.perf_counter()
            documents[warehouse.name] = instance_to_json(outcome.target)
            t4 = time.perf_counter()
            phases[warehouse.name] = {
                "compile": t1 - t0, "transform": t2 - t1,
                "audit": t3 - t2, "dump": t4 - t3}
            stats.append((normalized, outcome))
    window_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_before
    for (_warehouse, sources), (normalized, outcome) in zip(inputs, stats):
        counts["clauses_out"] += len(getattr(normalized, "clauses", ()))
        counts["fallback_steps"] += getattr(
            getattr(outcome, "stats", None), "fallback_steps", 0)
        counts["source_objects"] += sum(s.size() for s in sources)
    digests = {name: workloads.dump_digest(doc)
               for name, doc in documents.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sample = Sample("pass", "pass", window_s, 200, 0, b"")
    return Round(setup_s=setup_s, window_s=window_s, ops=1,
                 failed=1 if violations else 0, cpu_s=cpu_s, rss_mb=rss_mb,
                 samples=[sample], phases=phases, digests=digests,
                 counts=counts)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]
