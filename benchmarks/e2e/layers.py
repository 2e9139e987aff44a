"""Metric definitions: names, units, and how each is computed.

End-to-end metrics come from untraced rounds against the child server
(or, for ``batch_rebuild``, untraced in-process passes).  Per-layer
metrics come from one more untraced round — the client-observed and
``/metrics``-derived ones — plus the in-process traced replay.  Every
workload reports every metric; a layer a workload never enters reads
zero calls and zero time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from harness import Round, Sample, median, percentile

Metric = Tuple[float, str, int]     # value, unit, sample count

# ----------------------------------------------------------------------
# End-to-end
# ----------------------------------------------------------------------

#: name -> (unit, better, regression bound).  The timing bounds are as
#: wide as the contract allows because the reference box itself drifts
#: by +-7 % from one 4 s window to the next (see README, "Noise").
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}


def request_class(sample: Sample) -> str:
    """Requests that do the same work: one class per repeated query
    body and per program, one for the whole parameterised family."""
    if sample.kind == "query":
        return "query:" + (sample.key if sample.key.startswith("pool:")
                           else "family")
    if sample.kind == "program":
        return "program:" + sample.key
    return sample.kind


def typical_latency_ms(samples: Sequence[Sample]) -> float:
    """Count-weighted mean of the per-class median latencies.

    A pooled median over a mixed workload sits in the gap between the
    fast and the slow classes and jumps with a few samples; a pooled
    mean follows the tail.  The median *within* each class of equal
    work is steady, and weighting the classes by their share of the
    requests keeps the metric proportional to what a client waits for.
    """
    classes: Dict[str, List[float]] = {}
    for sample in samples:
        classes.setdefault(request_class(sample), []).append(
            sample.seconds * 1000)
    return sum(len(values) * median(values)
               for values in classes.values()) / len(samples)


def end_to_end(rounds: Sequence[Round]) -> Dict[str, Metric]:
    ops = sum(r.ops for r in rounds)
    samples = [s for r in rounds for s in r.samples]
    return {
        "setup_s": (median([r.setup_s for r in rounds]), "s", len(rounds)),
        # per round, then the median: one slow round does not drag it
        "ops_per_s": (median([(r.ops - r.failed) / r.window_s
                              for r in rounds]), "1/s", ops),
        "latency_ms": (typical_latency_ms(samples), "ms", len(samples)),
        "peak_rss_mb": (median([r.rss_mb for r in rounds]), "MB",
                        len(rounds)),
    }


# ----------------------------------------------------------------------
# Per-layer
# ----------------------------------------------------------------------

#: metric -> span names whose self time it sums (per window op).
SELF_TIME = {
    "lang.parse_ms": ("lang.parse",),
    "normalization.normalize_ms": ("normalization.normalize",),
    "analysis.preflight_ms": ("analysis.preflight",),
    "engine.planner.plan_program_ms": ("engine.planner.plan_program",),
    "engine.planner.plan_audit_ms": ("engine.planner.plan_audit",),
    "engine.planner.plan_clause_ms": ("engine.planner.plan_clause",),
    "semantics.match.index_build_ms": ("semantics.match.prebuild",
                                       "semantics.match.index_for"),
    "semantics.match.rebase_ms": ("semantics.match.rebase",),
    "semantics.columns.patch_ms": ("semantics.columns.patch",),
    "engine.executor.run_program_ms": ("engine.executor.run_program",),
    "engine.executor.freeze_ms": ("engine.executor.freeze",),
    "engine.columnar.compile_steps_ms": ("engine.columnar.compile_steps",),
    "engine.columnar.run_steps_ms": ("engine.columnar.run_steps",),
    "constraints.audit.violations_ms": ("constraints.audit.violations",),
    "engine.incremental.transform_apply_ms":
        ("engine.incremental.transform_apply",),
    "engine.incremental.audit_apply_ms":
        ("engine.incremental.audit_apply",),
    "evolution.delta.compose_ms": ("evolution.delta.compose",),
    "io.json_io.instance_to_json_ms": ("io.json_io.instance_to_json",),
    "io.json_io.value_to_json_ms": ("io.json_io.value_to_json",),
    "store.store.decode_delta_ms": ("store.store.decode_delta",),
    "store.store.append_ms": ("store.store.append",),
    "store.wal.append_ms": ("store.wal.append",),
    "store.store.open_ms": ("store.store.open",),
    "store.snapshot.load_ms": ("store.snapshot.load",),
    "store.wal.replay_ms": ("store.wal.replay",),
    "store.store.snapshot_ms": ("store.store.snapshot",),
    "service.session.rebuild_ms": ("service.session.rebuild",),
    "service.session.query_body_json_ms":
        ("service.session.query_body_json",),
    "service.session.program_json_ms": ("service.session.program_json",),
    "service.session.target_json_ms": ("service.session.target_json",),
    "service.session.check_json_ms": ("service.session.check_json",),
    "service.session.ingest_json_ms": ("service.session.ingest_json",),
    "query.parse_ms": ("query.parse",),
    "query.run_planned_ms": ("query.run_planned",),
    "program.parse_ms": ("program.parse",),
    "program.compile_ms": ("program.compile",),
    "program.run_ms": ("program.run",),
    "morphase.facade_ms": ("morphase.compile", "morphase.transform",
                           "morphase.audit"),
}

#: metric -> span whose calls it counts (per window op).
CALLS = {
    "engine.planner.plan_clause_calls_per_op": "engine.planner.plan_clause",
    "engine.columnar.compile_steps_calls_per_op":
        "engine.columnar.compile_steps",
}

HTTP_KINDS = ("query", "program", "target", "ingest")
WAREHOUSE_NAMES = ("genome", "relibase", "cities")
BATCH_PHASES = ("compile", "transform", "audit")

#: metric -> unit, for everything that is not a SELF_TIME / CALLS entry.
OTHER_UNITS = {
    **{f"service.server.http_overhead_ms.{k}": "ms/op" for k in HTTP_KINDS},
    **{f"service.server.response_bytes.{k}": "B"
       for k in ("query", "program", "target")},
    "io.json_io.target_doc_builds_per_target_read": "1/op",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
    "client.query_p50_ms": "ms/op", "client.query_p95_ms": "ms/op",
    "client.program_p50_ms": "ms/op", "client.target_p50_ms": "ms/op",
    "client.check_p50_ms": "ms/op",
    "client.ingest_p50_ms": "ms/op", "client.ingest_p95_ms": "ms/op",
    "client.recovery_s": "s/op", "client.snapshot_ms": "ms/op",
    "query.repeated_p50_ms": "ms/op", "query.unique_p50_ms": "ms/op",
    "service.session.commit_batch_mean": "count",
    "service.session.ingest_drift_ratio": "ratio",
    "service.locks.read_wait_ms_per_op": "ms/op",
    "service.locks.write_wait_ms_per_op": "ms/op",
    "service.process.cpu_util": "ratio",
    "process.cpu_ms_per_op": "ms/op",
    "service.process.start_ms": "ms/op",
    "semantics.match.index_builds_per_read": "1/op",
    "semantics.match.index_build_ms_per_read": "ms/op",
    "store.wal.bytes_per_delta": "B",
    "store.wal.bytes_per_ingest_byte": "ratio",
    "store.wal.fsyncs_per_delta": "1/op",
    "store.snapshot.bytes_per_source_object": "B",
    **{f"batch.{p}_p50_ms": "ms/op" for p in BATCH_PHASES + ("dump",)},
    **{f"morphase.{p}_ms.{w}": "ms/op"
       for p in BATCH_PHASES for w in WAREHOUSE_NAMES},
    "morphase.transform_objects_per_s": "1/s",
    "normalization.clauses_out": "count",
    "engine.executor.fallback_steps": "count",
}

#: Per-layer metrics where more is better (all others: less).
HIGHER_IS_BETTER = frozenset({"morphase.transform_objects_per_s",
                              "trace.coverage_ratio",
                              "service.session.commit_batch_mean"})

PER_LAYER_UNITS: Dict[str, str] = {
    **{name: "ms/op" for name in SELF_TIME},
    **{name: "1/op" for name in CALLS},
    **OTHER_UNITS,
}


def _of_kind(samples: Sequence[Sample], kind: str) -> List[float]:
    return [s.seconds * 1000 for s in samples
            if s.kind == kind and s.status == 200]


def observed(rounds: Sequence[Round], source_objects: int
             ) -> Dict[str, Metric]:
    """Per-layer metrics read off untraced rounds: client timings,
    acks, on-disk sizes and the child's public ``/metrics``."""
    out: Dict[str, Metric] = {}
    samples = [s for r in rounds for s in r.samples]
    window = sum(r.window_s for r in rounds)
    ops = max(1, sum(r.ops for r in rounds))

    def put(name: str, value: float, count: int) -> None:
        out[name] = (float(value), PER_LAYER_UNITS[name], count)

    for kind in ("query", "program", "target", "check", "ingest"):
        values = _of_kind(samples, kind)
        put(f"client.{kind}_p50_ms", median(values), len(values))
        if kind in ("query", "ingest"):
            put(f"client.{kind}_p95_ms", percentile(values, 0.95),
                len(values))
        if kind in ("query", "program", "target"):
            sizes = [s.size for s in samples
                     if s.kind == kind and s.status == 200]
            put(f"service.server.response_bytes.{kind}",
                sum(sizes) / len(sizes) if sizes else 0.0, len(sizes))
    repeated = [s.seconds * 1000 for s in samples
                if s.kind == "query" and s.key.startswith("pool:")]
    unique = [s.seconds * 1000 for s in samples
              if s.kind == "query" and s.key.startswith("fam:")]
    put("query.repeated_p50_ms", median(repeated), len(repeated))
    put("query.unique_p50_ms", median(unique), len(unique))

    recoveries = [r.extras["recovery_s"] for r in rounds
                  if "recovery_s" in r.extras]
    put("client.recovery_s", median(recoveries), len(recoveries))
    snapshots = [r.extras["snapshot_s"] * 1000 for r in rounds
                 if "snapshot_s" in r.extras]
    put("client.snapshot_ms", median(snapshots), len(snapshots))

    sizes = [size for r in rounds for size in r.batch_sizes]
    put("service.session.commit_batch_mean",
        sum(sizes) / len(sizes) if sizes else 0.0, len(sizes))
    drifts = []
    for r in rounds:
        ingests = _of_kind(r.samples, "ingest")
        tenth = len(ingests) // 10
        if tenth >= 5:
            drifts.append(median(ingests[-tenth:]) / median(ingests[:tenth]))
    put("service.session.ingest_drift_ratio", median(drifts), len(drifts))

    def scraped(name: str) -> float:
        return sum(r.extras.get("metric:" + name, 0.0) for r in rounds)

    reads = max(1, sum(1 for s in samples
                       if s.kind in ("query", "program", "target", "check")))
    deltas = sum(1 for s in samples if s.kind == "ingest")
    put("service.locks.read_wait_ms_per_op",
        scraped('repro_rwlock_wait_seconds_sum{mode="read"}') * 1000 / ops,
        ops)
    put("service.locks.write_wait_ms_per_op",
        scraped('repro_rwlock_wait_seconds_sum{mode="write"}') * 1000 / ops,
        ops)
    put("process.cpu_ms_per_op", sum(r.cpu_s for r in rounds) * 1000 / ops,
        ops)
    served = [r for r in rounds if "start_s" in r.extras]
    put("service.process.cpu_util",
        sum(r.cpu_s for r in served) / window if served else 0.0,
        len(served))
    put("service.process.start_ms",
        median([r.extras["start_s"] * 1000 for r in served]), len(served))
    put("semantics.match.index_builds_per_read",
        scraped("repro_index_build_seconds_count") / reads, reads)
    put("semantics.match.index_build_ms_per_read",
        scraped("repro_index_build_seconds_sum") * 1000 / reads, reads)
    wal_bytes = sum(r.extras.get("wal_bytes", 0.0) for r in rounds)
    sent = sum(r.extras.get("sent_bytes", 0.0) for r in rounds)
    put("store.wal.bytes_per_delta",
        wal_bytes / deltas if deltas else 0.0, deltas)
    put("store.wal.bytes_per_ingest_byte",
        wal_bytes / sent if sent and deltas else 0.0, deltas)
    put("store.wal.fsyncs_per_delta",
        scraped("repro_wal_fsync_seconds_count") / deltas if deltas else 0.0,
        deltas)
    snapshot_bytes = [r.extras["snapshot_bytes"] for r in rounds
                      if r.extras.get("snapshot_bytes")]
    put("store.snapshot.bytes_per_source_object",
        median(snapshot_bytes) / source_objects if snapshot_bytes else 0.0,
        len(snapshot_bytes))

    passes = [r for r in rounds if r.phases]
    for phase in BATCH_PHASES + ("dump",):
        totals = [sum(r.phases[w][phase] for w in WAREHOUSE_NAMES) * 1000
                  for r in passes]
        put(f"batch.{phase}_p50_ms", median(totals), len(totals))
    for phase in BATCH_PHASES:
        for name in WAREHOUSE_NAMES:
            put(f"morphase.{phase}_ms.{name}",
                median([r.phases[name][phase] * 1000 for r in passes]),
                len(passes))
    transform_s = sum(r.phases[w]["transform"] for r in passes
                      for w in WAREHOUSE_NAMES)
    objects = sum(r.counts["source_objects"] for r in passes)
    put("morphase.transform_objects_per_s",
        objects / transform_s if transform_s else 0.0, len(passes))
    put("normalization.clauses_out",
        median([r.counts["clauses_out"] for r in passes]), len(passes))
    put("engine.executor.fallback_steps",
        median([r.counts["fallback_steps"] for r in passes]), len(passes))
    return out


def traced(shim, ops: Sequence[Tuple[int, str, str]],
           walls_on: Dict[int, float], walls_off: Dict[int, float]
           ) -> Dict[str, Metric]:
    """Per-layer metrics of the traced replay.

    ``ops`` lists (id, kind, key) of the replayed operations;
    ``walls_on`` / ``walls_off`` map op id to client-observed seconds
    with the shim on and off.
    """
    out: Dict[str, Metric] = {}
    count = max(1, len(ops))
    totals = shim.totals()

    def put(name: str, value: float, samples: int) -> None:
        out[name] = (float(value), PER_LAYER_UNITS[name], samples)

    for metric, spans in SELF_TIME.items():
        calls = sum(totals.get(span, (0, 0.0))[0] for span in spans)
        seconds = sum(totals.get(span, (0, 0.0))[1] for span in spans)
        put(metric, seconds * 1000 / count, calls)
    for metric, span in CALLS.items():
        calls = totals.get(span, (0, 0.0))[0]
        put(metric, calls / count, calls)

    covered = shim.server_seconds()
    for kind in HTTP_KINDS:
        ids = [op for op, op_kind, _ in ops if op_kind == kind]
        gaps = [(walls_on[op] - covered.get(op, 0.0)) * 1000 for op in ids]
        put(f"service.server.http_overhead_ms.{kind}",
            sum(gaps) / len(gaps) if gaps else 0.0, len(gaps))
    targets = {op for op, kind, _ in ops if kind == "target"}
    builds = shim.totals(targets).get("io.json_io.instance_to_json",
                                      (0, 0.0))[0]
    put("io.json_io.target_doc_builds_per_target_read",
        builds / len(targets) if targets else 0.0, len(targets))

    wall_on = sum(walls_on.values())
    wall_off = sum(walls_off.values())
    put("trace.overhead_ratio", wall_on / wall_off if wall_off else 0.0,
        len(walls_off))
    put("trace.coverage_ratio",
        sum(covered.values()) / wall_on if wall_on else 0.0, len(walls_on))
    return out


def as_json(metrics: Dict[str, Metric]) -> Dict[str, Any]:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _count) in metrics.items()}
