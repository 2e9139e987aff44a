"""Command-line front end: ``python -m repro``.

Runs the Morphase pipeline against files on disk, the way the paper's
system was used operationally (periodic transformations between evolving
databases, Section 6).

Subcommands::

    python -m repro compile  --source us.schema --source euro.schema \\
                             --target target.schema program.wol
        Normalise a program and print the normal form plus statistics.

    python -m repro transform --source us.schema --source euro.schema \\
                              --target target.schema program.wol \\
                              --data us.json --data euro.json \\
                              --out target.json [--backend cpl]
        Run the transformation over JSON instances; write the target.

    python -m repro check    --source euro.schema program.wol \\
                             --data euro.json [--stats]
        Audit constraint clauses against an instance.  The audit is
        planned (per-clause join orders for body and head probe, one
        shared prebuilt index pool); ``--stats`` prints the audit's
        run record.

    python -m repro plan     --source us.schema --target target.schema \\
                             program.wol --data us.json
        Print the execution plan (per-clause join orders, shared
        indexes) the planner would use for these instances.

    python -m repro apply-delta --source us.schema --target target.schema \\
                                program.wol --data us.json \\
                                --delta delta.json --out target.json \\
                                [--json] [--stats]
        Incrementally propagate a source delta: run the transformation
        once, apply the delta JSON with semi-naive delta joins, write
        the *updated* target, and report the source-constraint
        violation diff (new violations from inserts, retracted ones
        from deletes).  ``--json`` emits the whole report as JSON.

    python -m repro serve    --store DIR --source us.schema \\
                             --target target.schema program.wol \\
                             [--data us.json] [--host H] [--port P]
        Open (or initialise, from ``--data``) a durable warehouse
        store and serve it over HTTP: one long-lived session keeps
        the compiled plan, indexes and incremental session (target
        and violation set) warm; POST /ingest appends deltas to the write-ahead
        log and group-commits them into the warm state.  With
        ``--replica-of URL`` the node instead seeds itself from the
        leader's snapshot, tails its /wal feed and serves reads
        locally (writes answer 409 pointing at the leader).

    python -m repro snapshot --store DIR [--data us.json]
        Initialise a store from instance files (first run) or compact
        an existing one: write a content-addressed snapshot at the
        current sequence number and reset the write-ahead log.

    python -m repro replay   --store DIR [--out source.json] [--json]
        Recover a store and report what replay saw: the snapshot it
        started from, the WAL records applied, whether a torn final
        record was dropped, and the recovered class sizes.

    python -m repro program  program.qp --data target.json [--json] \\
                             [--ast] [--explain] \\
                             | --url http://host:port
        Parse, validate and run a query program (the composable
        query DSL of :mod:`repro.program`) — named statements mixing
        WOL conjunctive bodies with set algebra over earlier results.
        ``--data`` runs locally against instance JSON; ``--url`` posts
        the program to a running service's ``POST /program``.
        ``--ast`` prints the canonical JSON AST without executing;
        ``--explain`` adds per-statement plans.  Validation failures
        print the WOL5xx diagnostics and exit 1; parse errors exit 2.

    python -m repro lint     --source us.schema [--target target.schema] \\
                             program.wol [--json] [--fail-on SEVERITY]
        Statically analyze a WOL program: safety/boundness, dead and
        unsatisfiable clauses, clause interference, schema/key lint.
        Prints diagnostics (``--json`` for the machine-readable form)
        and exits 1 when any finding reaches ``--fail-on`` (default
        ``error``; also ``warning`` or ``info``).  Suppress findings
        in the program text with ``-- lint: disable=WOL301`` or
        ``-- lint: disable=WOL301,WOL204 clause=C6``.

Schema files use the textual schema language; ``program.wol`` is WOL
concrete syntax; instances are the JSON interchange format of
:mod:`repro.io` and deltas that of
:mod:`repro.evolution.delta`.  ``transform`` runs the planned execution
path.  Every ``--stats`` line and ``--json`` ``stats`` object is a
view of one run's :class:`~repro.engine.executor.ExecutionStats`.  Planned
execution is vectorized: whole binding batches flow through each clause
as columns, one batch stage per plan step.
``check`` and ``apply-delta`` accept ``--json`` for machine-readable
reports (CI and external tools consume these without scraping text).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import nullcontext
from typing import List, Optional

from .constraints.audit import audit_constraints
from .engine.executor import ExecutionStats
from .evolution.delta import load_delta
from .io.json_io import dump_instance, load_instance
from .lang.parser import parse_program
from .lang.pretty import format_program
from .model.keys import KeyedSchema
from .model.schema import parse_schema
from .morphase.system import Morphase
from .obs.trace import render_trace_json, start_trace
from .semantics.satisfaction import merge_instances


def _load_schema_file(path: str):
    with open(path) as handle:
        return parse_schema(handle.read())


def _load_program_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _build_morphase(args) -> Morphase:
    sources = [_load_schema_file(path) for path in args.source]
    target = _load_schema_file(args.target)
    return Morphase(sources, target, _load_program_text(args.program))


def _cmd_compile(args) -> int:
    morphase = _build_morphase(args)
    normalized = morphase.compile()
    report = normalized.report
    print(format_program(normalized.program()))
    print()
    print(f"-- input:  {report.input_clauses} clauses, "
          f"{report.input_size} atoms")
    print(f"-- output: {report.normal_clauses} clauses, "
          f"{report.normal_size} atoms")
    print(f"-- pruned unsatisfiable combinations: "
          f"{report.pruned_unsatisfiable}")
    print(f"-- compile time: {report.elapsed_seconds * 1000:.1f} ms")
    if report.uncovered:
        print(f"-- WARNING, uncovered attributes: {report.uncovered}")
        return 1
    return 0


def _probes_and_time(stats: ExecutionStats) -> str:
    """The tail the ``transform`` and ``check`` ``--stats`` lines
    share: the run's index probes (each a scan avoided) and wall time."""
    return (f"{stats.index_hits + stats.index_misses} scans avoided "
            f"({stats.index_hits} hits / {stats.index_misses} misses), "
            f"{stats.elapsed_seconds * 1000:.1f} ms")


def _cmd_transform(args) -> int:
    morphase = _build_morphase(args)
    instances = [load_instance(path) for path in args.data]
    tracing = (start_trace("transform", program=args.program)
               if args.trace else nullcontext(None))
    with tracing as trace:
        result = morphase.transform(
            instances, backend=args.backend,
            check_source_constraints=args.check_source)
    if trace is not None:
        print(trace.render())
    dump_instance(result.target, args.out)
    sizes = ", ".join(f"{cname}={count}" for cname, count in
                      sorted(result.target.class_sizes().items()))
    print(f"wrote {args.out}: {sizes}")
    if args.stats:
        stats = result.stats
        # Indexes prebuilt by the planner are counted on the plan; the
        # stats delta covers only lazy in-run builds.
        prebuilt = result.plan.prebuilt_indexes if result.plan else 0
        if stats.vectorized_steps:
            vector_note = (f"{stats.vectorized_steps} vectorized steps "
                           f"({stats.vectorized_rows} rows, "
                           f"max batch {stats.max_batch_rows}), ")
        else:
            vector_note = ""
        print(f"stats: {stats.clauses_run} clauses "
              f"({stats.clauses_planned} planned, "
              f"{stats.atoms_reordered} atoms reordered), "
              f"{vector_note}"
              f"{stats.bindings_found} bindings, "
              f"{prebuilt + stats.indexes_built} indexes built, "
              f"{_probes_and_time(stats)}")
    if args.audit:
        tracing = (start_trace("audit", program=args.program)
                   if args.trace else nullcontext(None))
        with tracing as trace:
            violations = morphase.audit(instances, result.target)
        if trace is not None:
            print(trace.render())
        if violations:
            print(f"AUDIT FAILED: {len(violations)} violation(s)")
            for violation in violations[:5]:
                print(f"  {violation}")
            return 1
        print("audit: all clauses satisfied")
    return 0


def _cmd_check(args) -> int:
    sources = [_load_schema_file(path) for path in args.source]
    schemas = [s.schema if isinstance(s, KeyedSchema) else s
               for s in sources]
    class_names: List[str] = []
    for schema in schemas:
        class_names.extend(schema.class_names())
    program = parse_program(_load_program_text(args.program),
                            classes=class_names)
    instances = [load_instance(path) for path in args.data]
    merged = (instances[0] if len(instances) == 1
              else merge_instances("__check__", instances))
    tracing = (start_trace("check", program=args.program)
               if args.trace else nullcontext(None))
    with tracing as trace:
        report = audit_constraints(merged, list(program),
                                   limit_per_clause=10)
    if trace is not None:
        print(trace.render())
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    if args.stats:
        prebuilt = report.plan.prebuilt_indexes
        print(f"stats: {report.checked} constraints, "
              f"{prebuilt + report.stats.indexes_built} indexes built "
              f"({prebuilt} prebuilt), {_probes_and_time(report.stats)}")
    if not report.ok:
        found = [violation for name in report.failed_clauses()
                 for violation in report.violations[name]]
        print(f"{len(found)} violation(s):")
        for violation in found:
            print(f"  {violation}")
        return 1
    print(f"all {report.checked} clauses satisfied")
    return 0


def _cmd_apply_delta(args) -> int:
    morphase = _build_morphase(args)
    # Capture the dump-label -> oid mapping at load time: loaded
    # anonymous objects get fresh serials, so the labels a delta file
    # uses cannot be reconstructed from the instances afterwards.
    labels = {}
    instances = [load_instance(path, labels=labels)
                 for path in args.data]
    merged = (instances[0] if len(instances) == 1
              else merge_instances("__delta__", instances))
    delta = load_delta(args.delta, merged, labels=labels)
    session = morphase.begin_incremental(instances)
    violations_before = session.violation_count()
    result = session.apply_delta(delta)
    dump_instance(result.target, args.out)
    stats = result.stats
    if args.json:
        document = {
            "delta": {
                "inserts": sum(len(objs)
                               for objs in delta.inserts.values()),
                "updates": sum(len(objs)
                               for objs in delta.updates.values()),
                "deletes": sum(len(oids)
                               for oids in delta.deletes.values()),
                "classes": sorted(delta.classes()),
            },
            "target": {
                "path": args.out,
                "classes": result.target.class_sizes(),
            },
            "violations": {
                "added": [str(v) for v in result.added],
                "removed": [str(v) for v in result.removed],
                "remaining": result.violation_count,
            },
            "stats": {
                "delta_size": stats.delta_size,
                "seeds_probed": stats.seeds_probed,
                "bindings_removed": stats.bindings_removed,
                "bindings_added": stats.bindings_added,
                "clauses_skipped": stats.clauses_skipped,
                "clauses_seeded": stats.clauses_seeded,
                "clauses_recomputed": stats.clauses_recomputed,
                "indexes_maintained": stats.indexes_maintained,
                "indexes_rebuilt": stats.indexes_rebuilt,
                "target_objects_touched": stats.target_objects_touched,
                "vectorized_steps": stats.vectorized_steps,
                "vectorized_rows": stats.vectorized_rows,
                "max_batch_rows": stats.max_batch_rows,
                "elapsed_ms": round(stats.elapsed_seconds * 1000, 3),
            },
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0 if not result.violation_count else 1
    sizes = ", ".join(f"{cname}={count}" for cname, count in
                      sorted(result.target.class_sizes().items()))
    print(f"{delta.summary()}")
    print(f"wrote {args.out}: {sizes}")
    if args.stats:
        print(f"stats: {stats.clauses_seeded} clauses seeded "
              f"({stats.clauses_skipped} untouched, "
              f"{stats.clauses_recomputed} recomputed), "
              f"{stats.seeds_probed} seeds, "
              f"-{stats.bindings_removed}/+{stats.bindings_added} "
              f"bindings, {stats.target_objects_touched} target objects "
              f"touched, {stats.indexes_maintained} indexes maintained "
              f"({stats.indexes_rebuilt} rebuilt), "
              f"{stats.vectorized_steps} vectorized steps, "
              f"{stats.elapsed_seconds * 1000:.1f} ms")
    for violation in result.added:
        print(f"  + {violation}")
    for violation in result.removed:
        print(f"  - {violation}")
    remaining = result.violation_count
    print(f"violations: {violations_before} -> {remaining} "
          f"(+{len(result.added)} new, "
          f"-{len(result.removed)} retracted)")
    return 0 if not remaining else 1


def _cmd_lint(args) -> int:
    from .analysis import analyze_text
    sources = [_load_schema_file(path) for path in args.source]
    target = _load_schema_file(args.target) if args.target else None
    report = analyze_text(_load_program_text(args.program), sources, target)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text(source_name=args.program))
    return 1 if report.at_or_above(args.fail_on) else 0


def _cmd_program(args) -> int:
    from .program import (ProgramParseError, ProgramValidationError,
                          compile_program, parse_program_text,
                          run_compiled)
    text = _load_program_text(args.program)
    try:
        program = parse_program_text(text)
    except ProgramParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.ast:
        # Canonical field order (version, name, statements) — not
        # alphabetised: this *is* the wire format.
        print(json.dumps(program.to_json(), indent=2))
        return 0

    trace_doc = None
    if args.url:
        from .service.client import (ServiceClient, ServiceParseError,
                                     ServiceValidationError)
        client = ServiceClient(args.url)
        try:
            result = client.program(text=text,
                                    explain=args.explain,
                                    trace=args.trace)
            trace_doc = client.last_trace
        except ServiceValidationError as exc:
            _print_program_diagnostics(exc.diagnostics, args.program)
            return 1
        except ServiceParseError as exc:
            print(f"error: {exc.message}", file=sys.stderr)
            return 2
    else:
        if not args.data:
            print("error: pass --data (local instances) or --url "
                  "(running service)", file=sys.stderr)
            return 2
        instances = [load_instance(path) for path in args.data]
        merged = (instances[0] if len(instances) == 1
                  else merge_instances("__program__", instances))
        try:
            compiled = compile_program(program, merged)
        except ProgramValidationError as exc:
            _print_program_diagnostics(exc.report.to_json(),
                                       args.program)
            return 1
        tracing = (start_trace("program", program=args.program)
                   if args.trace else nullcontext(None))
        with tracing as trace:
            outcome = run_compiled(compiled, merged)
        if trace is not None:
            trace_doc = trace.to_json()
        result = outcome.to_json()
        if args.explain:
            result["explain"] = compiled.explain()

    if args.json:
        if trace_doc is not None:
            result["trace"] = trace_doc
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    label = result.get("program") or args.program
    statements = result.get("statements", [])
    print(f"program {label}: {len(statements)} statement(s)")
    for trace in statements:
        print(f"  {trace['name']:<12} {trace['op']:<10} "
              f"{trace['rows']} row(s)")
    columns = result.get("columns", [])
    rows = result.get("rows", [])
    print(f"result {result.get('result')}: {len(rows)} row(s) "
          f"over ({', '.join(columns)})")
    for row in rows:
        cells = ", ".join(f"{name}={json.dumps(row[name])}"
                          for name in columns if name in row)
        print(f"  {cells}")
    if args.explain and "explain" in result:
        print(result["explain"])
    if trace_doc is not None:
        print(render_trace_json(trace_doc))
    return 0


def _print_program_diagnostics(report_json, source_name: str) -> None:
    if not report_json:
        print("error: program failed validation", file=sys.stderr)
        return
    counts = report_json.get("counts", {})
    print(f"{source_name}: program failed validation "
          f"({counts.get('error', '?')} error(s))", file=sys.stderr)
    for diagnostic in report_json.get("diagnostics", []):
        where = diagnostic.get("clause", "<program>")
        print(f"  {diagnostic.get('severity', ''):<7} "
              f"{diagnostic.get('code', '')}  {where}: "
              f"{diagnostic.get('message', '')}", file=sys.stderr)


def _cmd_plan(args) -> int:
    morphase = _build_morphase(args)
    instances = [load_instance(path) for path in args.data]
    plan = morphase.plan(instances)
    print(plan.explain())
    return 0


def _cmd_serve(args) -> int:
    from .obs.events import configure_event_log
    from .obs.metrics import set_enabled
    from .service.server import make_server
    if args.no_obs:
        set_enabled(False)
    else:
        configure_event_log(
            sys.stderr,
            level=logging.DEBUG if args.verbose else logging.INFO)
    morphase = _build_morphase(args)
    replica = None
    if args.replica_of:
        from .service.replica import WalReplica
        replica = WalReplica(morphase, args.replica_of, args.store,
                             poll_wait=args.poll_wait,
                             fsync=args.fsync)
        session = replica.start()
        store = session.store
        stats = store.stats()
        print(f"replica store: {args.store} (seq {stats['seq']}, "
              f"following {replica.leader_url})")
    else:
        sources = ([load_instance(path) for path in args.data]
                   if args.data else None)
        store = morphase.open_store(args.store, sources,
                                    fsync=args.fsync)
        session = morphase.serve(store)
        stats = store.stats()
        print(f"store: {args.store} (seq {stats['seq']}, "
              f"{stats['wal_records']} WAL record(s) replayed)")
    server = make_server(session, host=args.host, port=args.port,
                         verbose=args.verbose,
                         slow_query_ms=args.slow_query_ms)
    endpoints = ("GET /query, GET /check, GET /metrics, GET /wal"
                 if replica is not None else
                 "POST /ingest, POST /program, GET /query, GET /check, "
                 "POST /snapshot, POST /lint, GET /metrics, GET /wal")
    print(f"serving on {server.url} — {endpoints}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print("shutting down")
    finally:
        server.server_close()
        if replica is not None:
            replica.close()
        else:
            session.close()
    return 0


def _cmd_snapshot(args) -> int:
    from .store.store import WarehouseStore
    if WarehouseStore.exists(args.store):
        store = WarehouseStore.open(args.store)
        subsumed = store.seq - store.base_seq
        name = store.snapshot()
        action = f"compacted ({subsumed} WAL record(s) subsumed)"
    else:
        if not args.data:
            print(f"error: no store at {args.store}; pass --data to "
                  f"initialise one", file=sys.stderr)
            return 2
        instances = [load_instance(path) for path in args.data]
        merged = (instances[0] if len(instances) == 1
                  else merge_instances("__source__", instances))
        store = WarehouseStore.create(args.store, merged)
        name = store.snapshot_file
        action = "initialised"
    sizes = ", ".join(f"{cname}={count}" for cname, count in
                      sorted(store.instance.class_sizes().items()))
    print(f"{action} store {args.store}")
    print(f"snapshot: {name} (base_seq {store.base_seq})")
    print(f"classes: {sizes}")
    store.close()
    return 0


def _cmd_replay(args) -> int:
    from .store.store import WarehouseStore
    store = WarehouseStore.open(args.store)
    stats = store.stats()
    if args.out:
        dump_instance(store.instance, args.out)
    if args.json:
        document = {
            "store": args.store,
            "snapshot": stats["snapshot"],
            "base_seq": stats["base_seq"],
            "seq": stats["seq"],
            "replayed": stats["wal_records"],
            "torn_tail_dropped": stats["recovered_torn"],
            "classes": stats["classes"],
        }
        if args.out:
            document["out"] = args.out
        print(json.dumps(document, indent=2, sort_keys=True))
        store.close()
        return 0
    torn = ("dropped a torn final record"
            if store.recovered_torn is not None else "none")
    sizes = ", ".join(f"{cname}={count}" for cname, count in
                      sorted(stats["classes"].items()))
    print(f"recovered store {args.store}")
    print(f"snapshot: {stats['snapshot']} (base_seq {stats['base_seq']})")
    print(f"replayed {stats['wal_records']} WAL record(s) to seq "
          f"{stats['seq']}, torn tail: {torn}")
    print(f"classes: {sizes}")
    if args.out:
        print(f"wrote {args.out}")
    store.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WOL/Morphase: database transformations and "
                    "constraints (Davidson & Kosky, ICDE 1997)")
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser("compile",
                               help="normalise a WOL program")
    transform_p = sub.add_parser("transform",
                                 help="run a transformation")
    check_p = sub.add_parser("check",
                             help="audit constraints against an instance")
    plan_p = sub.add_parser("plan",
                            help="print the execution plan for a program "
                                 "over instances")
    delta_p = sub.add_parser("apply-delta",
                             help="incrementally propagate a source delta "
                                  "through a transformation")
    serve_p = sub.add_parser("serve",
                             help="serve a durable warehouse store over "
                                  "HTTP (warm incremental session)")
    snapshot_p = sub.add_parser("snapshot",
                                help="initialise or compact a warehouse "
                                     "store (snapshot + WAL reset)")
    replay_p = sub.add_parser("replay",
                              help="recover a warehouse store and report "
                                   "the WAL replay")
    lint_p = sub.add_parser("lint",
                            help="statically analyze a WOL program "
                                 "(safety, dead clauses, interference, "
                                 "schema/key lint)")
    program_p = sub.add_parser("program",
                               help="run a composable query program "
                                    "(WOL bodies + set algebra) locally "
                                    "or against a running service")

    for p in (compile_p, transform_p, plan_p, delta_p, serve_p):
        p.add_argument("--source", action="append", required=True,
                       help="source schema file (repeatable)")
        p.add_argument("--target", required=True,
                       help="target schema file")
        p.add_argument("program", help="WOL program file")
    check_p.add_argument("--source", action="append", required=True,
                         help="schema file (repeatable)")
    check_p.add_argument("program", help="WOL constraint file")

    transform_p.add_argument("--data", action="append", required=True,
                             help="source instance JSON (repeatable)")
    transform_p.add_argument("--out", required=True,
                             help="target instance JSON to write")
    transform_p.add_argument("--backend", default="direct",
                             choices=["direct", "cpl"])
    transform_p.add_argument("--check-source", action="store_true",
                             help="validate source constraints first")
    transform_p.add_argument("--audit", action="store_true",
                             help="audit the result against the program")
    transform_p.add_argument("--stats", action="store_true",
                             help="print executor/planner statistics")
    transform_p.add_argument("--trace", action="store_true",
                             help="print the EXPLAIN-ANALYZE span tree "
                                  "(per-phase and per-plan-step "
                                  "timings) for the run, and a second "
                                  "one for the --audit")
    check_p.add_argument("--data", action="append", required=True,
                         help="instance JSON (repeatable)")
    check_p.add_argument("--stats", action="store_true",
                         help="print audit planner/index statistics")
    check_p.add_argument("--json", action="store_true",
                         help="emit the violation report as JSON")
    check_p.add_argument("--trace", action="store_true",
                         help="print the EXPLAIN-ANALYZE span tree for "
                              "the audit run")
    plan_p.add_argument("--data", action="append", required=True,
                        help="source instance JSON (repeatable)")
    delta_p.add_argument("--data", action="append", required=True,
                         help="base source instance JSON (repeatable)")
    delta_p.add_argument("--delta", required=True,
                         help="delta JSON file to apply")
    delta_p.add_argument("--out", required=True,
                         help="updated target instance JSON to write")
    delta_p.add_argument("--stats", action="store_true",
                         help="print incremental propagation statistics")
    delta_p.add_argument("--json", action="store_true",
                         help="emit the whole delta report as JSON")
    serve_p.add_argument("--store", required=True,
                         help="warehouse store directory (created from "
                              "--data when absent)")
    serve_p.add_argument("--data", action="append",
                         help="source instance JSON to initialise a new "
                              "store (repeatable)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8973,
                         help="bind port, 0 for ephemeral (default 8973)")
    serve_p.add_argument("--fsync", action="store_true",
                         help="fsync every WAL append (durability over "
                              "ingest throughput)")
    serve_p.add_argument("--replica-of", metavar="URL",
                         help="run as a read replica of the leader at "
                              "URL: seed from its snapshot, tail its "
                              "/wal feed, serve reads locally and "
                              "refuse writes with 409")
    serve_p.add_argument("--poll-wait", type=float, default=5.0,
                         metavar="SECONDS",
                         help="replica long-poll window per /wal "
                              "request (default 5.0)")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    serve_p.add_argument("--slow-query-ms", type=float, default=500.0,
                         metavar="MS", dest="slow_query_ms",
                         help="log a structured slow_query event for "
                              "read requests slower than MS "
                              "(default 500)")
    serve_p.add_argument("--no-obs", action="store_true",
                         help="disable metrics collection and the "
                              "structured event log (observability is "
                              "on by default)")
    snapshot_p.add_argument("--store", required=True,
                            help="warehouse store directory")
    snapshot_p.add_argument("--data", action="append",
                            help="source instance JSON to initialise a "
                                 "new store (repeatable)")
    replay_p.add_argument("--store", required=True,
                          help="warehouse store directory")
    replay_p.add_argument("--out",
                          help="write the recovered source instance JSON")
    replay_p.add_argument("--json", action="store_true",
                          help="emit the recovery report as JSON")
    lint_p.add_argument("--source", action="append", required=True,
                        help="source schema file (repeatable)")
    lint_p.add_argument("--target",
                        help="target schema file (optional; enables "
                             "interference and key lint over target "
                             "classes)")
    lint_p.add_argument("program", help="WOL program file")
    lint_p.add_argument("--json", action="store_true",
                        help="emit diagnostics as JSON")
    lint_p.add_argument("--fail-on", dest="fail_on", default="error",
                        choices=["error", "warning", "info"],
                        help="exit 1 when a diagnostic at or above this "
                             "severity is found (default: error)")

    program_p.add_argument("program",
                           help="query-program file (text DSL)")
    program_p.add_argument("--data", action="append",
                           help="instance JSON to query (repeatable; "
                                "local mode)")
    program_p.add_argument("--url",
                           help="base URL of a running service; posts "
                                "the program to POST /program instead "
                                "of running locally")
    program_p.add_argument("--json", action="store_true",
                           help="emit the result document as JSON")
    program_p.add_argument("--ast", action="store_true",
                           help="print the canonical JSON AST and exit "
                                "(no execution)")
    program_p.add_argument("--explain", action="store_true",
                           help="include per-statement execution plans")
    program_p.add_argument("--trace", action="store_true",
                           help="print the EXPLAIN-ANALYZE span tree "
                                "(per-statement timings; with --url the "
                                "service returns it in the envelope)")

    compile_p.set_defaults(func=_cmd_compile)
    transform_p.set_defaults(func=_cmd_transform)
    check_p.set_defaults(func=_cmd_check)
    plan_p.set_defaults(func=_cmd_plan)
    delta_p.set_defaults(func=_cmd_apply_delta)
    serve_p.set_defaults(func=_cmd_serve)
    snapshot_p.set_defaults(func=_cmd_snapshot)
    replay_p.set_defaults(func=_cmd_replay)
    lint_p.set_defaults(func=_cmd_lint)
    program_p.set_defaults(func=_cmd_program)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
