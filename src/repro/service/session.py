"""The warm warehouse session: one compiled program, served many times.

:class:`WarehouseSession` ties a :class:`~repro.store.WarehouseStore`
to a :class:`~repro.morphase.system.Morphase` and keeps everything a
request would otherwise pay for *warm* across requests: the compiled
normal form, the planned join orders, the shared index pool and the
one incremental session over the source, which maintains both the
target (with its per-clause effect counts) and the live violation set
of the program's source constraints.

Construction rebuilds warmth from durable state in one production pass
over the instance the store recovered (snapshot plus WAL tail): a
session's state after any deltas equals a fresh run over the same
source, so no recovered delta is propagated twice.

Writes group-commit: every ingested delta is individually durable (WAL
append first), but a burst of deltas queued while a batch is applying
is composed (:func:`repro.evolution.delta.compose_deltas`) and applied
as *one* incremental step — callers block only until the batch holding
their delta lands.  Reads (query/check/target) share a
writer-preferring read-write lock, so they run concurrently with each
other and never observe a half-applied batch.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import reduce
from typing import Any, Dict, List, Optional, Tuple

from ..evolution.delta import Delta, compose_deltas
from ..io.json_io import (InstanceText, instance_to_json, keyed_oid_encoder,
                          value_to_json)
from ..lang.parser import ParseError
from ..obs.metrics import (BATCH_BUCKETS, LATENCY_BUCKETS, REGISTRY,
                           MetricsRegistry)
from ..obs.trace import span
from ..program import (ProgramParseError, ProgramValidationError,
                       QueryProgram, ResultSet, compile_program,
                       parse_program_text, run_compiled)
from ..query.query import Query, QueryError
from ..store.store import WarehouseStore
from .locks import ReadWriteLock

_TARGET_ENCODE_TOTAL = REGISTRY.counter(
    "repro_target_encode_total",
    "GET /target reads answered from the encoded text unchanged (hit), "
    "after re-encoding the objects the batches since the last read "
    "changed (patch), or by encoding every object (build: the first "
    "read after a session start or a replica reseed).", ("outcome",))
_TARGET_ENTRIES_ENCODED = REGISTRY.counter(
    "repro_target_entries_encoded_total",
    "Target objects GET /target encoded (one entry each: every object "
    "on a build, the changed ones on a patch).").labels()


class ServiceError(Exception):
    """Raised for session misuse or a spent (poisoned) session.

    ``status`` is the HTTP status the front end should map this to:
    400 for malformed requests, 404 for unknown names, 422 for inputs
    that parsed but failed validation, 503 for a spent session, 500
    for a server-side apply failure observed by a waiting writer.
    ``code`` optionally pins the machine-readable envelope error code
    (the server derives a default from ``status`` otherwise) and
    ``details`` rides along in the error envelope (e.g. a diagnostics
    report).
    """

    def __init__(self, message: str, status: int = 400,
                 code: Optional[str] = None,
                 details: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.details = details


@dataclass
class IngestResult:
    """What one acknowledged delta ingestion observed."""

    seq: int                  #: WAL sequence number of this delta.
    applied_seq: int          #: highest seq applied when we returned.
    batch_size: int           #: deltas in the batch that landed ours.
    violations: int           #: live violation count after the batch.


#: Longest a ``/wal`` long-poll may park one handler thread, whatever
#: the client asked for.
MAX_WAL_WAIT = 30.0

#: Most records one ``/wal`` response carries (a follower just polls
#: again — bounding the batch bounds response size and lock-free list
#: slicing).
MAX_WAL_BATCH = 1000


class WarehouseSession:
    """A long-lived, thread-safe Morphase serving session."""

    #: The ``repro_session_role`` label this node reports
    #: (:class:`~repro.service.replica.ReplicaSession` overrides).
    role = "leader"

    def __init__(self, morphase, store: WarehouseStore,
                 defaults: Optional[Dict] = None) -> None:
        self.morphase = morphase
        self._defaults = defaults
        # This node's own report, rendered by ``GET /metrics`` after the
        # process registry: a process hosting a leader and a follower
        # (tests, demos) must not blend their counts.  Each child is
        # resolved once, here, so a bump is one locked add.
        self.metrics = MetricsRegistry()
        counter, gauge = self.metrics.counter, self.metrics.gauge
        gauge("repro_session_role", "1 for the role this node serves.",
              ("role",)).labels(self.role).set(1)
        gauge("repro_session_start_time_seconds",
              "Unix time the serving session was opened.").set(time.time())
        self._applied_gauge = gauge(
            "repro_session_applied_seq",
            "Highest WAL sequence applied to the warm state.").labels()
        self._rebuild_seconds = gauge(
            "repro_session_rebuild_seconds",
            "Wall time of the last warm rebuild (open or reseed).").labels()
        self._replayed_on_open = gauge(
            "repro_session_replayed_on_open",
            "WAL records past the snapshot at the last warm rebuild."
        ).labels()
        self._ingested = counter(
            "repro_session_ingested",
            "Deltas ingested by the serving session.").labels()
        self._batches = counter(
            "repro_session_batches", "Group-commit batches applied.").labels()
        self._queries = counter(
            "repro_session_queries",
            "Read requests served (target/query/program).").labels()
        self._body_queries = counter(
            "repro_session_body_queries",
            "Conjunctive-body queries served (GET /query).").labels()
        self._programs = counter(
            "repro_session_programs", "Query programs served.").labels()
        self._checks = counter(
            "repro_session_checks", "Constraint checks served.").labels()
        self._lints = counter(
            "repro_session_lints", "Lint requests served.").labels()
        self._snapshots = counter(
            "repro_session_snapshots",
            "Compactions requested through this session.").labels()
        self._batch_size = self.metrics.histogram(
            "repro_commit_batch_size",
            "Deltas composed into one group-commit batch.",
            buckets=BATCH_BUCKETS).labels()
        self._apply_seconds = self.metrics.histogram(
            "repro_commit_apply_seconds",
            "Wall time applying one composed batch through the incremental "
            "engine (under the write lock).", buckets=LATENCY_BUCKETS
        ).labels()

        self._state_lock = ReadWriteLock()
        self._intake = threading.Lock()     # serialises WAL appends
        self._cond = threading.Condition()  # batch hand-off
        # /wal long-poll hand-off: notified whenever the store's
        # sequence number advances (ingest, replication) or the store
        # itself is swapped (replica reseed).
        self._wal_cond = threading.Condition()
        self._pending: List[Tuple[int, Delta]] = []
        self._applying = False
        self._failure: Optional[str] = None
        self._attach_store(store)

    def _attach_store(self, store: WarehouseStore) -> None:
        """Warm-rebuild this session's derived state over ``store``.

        The one incremental session (target and violation set) starts
        from ``store.instance`` (snapshot plus WAL tail, as recovery
        rebuilt it), raising what ``Morphase.transform`` over it raises.
        Called from ``__init__`` and again (under the write lock) when a
        replica reseeds from a leader snapshot.
        """
        start = time.perf_counter()
        self.store = store
        self.transform = self.morphase.begin_incremental(
            store.instance, defaults=self._defaults)
        self._replayed_on_open.set(store.seq - store.base_seq)
        self._rebuild_seconds.set(time.perf_counter() - start)
        self._applied_seq = store.seq
        self._applied_gauge.set(store.seq)
        # The /target text, one encoded entry per target object: a
        # batch marks the objects it changed, the next read re-encodes
        # them.  Reads render it under the read lock, so they take
        # turns on this mutex.
        self._target_text = InstanceText(keyed_oid_encoder)
        self._target_text_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def ingest_json(self, data: Dict[str, Any]) -> IngestResult:
        """Decode a label-addressed delta document and ingest it."""
        with self._intake:
            self._check_alive()
            with span("decode-delta"):
                delta = self.store.decode_delta(data)
            with span("wal-append") as append_span:
                seq = self.store.append(delta)
                append_span.set(seq=seq)
            if not delta.is_empty():
                with self._cond:
                    self._pending.append((seq, delta))
        self._notify_wal()
        return self._await_applied(seq)

    def ingest(self, delta: Delta) -> IngestResult:
        """Durably ingest one delta (decoded form)."""
        with self._intake:
            self._check_alive()
            seq = self.store.append(delta)
            if not delta.is_empty():
                with self._cond:
                    self._pending.append((seq, delta))
        self._notify_wal()
        return self._await_applied(seq)

    def _notify_wal(self) -> None:
        """Wake /wal long-polls: the durable sequence advanced."""
        with self._wal_cond:
            self._wal_cond.notify_all()

    @property
    def spent(self) -> Optional[str]:
        """Why the session can no longer apply writes (None = healthy)."""
        return self._failure

    def _check_alive(self) -> None:
        if self._failure is not None:
            raise ServiceError(
                f"session is spent ({self._failure}); restart the "
                f"service to rebuild from the store", status=503)

    def _await_applied(self, seq: int) -> IngestResult:
        """Group commit: one thread applies the whole queued burst."""
        batch_size = 0
        with self._cond:
            while self._applied_seq < seq:
                if self._failure is not None:
                    raise ServiceError(
                        f"delta batch failed to apply: {self._failure}",
                        status=500)
                if self._applying or not self._pending:
                    self._cond.wait(timeout=0.5)
                    continue
                batch = self._pending
                self._pending = []
                self._applying = True
                self._cond.release()
                try:
                    self._apply_batch(batch)
                except Exception as exc:
                    self._cond.acquire()
                    self._applying = False
                    self._failure = str(exc)
                    self._cond.notify_all()
                    raise
                self._cond.acquire()
                self._applying = False
                self._applied_seq = batch[-1][0]
                self._applied_gauge.set(self._applied_seq)
                batch_size = len(batch)
                self._cond.notify_all()
        with self._state_lock.read():
            violations = len(self.transform.violations())
        return IngestResult(seq=seq, applied_seq=self._applied_seq,
                            batch_size=batch_size,
                            violations=violations)

    def _apply_batch(self, batch: List[Tuple[int, Delta]]) -> None:
        composed = reduce(compose_deltas,
                          (delta for _seq, delta in batch))
        start = time.perf_counter()
        with span("commit", batch=len(batch),
                  seq=batch[-1][0]) as commit_span, \
                self._state_lock.write():
            previous = self.transform.target
            result = self.transform.apply_delta(composed)
            self._target_text.advance(previous, result.target,
                                      result.changed)
            commit_span.set(
                target_changed=len(result.changed),
                target_indexes_maintained=(
                    result.stats.target_indexes_maintained),
                target_indexes_dropped=result.stats.target_indexes_dropped)
        self._apply_seconds.observe(time.perf_counter() - start)
        self._batch_size.observe(len(batch))
        self._batches.inc()
        self._ingested.inc(len(batch))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def target(self):
        return self.transform.target

    @property
    def applied_seq(self) -> int:
        """Highest sequence number applied to the warm state.

        The monotonic-read watermark: a response carrying this value in
        ``X-Repro-Seq`` promises every delta at or below it is visible.
        """
        return self._applied_seq

    # ------------------------------------------------------------------
    # Replication feed
    # ------------------------------------------------------------------
    def wal_records_from(self, from_seq: int, limit: int = 500,
                         wait: float = 0.0) -> Dict[str, Any]:
        """Serve intact WAL records for ``GET /wal?from=<seq>``.

        Returns the envelope result document: ``records`` (at most
        ``limit`` of ``{"seq", "payload"}``, starting at ``from_seq``),
        the server's current ``seq``/``base_seq``/``snapshot``, and
        ``reset`` — true when ``from_seq`` was compacted away, telling
        the follower to reseed from ``GET /snapshot/<snapshot>``.

        With ``wait > 0`` and no record at ``from_seq`` yet, the call
        long-polls (bounded by :data:`MAX_WAL_WAIT`) until an append
        lands or the wait expires — an idle follower then holds one
        cheap parked request instead of hot-polling.
        """
        if from_seq < 1:
            raise ServiceError(
                "'from' must be a sequence number >= 1")
        if limit < 0:
            raise ServiceError("'limit' must be >= 0")
        if wait < 0:
            raise ServiceError("'wait' must be >= 0 seconds")
        limit = min(limit, MAX_WAL_BATCH)
        deadline = time.monotonic() + min(wait, MAX_WAL_WAIT)
        if limit:
            with self._wal_cond:
                # Checking under the condition closes the lost-wakeup
                # window: appenders notify under the same lock.  A
                # compacted-away ``from_seq`` stops the wait — the
                # answer (reseed) is already known.
                while (self.store.seq < from_seq
                       and from_seq > self.store.base_seq):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._wal_cond.wait(timeout=min(remaining, 1.0))
        store = self.store  # a replica reseed may swap the store
        if from_seq <= store.base_seq:
            return {"from": from_seq, "reset": True, "records": [],
                    "seq": store.seq, "base_seq": store.base_seq,
                    "snapshot": store.snapshot_file}
        records = store.export_records(from_seq, limit) if limit else []
        return {"from": from_seq, "reset": False,
                "records": [{"seq": seq, "payload": payload}
                            for seq, payload in records],
                "seq": store.seq, "base_seq": store.base_seq,
                "snapshot": store.snapshot_file}

    def target_json(self) -> Dict[str, Any]:
        """The target as an interchange document, dumped afresh on
        every call (the reference :meth:`target_json_bytes` is tested
        against)."""
        with self._state_lock.read():
            self._queries.inc()
            return instance_to_json(self.transform.target)

    def target_json_bytes(self) -> bytes:
        """:meth:`target_json` as canonical JSON text: the objects the
        batches since the last read changed are re-encoded, the rest
        are reused."""
        with self._state_lock.read():
            self._queries.inc()
            with self._target_text_lock:
                text, outcome, encoded = self._target_text.render(
                    self.transform.target)
        _TARGET_ENCODE_TOTAL.labels(outcome).inc()
        if encoded:
            _TARGET_ENTRIES_ENCODED.inc(encoded)
        return text

    def _warm_query_state(self):
        """The IndexPool over the target, for a read under the read lock.

        It is the incremental session's own target pool: every
        ``apply_delta`` rebases it in place, so its indexes amortise
        across every ``/query?body=`` and ``/program`` request and
        across batches, and a read between a batch and the applied-seq
        advance (or after a direct ``apply_delta``) already probes the
        new target.
        """
        return self.transform.target_pool

    def query_body_json(self, body: str,
                        project: Optional[str] = None) -> Dict[str, Any]:
        """Run a WOL conjunctive body against the warm target.

        ``body`` is the atom list of :meth:`repro.query.Query.parse`;
        ``project`` an optional comma-separated projection.  Rows come
        back JSON-encoded with dump oid labels, duplicate-free, in
        canonical (sorted JSON) order — the same row semantics as one
        ``query`` statement of a program.
        """
        text = f"{project} | {body}" if project else body
        with self._state_lock.read():
            self._queries.inc()
            self._body_queries.inc()
            target = self.transform.target
            try:
                with span("parse"):
                    parsed = Query.parse(
                        text, classes=target.schema.class_names())
                pool = self._warm_query_state()
                columns = parsed.projection or parsed.variables()
                with span("execute") as execute_span:
                    rows = ResultSet.from_rows(tuple(columns), (
                        {name: value_to_json(value, keyed_oid_encoder)
                         for name, value in row.items()}
                        for row in parsed.run_planned(target,
                                                      pool=pool))).rows
                    execute_span.set(rows=len(rows))
            except QueryError as exc:
                # Unparsable: 400.  Unsafe, or admits no join order: 422.
                parse_failure = isinstance(exc.__cause__, ParseError)
                raise ServiceError(
                    str(exc),
                    status=400 if parse_failure else 422,
                    code="parse_error" if parse_failure
                    else "validation_failed") from exc
        return {"body": body, "columns": list(columns),
                "count": len(rows), "rows": list(rows)}

    def program_json(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Compile and run a query program against the warm target.

        ``document`` carries the program as ``{"text": "<DSL>"}`` or
        ``{"ast": {<canonical JSON AST>}}`` (exactly one), plus
        optional ``"explain": true``.
        Program parse failures surface as 400, validation failures as
        422 with the WOL5xx diagnostics in the error details.
        """
        text = document.get("text")
        ast = document.get("ast")
        if (text is None) == (ast is None):
            raise ServiceError(
                "the request must carry exactly one of 'text' (DSL "
                "source) or 'ast' (canonical JSON AST)")
        explain = document.get("explain", False)
        if not isinstance(explain, bool):
            raise ServiceError("'explain' must be a boolean")
        unknown = set(document) - {"text", "ast", "explain"}
        if unknown:
            raise ServiceError(
                f"unknown request field(s): {', '.join(sorted(unknown))}")
        try:
            if text is not None:
                if not isinstance(text, str):
                    raise ServiceError("'text' must be a string")
                program = parse_program_text(text)
            else:
                program = QueryProgram.from_json(ast)
        except ProgramParseError as exc:
            raise ServiceError(str(exc), status=400,
                               code="parse_error") from exc

        with self._state_lock.read():
            self._queries.inc()
            self._programs.inc()
            target = self.transform.target
            pool = self._warm_query_state()
            with span("compile"):
                try:
                    compiled = compile_program(program, target,
                                               pool=pool)
                except ProgramValidationError as exc:
                    raise ServiceError(
                        str(exc), status=422, code="validation_failed",
                        details={"diagnostics":
                                 exc.report.to_json()}) from exc
            outcome = run_compiled(compiled, target,
                                   oid_encoder=keyed_oid_encoder)
        response = outcome.to_json()
        if compiled.report.diagnostics:
            response["diagnostics"] = compiled.report.to_json()
        if explain:
            response["explain"] = compiled.explain()
        return response

    def check_json(self) -> Dict[str, Any]:
        with self._state_lock.read():
            self._checks.inc()
            violations = self.transform.violations()
        return {"ok": not violations,
                "count": len(violations),
                "violations": [str(v) for v in violations]}

    def lint_json(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Statically analyze a WOL program against this session's schemas.

        ``document`` carries ``{"program": "<WOL text>"}`` — typically a
        candidate program an operator wants validated against the live
        schemas before deploying it.  Without a ``program`` field the
        session's *own* program is analyzed (its preflight report).
        Returns the :class:`~repro.analysis.DiagnosticReport` JSON; the
        front end maps ``ok: false`` (error diagnostics) to HTTP 400.
        """
        self._lints.inc()
        text = document.get("program")
        if text is None:
            return self.morphase.preflight_report().to_json()
        if not isinstance(text, str):
            raise ServiceError("'program' must be a WOL program string")
        from ..analysis import analyze_text
        report = analyze_text(text, self.morphase.source_schemas,
                              self.morphase.target_schema)
        return report.to_json()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Compact the store at the current sequence number."""
        with self._intake:
            with self._cond:
                while (self._applied_seq < self.store.seq
                       and self._failure is None):
                    self._cond.wait(timeout=0.5)
            name = self.store.snapshot()
            self._snapshots.inc()
            return {"snapshot": name, "base_seq": self.store.base_seq}

    def close(self) -> None:
        self.store.close()
