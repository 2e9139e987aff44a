"""Follower side of leader→follower WAL replication.

The warehouse store is a replicated state machine waiting to happen:
the leader serialises every write into an ordered, CRC-checked WAL,
and deltas apply deterministically — so a follower that replays the
same records over the same snapshot *is* the leader, one long-poll
behind.  This module runs that follower:

* **Seed** — fetch the leader's live snapshot by its content address
  (``GET /snapshot/<name>``, digest re-verified after transfer), lay
  it down as a local store generation, and open it.  The snapshot's
  ``base_seq`` watermark is the replication cursor's starting point.
* **Tail** — long-poll ``GET /wal?from=<applied+1>``, append each
  record to the *local* WAL (the follower is itself durable and
  restarts from its own store), and drive the decoded delta through
  the warm session's incremental engine — the IndexPool rebases per
  batch, exactly as on the leader.
* **Catch up** — when the leader compacted past the follower's cursor
  (``reset: true``), reseed from the new snapshot and swap the warm
  session's store in place under the write lock; readers never observe
  the swap mid-flight.

:class:`ReplicaSession` is a :class:`~repro.service.session.
WarehouseSession` that serves ``/query``, ``/program``, ``/check`` and
``/target`` locally but answers every write with 409
``read_only_replica`` pointing at the leader — horizontal *read*
scale-out, one writer.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib import request as urlrequest
from urllib.error import HTTPError

from ..evolution.delta import Delta, DeltaError
from ..obs.events import log_event
from ..obs.trace import current_trace_id
from ..store.snapshot import snapshot_name, write_current
from ..store.store import StoreError, WAL_NAME, WarehouseStore
from ..store.wal import WriteAheadLog
from .session import ServiceError, WarehouseSession

#: Distributed-trace id header, forwarded on leader polls so a traced
#: request that triggers follower I/O stays one trace end to end.
TRACE_HEADER = "X-Repro-Trace"


class ReplicaError(Exception):
    """Raised when the leader is unreachable or answers garbage."""


class ReplicaSession(WarehouseSession):
    """A read-only warm session kept current by replicated WAL records.

    Reads are served exactly like the leader's (same planned/columnar
    query paths over the same warm IndexPool); writes are refused with
    409 so a misdirected client learns the leader's address instead of
    forking history.
    """

    role = "replica"

    def __init__(self, morphase, store: WarehouseStore,
                 leader_url: str,
                 defaults: Optional[Dict] = None) -> None:
        super().__init__(morphase, store, defaults=defaults)
        self.leader_url = leader_url
        # Control state of the tailing loop (``catch_up`` compares
        # ``leader_seq``, ``run`` logs the up→down edge of ``connected``):
        # plain attributes, because ``--no-obs`` freezes every metric.
        self.leader_seq = 0
        self.connected = False
        counter, gauge = self.metrics.counter, self.metrics.gauge
        self._lag = gauge(
            "repro_replication_lag",
            "Leader seq at the last poll minus the locally applied seq."
        ).labels()
        self._leader_seq_gauge = gauge(
            "repro_replication_leader_seq",
            "Leader sequence number at the last poll.").labels()
        self._records = counter(
            "repro_replication_records",
            "Leader WAL records replicated into this node.").labels()
        self._polls = counter(
            "repro_replication_polls",
            "Completed /wal polls against the leader.").labels()
        self._resyncs = counter(
            "repro_replication_resyncs",
            "Snapshot-seeded catch-ups (leader compacted past us).").labels()
        self._connected_gauge = gauge(
            "repro_replication_connected",
            "1 when the last leader poll succeeded.").labels()

    # ------------------------------------------------------------------
    # Writes: refused
    # ------------------------------------------------------------------
    def _read_only(self) -> ServiceError:
        return ServiceError(
            f"this node is a read replica; send writes to the leader "
            f"at {self.leader_url}", status=409,
            code="read_only_replica",
            details={"leader": self.leader_url})

    def ingest_json(self, data: Dict[str, Any]):
        raise self._read_only()

    def ingest(self, delta):
        raise self._read_only()

    # ------------------------------------------------------------------
    # Replication apply path
    # ------------------------------------------------------------------
    def replicate(self, records: List[Dict[str, Any]]) -> int:
        """Append and apply a batch of leader WAL records, in order.

        Each record is decoded against the local store (the leader's
        durable labels resolve against the snapshot-derived label map),
        appended to the local WAL — the follower restarts from its own
        disk — and the whole batch is composed into one incremental
        apply, like a leader group-commit.  Records at or below the
        local seq are duplicate deliveries (poll overlap) and skipped;
        a gap means the feed and the cursor disagree and poisons
        nothing: the caller reseeds from the snapshot.  A record that
        fails to decode raises after the records appended before it
        are applied: they are durable, and the next poll starts past
        them.
        """
        batch: List[Tuple[int, Delta]] = []
        with self._intake:
            self._check_alive()
            try:
                for record in records:
                    seq = int(record["seq"])
                    if seq <= self.store.seq:
                        continue
                    if seq != self.store.seq + 1:
                        raise ReplicaError(
                            f"replication gap: local store is at seq "
                            f"{self.store.seq}, leader sent {seq}")
                    delta = self.store.decode_delta(record["payload"])
                    appended = self.store.append(delta)
                    if appended != seq:
                        raise ReplicaError(
                            f"leader record {seq} decoded to an empty "
                            f"delta — the feed is corrupt")
                    batch.append((seq, delta))
            finally:
                if batch:
                    self._apply_replicated(batch)
        if batch:
            self._notify_wal()  # replicas can be chained: wake our own tailers
        return len(batch)

    def _apply_replicated(self, batch: List[Tuple[int, Delta]]) -> None:
        """Apply appended records; called under the intake lock."""
        try:
            self._apply_batch(batch)
        except Exception as exc:
            # Same poisoning as the leader's group commit: the durable
            # log and the warm state disagree now, and only a restart
            # (full warm rebuild) reconciles.
            self._failure = str(exc)
            raise
        with self._cond:
            self._applied_seq = batch[-1][0]
            self._applied_gauge.set(self._applied_seq)
            self._cond.notify_all()
        self._records.inc(len(batch))
        self._note_lag()

    def replace_store(self, store: WarehouseStore) -> None:
        """Swap in a freshly seeded store (snapshot-seeded catch-up).

        The warm incremental session is rebuilt over the new store
        under the write lock, so concurrent readers see either the old
        generation or the new one — never a half-attached session.
        """
        with self._intake:
            old = self.store
            with self._state_lock.write():
                self._attach_store(store)
            old.close()
        self._resyncs.inc()
        self._note_lag()
        log_event("replica_reseed", leader=self.leader_url,
                  base_seq=store.base_seq, seq=store.seq,
                  resyncs=int(self._resyncs.value))
        self._notify_wal()

    # ------------------------------------------------------------------
    # Leader link
    # ------------------------------------------------------------------
    def polled(self, leader_seq: int) -> None:
        """Record one successful ``/wal`` poll that saw ``leader_seq``."""
        self.leader_seq = leader_seq
        self.connected = True
        self._connected_gauge.set(1)
        self._leader_seq_gauge.set(leader_seq)
        self._polls.inc()
        self._note_lag()

    def lost_leader(self) -> None:
        """Record a failed poll (the loop logs the up→down edge)."""
        self.connected = False
        self._connected_gauge.set(0)

    def _note_lag(self) -> None:
        self._lag.set(max(0, self.leader_seq - self._applied_seq))

class WalReplica:
    """Bootstrap plus tailing loop: one follower of one leader.

    Usage::

        replica = WalReplica(morphase, "http://leader:8973", "replica/")
        session = replica.start()          # seed + background tailing
        server = make_server(session, port=8974)

    ``start()`` runs :meth:`step` on a daemon thread; tests and the
    benchmarks can instead call :meth:`bootstrap` + :meth:`step`
    directly for deterministic, single-threaded replication.
    """

    def __init__(self, morphase, leader_url: str, store_dir: str,
                 defaults: Optional[Dict] = None,
                 poll_wait: float = 5.0, poll_limit: int = 500,
                 timeout: float = 60.0, retry_seconds: float = 0.5,
                 fsync: bool = False) -> None:
        self.morphase = morphase
        self.leader_url = leader_url.rstrip("/")
        self.store_dir = store_dir
        self.defaults = defaults
        self.poll_wait = poll_wait
        self.poll_limit = poll_limit
        self.timeout = timeout
        self.retry_seconds = retry_seconds
        self.fsync = fsync
        self.session: Optional[ReplicaSession] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Leader I/O
    # ------------------------------------------------------------------
    def _fetch(self, path: str) -> Any:
        """GET one leader endpoint; unwrap the envelope or raise."""
        url = self.leader_url + path
        headers: Dict[str, str] = {}
        trace_id = current_trace_id()
        if trace_id is not None:
            headers[TRACE_HEADER] = trace_id
        req = urlrequest.Request(url, headers=headers)
        try:
            with urlrequest.urlopen(req, timeout=self.timeout) as resp:
                document = json.loads(resp.read().decode("utf-8"))
        except HTTPError as exc:
            try:
                error = json.loads(exc.read().decode("utf-8")
                                   ).get("error", {})
            except (ValueError, AttributeError):
                error = {}
            raise ReplicaError(
                f"leader answered HTTP {exc.code} for {path}: "
                f"{error.get('message', exc.reason)}") from exc
        except (OSError, ValueError) as exc:
            raise ReplicaError(
                f"cannot reach leader at {url}: {exc}") from exc
        if not (isinstance(document, dict) and document.get("ok")):
            raise ReplicaError(
                f"leader answered a failure envelope for {path}: "
                f"{document!r}")
        return document["result"]

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def _seed_store(self) -> WarehouseStore:
        """Fetch the leader's live snapshot; lay down a local store.

        The snapshot is content-addressed: its digest is re-verified
        after the transfer, so a truncated or tampered document never
        becomes a store generation.  Write order is snapshot file →
        WAL reset → ``CURRENT`` flip: dying in between leaves either
        the old generation (stale but coherent — the next tail poll
        reseeds) or the new one.
        """
        meta = self._fetch("/wal?from=1&limit=0&wait=0")
        name = meta["snapshot"]
        document = self._fetch(f"/snapshot/{name}")
        content = json.dumps(document, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        if snapshot_name(content) != name:
            raise ReplicaError(
                f"snapshot {name} failed its content check after "
                f"transfer — refusing to seed from it")
        os.makedirs(self.store_dir, exist_ok=True)
        path = os.path.join(self.store_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        WriteAheadLog(os.path.join(self.store_dir, WAL_NAME)).reset()
        # The watermark comes from the snapshot document itself, not
        # the /wal poll — the leader may have compacted between the
        # two fetches, and the document is the self-consistent truth
        # about which sequence it subsumes.
        write_current(self.store_dir, name,
                      base_seq=int(document["base_seq"]), wal=WAL_NAME)
        return self.morphase.open_store(self.store_dir,
                                        fsync=self.fsync)

    def bootstrap(self) -> ReplicaSession:
        """Open (or seed) the local store and build the warm session.

        A store left by a previous run is reused — the follower
        resumes tailing from its own durable position instead of
        re-downloading a snapshot it already holds; if the leader has
        compacted past that position in the meantime, the first
        :meth:`step` reseeds.
        """
        if self.session is not None:
            return self.session
        if WarehouseStore.exists(self.store_dir):
            store = self.morphase.open_store(self.store_dir,
                                             fsync=self.fsync)
        else:
            store = self._seed_store()
        self.session = ReplicaSession(self.morphase, store,
                                      leader_url=self.leader_url,
                                      defaults=self.defaults)
        return self.session

    # ------------------------------------------------------------------
    # Tailing
    # ------------------------------------------------------------------
    def step(self, wait: Optional[float] = None) -> int:
        """One poll-and-apply round; returns records applied.

        ``wait`` overrides the long-poll window (0 makes the call
        non-blocking — the test and benchmark mode).
        """
        session = self.bootstrap()
        wait = self.poll_wait if wait is None else wait
        from_seq = session.store.seq + 1
        response = self._fetch(
            f"/wal?from={from_seq}&limit={self.poll_limit}"
            f"&wait={wait:g}")
        session.polled(int(response["seq"]))
        if response.get("reset"):
            # The leader compacted past our cursor: the records we
            # need no longer exist anywhere — catch up from the
            # snapshot that subsumed them.
            session.replace_store(self._seed_store())
            return 0
        if response["records"]:
            return session.replicate(response["records"])
        return 0

    def catch_up(self, deadline_seconds: float = 60.0) -> int:
        """Step until the local seq reaches the leader's (tests/CLI).

        Returns the converged sequence number; raises
        :class:`ReplicaError` when the deadline passes first.
        """
        session = self.bootstrap()
        deadline = time.monotonic() + deadline_seconds
        while True:
            self.step(wait=0.0)
            if session.store.seq >= session.leader_seq:
                return session.store.seq
            if time.monotonic() > deadline:
                raise ReplicaError(
                    f"replica did not catch up within "
                    f"{deadline_seconds}s (local seq "
                    f"{session.store.seq}, leader "
                    f"{session.leader_seq})")

    def run(self) -> None:
        """The tailing loop body (runs on the :meth:`start` thread)."""
        while not self._stop.is_set():
            try:
                self.step()
            except (ReplicaError, ServiceError, StoreError, DeltaError,
                    OSError) as exc:
                if self.session is not None:
                    if self.session.connected:
                        # Log the edge (up → down), not every retry —
                        # an unreachable leader would otherwise flood
                        # the event log at the retry cadence.
                        log_event("replica_outage",
                                  leader=self.leader_url,
                                  error=str(exc))
                    self.session.lost_leader()
                self._stop.wait(self.retry_seconds)

    def start(self) -> ReplicaSession:
        """Bootstrap, then tail the leader on a daemon thread."""
        session = self.bootstrap()
        self._thread = threading.Thread(target=self.run, daemon=True,
                                        name="wal-replica")
        self._thread.start()
        return session

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            # The thread may be parked in a leader-side long poll; the
            # join bound covers one full poll plus slack.
            self._thread.join(timeout=self.poll_wait
                              + self.timeout + 5.0)
            self._thread = None

    def close(self) -> None:
        self.stop()
        if self.session is not None:
            self.session.close()


__all__ = ["ReplicaError", "ReplicaSession", "WalReplica"]
