"""The durable warehouse store: snapshot + WAL, recovery, compaction.

A store directory is one evolving source instance made durable::

    store/
      CURRENT.json            -> which snapshot + WAL are live
      snap-<sha256>.json      content-addressed instance snapshots
      wal.jsonl               append-only delta log (label-addressed)

Writes are deltas (:meth:`WarehouseStore.append`): validated against
the in-memory instance, encoded with durable labels, appended to the
WAL, then applied.  Reads are the in-memory ``instance`` — the store
is the system of record for the *source*; transformed targets are
derived state the service layer keeps warm.

Recovery (:meth:`WarehouseStore.open`) replays the WAL tail over the
latest snapshot: records at or below the snapshot's ``base_seq`` are
skipped (a crash between manifest flip and WAL reset leaves them
behind), a torn final record is dropped and truncated away, and any
other damage refuses loudly.  The recovered ``instance`` is all the
service layer needs: a warm session starts from it with one production
pass, exactly as a fresh run would.

Compaction (:meth:`WarehouseStore.snapshot`) writes a new snapshot at
the current sequence number — naming anonymous objects by the store's
own labels, which compaction never re-derives — atomically repoints
``CURRENT``, resets the WAL and prunes unreferenced snapshots.  Every step is
crash-ordered: interrupt it anywhere and reopening yields the same
instance.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

from ..evolution.delta import Delta, delta_to_json
from ..io.json_io import (canonical_json, dump_labels, identity_encoder,
                          schema_to_json, value_to_json)
from ..model.instance import Instance
from ..obs.collector import pauses_collector
from ..obs.events import log_event
from ..obs.metrics import LATENCY_BUCKETS, REGISTRY
from .snapshot import (CURRENT_NAME, LabelMap, load_snapshot,
                       read_current, write_current, write_snapshot)
from .wal import TornTail, WriteAheadLog

WAL_NAME = "wal.jsonl"

_COMPACTION_SECONDS = REGISTRY.histogram(
    "repro_store_compaction_seconds",
    "Wall time of one store compaction (snapshot + manifest flip + "
    "WAL reset + prune).", buckets=LATENCY_BUCKETS)
_COMPACTIONS_TOTAL = REGISTRY.counter(
    "repro_store_compactions_total", "Store compactions completed.")


class StoreError(Exception):
    """Raised on store misuse or unrecoverable on-disk damage."""


class WarehouseStore:
    """One durable source instance under append-only delta writes."""

    def __init__(self, path: str, wal: WriteAheadLog,
                 instance: Instance, seq: int, base_seq: int,
                 snapshot_file: str, labels: LabelMap,
                 recovered_torn: Optional[TornTail] = None) -> None:
        self.path = path
        self.wal = wal
        self.instance = instance
        self.seq = seq
        self.base_seq = base_seq
        self.snapshot_file = snapshot_file
        self.labels = labels
        #: Raw label-addressed WAL payloads since the live snapshot,
        #: as ``(seq, payload)`` in sequence order — the replication
        #: feed ``export_records`` serves without re-reading the log
        #: file.  Compaction *replaces* the list (never mutates it in
        #: place) so concurrent exporters keep a consistent view.
        self.payload_tail: List[Tuple[int, Any]] = []
        #: The torn final WAL record recovery dropped, if any.
        self.recovered_torn = recovered_torn
        self.appended = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def exists(path: str) -> bool:
        return os.path.exists(os.path.join(path, CURRENT_NAME))

    @classmethod
    def create(cls, path: str, instance: Instance,
               fsync: bool = False) -> "WarehouseStore":
        """Initialise a store directory with ``instance`` as snapshot 0."""
        if cls.exists(path):
            raise StoreError(f"{path} already holds a warehouse store")
        os.makedirs(path, exist_ok=True)
        # The only label derivation in a store's life: its initial
        # instance takes the labels a dump of it assigns.
        labels = LabelMap({(oid.class_name, label): oid for oid, label
                           in dump_labels(instance).items()})
        name = write_snapshot(path, instance, 0, labels)
        wal = WriteAheadLog(os.path.join(path, WAL_NAME), fsync=fsync)
        wal.reset()
        write_current(path, name, base_seq=0, wal=WAL_NAME)
        return cls(path, wal, instance, seq=0, base_seq=0,
                   snapshot_file=name, labels=labels)

    @classmethod
    @pauses_collector
    def open(cls, path: str, fsync: bool = False) -> "WarehouseStore":
        """Recover: latest snapshot + WAL tail, torn final record dropped."""
        manifest = read_current(path)
        instance, base_seq, labels = load_snapshot(
            path, manifest["snapshot"])
        wal = WriteAheadLog(os.path.join(path, manifest["wal"]),
                            fsync=fsync)
        records, torn = wal.replay()
        seq = base_seq
        for record in records:
            if record.seq <= base_seq:
                # Subsumed by the snapshot: a crash between the
                # manifest flip and the WAL reset leaves these behind.
                continue
            if record.seq != seq + 1:
                raise StoreError(
                    f"WAL gap: expected seq {seq + 1}, found "
                    f"{record.seq} — records were lost mid-log")
            instance = labels.decode(record.payload,
                                     instance).apply_to(instance)
            seq = record.seq
        if torn is not None:
            wal.truncate_at(torn.offset)
        store = cls(path, wal, instance, seq=seq, base_seq=base_seq,
                    snapshot_file=manifest["snapshot"], labels=labels,
                    recovered_torn=torn)
        store.payload_tail = [(record.seq, record.payload)
                              for record in records
                              if record.seq > base_seq]
        return store

    def close(self) -> None:
        self.wal.close()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, delta: Delta) -> int:
        """Durably apply one delta; returns its WAL sequence number.

        Validation happens *before* the WAL append — an inapplicable
        delta (unknown oid, type error, dangling reference) must never
        be acknowledged into the log, or recovery would refuse the
        whole store.
        """
        if delta.is_empty():
            return self.seq
        seq = self.seq + 1
        updated = delta.apply_to(self.instance)
        payload = delta_to_json(delta, oid_encoder=self.labels.encoder(seq))
        self.wal.append(seq, payload)
        self.instance = updated
        self.seq = seq
        self.payload_tail.append((seq, payload))
        self.appended += 1
        return seq

    def decode_delta(self, data: Dict[str, Any]) -> Delta:
        """Decode a label-addressed delta JSON against this store.

        Labels the document introduces (freshly inserted anonymous
        objects) are absorbed into the store's map, so the caller's
        chosen label stays the durable address of the new object — the
        WAL encoder reuses it instead of minting another.
        """
        return self.labels.decode(data, self.instance)

    # ------------------------------------------------------------------
    # Replication export
    # ------------------------------------------------------------------
    def export_records(self, from_seq: int,
                       limit: int) -> List[Tuple[int, Any]]:
        """Raw WAL records with ``seq >= from_seq``, at most ``limit``.

        The records are the label-addressed payloads exactly as the
        WAL holds them — what a follower replays through its own store
        to stay a deterministic copy of this one.  Records at or below
        ``base_seq`` are gone (subsumed by the live snapshot); asking
        for them returns an empty list, and the caller must reseed from
        the snapshot instead.
        """
        tail = self.payload_tail  # one coherent list even mid-compaction
        if not tail or limit <= 0:
            return []
        first = tail[0][0]
        if from_seq < first:
            return []
        start = from_seq - first
        return tail[start:start + limit]

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def snapshot(self, prune: bool = True) -> str:
        """Write a snapshot at the current state; reset the WAL.

        Crash-ordering: the new snapshot lands fully (content-addressed,
        fsynced) before ``CURRENT`` flips to it, and the WAL reset comes
        last — replay skips records the snapshot subsumed, so dying
        between any two steps loses nothing.
        """
        start = time.perf_counter()
        subsumed = self.seq - self.base_seq
        name = write_snapshot(self.path, self.instance, self.seq,
                              self.labels)
        write_current(self.path, name, base_seq=self.seq, wal=WAL_NAME)
        self.wal.reset()
        self.snapshot_file = name
        self.base_seq = self.seq
        # A fresh list, not .clear(): an exporter holding the old one
        # still sees a coherent pre-compaction tail.
        self.payload_tail = []
        if prune:
            self._prune_snapshots(keep=name)
        elapsed = time.perf_counter() - start
        _COMPACTION_SECONDS.observe(elapsed)
        _COMPACTIONS_TOTAL.inc()
        log_event("compaction", path=self.path, snapshot=name,
                  base_seq=self.seq, subsumed_records=subsumed,
                  ms=round(elapsed * 1000, 3))
        return name

    def _prune_snapshots(self, keep: str) -> None:
        for entry in os.listdir(self.path):
            if (entry.startswith("snap-") and entry.endswith(".json")
                    and entry != keep):
                try:
                    os.remove(os.path.join(self.path, entry))
                except OSError:
                    pass  # pruning is garbage collection, not integrity

    # ------------------------------------------------------------------
    # Canonical serialisation
    # ------------------------------------------------------------------
    def canonical_json(self) -> Dict[str, Any]:
        """The instance rendered with *durable* object addresses.

        :func:`repro.io.json_io.instance_to_json` labels anonymous
        objects by sorted process-local serials, so its output is only
        canonical within one process.  This rendering addresses every
        anonymous object by its store label and orders entries by that
        durable address — two stores holding the same logical state
        produce byte-identical documents no matter how many
        crash/reopen cycles minted their serials.  The differential
        recovery tests pin exactly this.
        """
        encode_oid = identity_encoder(self.labels.by_oid.get)
        objects: Dict[str, Any] = {}
        for cname in self.instance.schema.class_names():
            entries = [{"id": encode_oid(oid),
                        "value": value_to_json(self.instance.value_of(oid),
                                               encode_oid)}
                       for oid in self.instance.objects_of(cname)]
            entries.sort(key=lambda entry: canonical_json(entry["id"]))
            objects[cname] = entries
        return {"format": 1, "seq": self.seq,
                "schema": schema_to_json(self.instance.schema),
                "objects": objects}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "seq": self.seq,
            "base_seq": self.base_seq,
            "snapshot": self.snapshot_file,
            "wal_records": self.seq - self.base_seq,
            "wal_bytes": self.wal.size_bytes(),
            "appended": self.appended,
            "recovered_torn": self.recovered_torn is not None,
            "classes": self.instance.class_sizes(),
        }


__all__ = ["StoreError", "WarehouseStore", "WAL_NAME"]
