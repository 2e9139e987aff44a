"""Content-addressed instance snapshots and durable object labels.

A snapshot is the full JSON dump of one instance version
(:func:`repro.io.json_io.instance_to_json`) wrapped with the WAL
sequence number it subsumes, written to a file named by the SHA-256 of
its canonical content.  Content addressing makes snapshot writes
idempotent and tamper-evident: the store verifies the digest on load,
and two stores holding the same instance version share the same
snapshot name byte for byte.

The ``CURRENT`` manifest — the only mutably named file in a store —
points at the live snapshot and is replaced atomically (temp file +
``os.replace``), so a crash during compaction leaves either the old
generation or the new one, never a half-written pointer.

:class:`LabelMap` solves the identity problem that makes persistence
of this data model non-trivial: anonymous oids carry process-local
serials, so a store names each one by a durable label instead.  The
label contract: a label is issued once and names one object for the
store's whole life.  A new store takes the dump labels of its initial
instance (``Class#n``, :func:`repro.io.json_io.dump_labels`); a delta
adds the client's labels for the objects it inserts, or fresh WAL
labels (``Class#w<seq>.<n>``, a namespace no dump assigns) for objects
inserted without one.  Nothing derives labels again: every snapshot —
at creation and at each compaction — is written with the store's map,
so labels survive compaction and reopen, and a follower seeded from a
snapshot reads the leader's labels from it.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional, Tuple

from ..evolution.delta import Delta, delta_from_json
from ..io.json_io import (identity_encoder, instance_from_json,
                          instance_to_json)
from ..model.instance import Instance
from ..model.values import Oid

#: Store format version, bumped on any on-disk layout change.
FORMAT = 1


class SnapshotError(Exception):
    """Raised on missing or damaged snapshot files."""


class LabelMap:
    """Durable ``(class, label) <-> oid`` addressing for one store.

    Keyed oids never enter the map (their key value is already a
    durable address); anonymous oids must, because their serials die
    with the process that minted them.
    """

    def __init__(self, labels: Optional[Dict[Tuple[str, str], Oid]]
                 = None) -> None:
        self.by_label: Dict[Tuple[str, str], Oid] = dict(labels or {})
        self.by_oid: Dict[Oid, str] = {
            oid: label for (_, label), oid in self.by_label.items()}
        self._fresh = 0

    def record(self, cname: str, label: str, oid: Oid) -> None:
        self.by_label[(cname, label)] = oid
        self.by_oid[oid] = label

    def decode(self, data: Dict[str, Any], instance: Instance) -> Delta:
        """Decode a label-addressed delta against ``instance``.

        Labels the document mints (freshly inserted anonymous objects)
        join the map only when the whole document decodes.
        """
        table = dict(self.by_label)
        delta = delta_from_json(data, instance, table)
        for (cname, label), oid in table.items():
            if (cname, label) not in self.by_label:
                self.record(cname, label, oid)
        return delta

    def label_of(self, oid: Oid, seq: int) -> str:
        """The durable label for ``oid``, minting one if unseen.

        Fresh labels are namespaced by the WAL sequence number that
        introduces them (``Class#w<seq>.<n>``) and skip any label a
        client already chose — unique for the store's whole life and
        disjoint from dump-derived ``Class#<n>`` labels, so a replayed
        WAL resolves them to exactly one fresh oid each.
        """
        label = self.by_oid.get(oid)
        if label is not None:
            return label
        while True:
            self._fresh += 1
            label = f"{oid.class_name}#w{seq}.{self._fresh}"
            if (oid.class_name, label) not in self.by_label:
                self.record(oid.class_name, label, oid)
                return label

    def encoder(self, seq: int):
        """An ``oid_encoder`` for
        :func:`repro.evolution.delta.delta_to_json` that mints a label
        for every anonymous oid still without one."""
        return identity_encoder(lambda oid: self.label_of(oid, seq))


# ----------------------------------------------------------------------
# Snapshot files
# ----------------------------------------------------------------------

def _canonical_bytes(document: Dict[str, Any]) -> bytes:
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def snapshot_name(content: bytes) -> str:
    return f"snap-{hashlib.sha256(content).hexdigest()[:24]}.json"


def write_snapshot(directory: str, instance: Instance, base_seq: int,
                   labels: LabelMap) -> str:
    """Write a content-addressed snapshot; return its file name.

    Anonymous objects are named by their store ``labels``, so loading
    the snapshot gives back the same map.
    """
    document = {
        "format": FORMAT,
        "base_seq": base_seq,
        "instance": instance_to_json(
            instance, identity_encoder(labels.by_oid.get)),
    }
    content = _canonical_bytes(document)
    name = snapshot_name(content)
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    return name


def load_snapshot(directory: str, name: str
                  ) -> Tuple[Instance, int, LabelMap]:
    """Load and verify a snapshot: instance, base_seq, its labels."""
    path = os.path.join(directory, name)
    try:
        with open(path, "rb") as handle:
            content = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {name}: {exc}") from exc
    if snapshot_name(content) != name:
        raise SnapshotError(
            f"snapshot {name} fails its content check — the file was "
            f"modified after it was written")
    document = json.loads(content.decode("utf-8"))
    if document.get("format") != FORMAT:
        raise SnapshotError(
            f"snapshot {name} has format {document.get('format')!r}; "
            f"this build reads format {FORMAT}")
    labels: Dict[Tuple[str, str], Oid] = {}
    instance = instance_from_json(document["instance"], labels=labels)
    return instance, int(document["base_seq"]), LabelMap(labels)


# ----------------------------------------------------------------------
# CURRENT manifest
# ----------------------------------------------------------------------

CURRENT_NAME = "CURRENT.json"


def write_current(directory: str, snapshot: str, base_seq: int,
                  wal: str) -> None:
    """Atomically repoint the store at a snapshot generation."""
    document = {"format": FORMAT, "snapshot": snapshot,
                "base_seq": base_seq, "wal": wal}
    path = os.path.join(directory, CURRENT_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_current(directory: str) -> Dict[str, Any]:
    path = os.path.join(directory, CURRENT_NAME)
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise SnapshotError(
            f"{directory} is not a warehouse store (no "
            f"{CURRENT_NAME}): {exc}") from exc
    except ValueError as exc:
        raise SnapshotError(
            f"{directory}/{CURRENT_NAME} is unreadable: {exc}") from exc
    if document.get("format") != FORMAT:
        raise SnapshotError(
            f"store format {document.get('format')!r} unsupported "
            f"(this build reads format {FORMAT})")
    return document
