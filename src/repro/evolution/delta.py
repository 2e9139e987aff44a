"""First-class instance deltas: insert/update/delete of objects, per class.

The paper's closing vision (Section 6) puts Morphase in front of
*evolving* databases: transformation programs are compiled once and run
"many times" as the sources change.  A :class:`Delta` is the unit of
change between two versions of one instance — per class, the objects
inserted, the objects deleted, and the objects whose stored value was
updated in place (same identity, new value).

Deltas drive the incremental execution subsystem
(:mod:`repro.engine.incremental`): instead of re-running a whole
transformation or constraint audit after every source edit, the engine
seeds its joins from the delta and patches the previous result.

Deltas are plain data with a JSON interchange form, an applicator
producing the updated :class:`~repro.model.instance.Instance`, an
inverter (for undo), and a differ (:func:`delta_between`) recovering the
delta between two instance versions — the oracle used by the
differential tests.  The interchange form names objects through the
identity codec of :mod:`repro.io.json_io` (keys, labels, serials); this
module only lays out the ``inserts`` / ``updates`` / ``deletes`` groups
around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from ..io.json_io import (JsonIoError, dump_labels, identity_decoder,
                          value_from_json, value_to_json)
from ..model.instance import Instance
from ..model.values import Oid, Value, ValueError_, check_value, oids_in


class DeltaError(Exception):
    """Raised for malformed deltas or deltas inconsistent with an instance."""


def _freeze_values(changes: Mapping[str, Mapping[Oid, Value]]
                   ) -> Dict[str, Dict[Oid, Value]]:
    return {cname: dict(objs) for cname, objs in changes.items() if objs}


@dataclass(frozen=True)
class Delta:
    """A batch of object-level changes against one instance version.

    ``inserts`` and ``updates`` map class name -> oid -> (new) value;
    ``deletes`` maps class name -> the deleted oids.  A class appears
    only when it has changes; an oid may appear in at most one of the
    three groups (an insert-then-delete within one batch should cancel
    out *before* the delta is built).
    """

    inserts: Mapping[str, Mapping[Oid, Value]] = field(default_factory=dict)
    deletes: Mapping[str, Tuple[Oid, ...]] = field(default_factory=dict)
    updates: Mapping[str, Mapping[Oid, Value]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inserts", _freeze_values(self.inserts))
        object.__setattr__(self, "updates", _freeze_values(self.updates))
        deletes = {cname: tuple(oids) for cname, oids in self.deletes.items()
                   if oids}
        object.__setattr__(self, "deletes", deletes)
        for group_name, group in (("inserts", self.inserts),
                                  ("updates", self.updates)):
            for cname, objs in group.items():
                for oid in objs:
                    if oid.class_name != cname:
                        raise DeltaError(
                            f"{group_name}: object {oid} filed under class "
                            f"{cname}")
        for cname, oids in self.deletes.items():
            for oid in oids:
                if oid.class_name != cname:
                    raise DeltaError(
                        f"deletes: object {oid} filed under class {cname}")
            if len(set(oids)) != len(oids):
                raise DeltaError(f"deletes: duplicate oids for {cname}")
        seen: Dict[Oid, str] = {}
        for group_name, oids in (("inserts", self._group_oids(self.inserts)),
                                 ("deletes", self._delete_oids()),
                                 ("updates", self._group_oids(self.updates))):
            for oid in oids:
                if oid in seen:
                    raise DeltaError(
                        f"object {oid} appears in both {seen[oid]} and "
                        f"{group_name}; normalise the batch first")
                seen[oid] = group_name

    @staticmethod
    def _group_oids(group: Mapping[str, Mapping[Oid, Value]]
                    ) -> Iterator[Oid]:
        for objs in group.values():
            yield from objs

    def _delete_oids(self) -> Iterator[Oid]:
        for oids in self.deletes.values():
            yield from oids

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return not (self.inserts or self.deletes or self.updates)

    def size(self) -> int:
        """Total number of changed objects."""
        return (sum(len(objs) for objs in self.inserts.values())
                + sum(len(oids) for oids in self.deletes.values())
                + sum(len(objs) for objs in self.updates.values()))

    def classes(self) -> frozenset:
        """Every class touched by any change."""
        return frozenset(self.inserts) | frozenset(self.deletes) \
            | frozenset(self.updates)

    def removed(self, cname: str) -> Tuple[Oid, ...]:
        """Oids whose *old* value leaves the instance (deletes+updates)."""
        return (tuple(self.deletes.get(cname, ()))
                + tuple(self.updates.get(cname, {})))

    def added(self, cname: str) -> Tuple[Oid, ...]:
        """Oids whose *new* value enters the instance (inserts+updates)."""
        return (tuple(self.inserts.get(cname, {}))
                + tuple(self.updates.get(cname, {})))

    def removed_by_class(self) -> Dict[str, Tuple[Oid, ...]]:
        return {cname: self.removed(cname)
                for cname in self.classes() if self.removed(cname)}

    def added_by_class(self) -> Dict[str, Tuple[Oid, ...]]:
        return {cname: self.added(cname)
                for cname in self.classes() if self.added(cname)}

    def summary(self) -> str:
        return (f"delta: {sum(len(o) for o in self.inserts.values())} "
                f"insert(s), "
                f"{sum(len(o) for o in self.updates.values())} update(s), "
                f"{sum(len(o) for o in self.deletes.values())} delete(s) "
                f"over {len(self.classes())} class(es)")

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply_to(self, instance: Instance,
                 validate_changed: bool = True) -> Instance:
        """The updated instance this delta produces from ``instance``.

        Inserted objects must be new, deleted and updated objects must
        exist — a delta is a change against one specific version, and a
        mismatch means it is being applied to the wrong one.  With
        ``validate_changed`` every *changed* value is type-checked and
        its references resolved against the updated instance; unchanged
        objects are not re-validated (that is the point of deltas).
        """
        valuations: Dict[str, Dict[Oid, Value]] = {
            cname: dict(objs) for cname, objs in instance.valuations.items()}
        for cname in self.classes():
            if cname not in valuations:
                raise DeltaError(
                    f"delta touches class {cname!r}, absent from schema "
                    f"{instance.schema.name!r}")
        for cname, oids in self.deletes.items():
            store = valuations[cname]
            for oid in oids:
                if oid not in store:
                    raise DeltaError(f"cannot delete {oid}: not in instance")
                del store[oid]
        for cname, objs in self.updates.items():
            store = valuations[cname]
            for oid, value in objs.items():
                if oid not in store:
                    raise DeltaError(f"cannot update {oid}: not in instance")
                store[oid] = value
        for cname, objs in self.inserts.items():
            store = valuations[cname]
            for oid, value in objs.items():
                if oid in store:
                    raise DeltaError(
                        f"cannot insert {oid}: already in instance")
                store[oid] = value
        updated = Instance(instance.schema, valuations)
        if validate_changed:
            for cname in self.classes():
                ctype = instance.schema.class_type(cname)
                for oid in self.added(cname):
                    value = updated.value_of(oid)
                    try:
                        check_value(value, ctype)
                    except ValueError_ as exc:
                        raise DeltaError(
                            f"changed object {oid}: {exc}") from exc
                    for ref in oids_in(value):
                        if not updated.has_object(ref):
                            raise DeltaError(
                                f"changed object {oid} references {ref}, "
                                f"which is not in the updated instance")
        return updated

    def invert(self, instance: Instance) -> "Delta":
        """The delta undoing this one, relative to the *pre*-image.

        ``delta.apply_to(i)`` followed by
        ``delta.invert(i).apply_to(...)`` restores ``i``.
        """
        inserts: Dict[str, Dict[Oid, Value]] = {}
        updates: Dict[str, Dict[Oid, Value]] = {}
        deletes: Dict[str, Tuple[Oid, ...]] = {}
        for cname, oids in self.deletes.items():
            inserts[cname] = {oid: instance.value_of(oid) for oid in oids}
        for cname, objs in self.updates.items():
            updates[cname] = {oid: instance.value_of(oid) for oid in objs}
        for cname, objs in self.inserts.items():
            deletes[cname] = tuple(objs)
        return Delta(inserts=inserts, deletes=deletes, updates=updates)


def delta_between(old: Instance, new: Instance) -> Delta:
    """The delta turning ``old`` into ``new`` (same schema).

    The differential oracle: incremental engines must agree with a full
    recompute over ``delta_between(old, new).apply_to(old)``.
    """
    if old.schema.class_names() != new.schema.class_names():
        raise DeltaError(
            f"cannot diff instances of different schemas "
            f"({old.schema.name!r} vs {new.schema.name!r})")
    inserts: Dict[str, Dict[Oid, Value]] = {}
    updates: Dict[str, Dict[Oid, Value]] = {}
    deletes: Dict[str, Tuple[Oid, ...]] = {}
    for cname in old.schema.class_names():
        before = old.valuations[cname]
        after = new.valuations[cname]
        gone = tuple(oid for oid in before if oid not in after)
        if gone:
            deletes[cname] = gone
        fresh = {oid: value for oid, value in after.items()
                 if oid not in before}
        if fresh:
            inserts[cname] = fresh
        changed = {oid: value for oid, value in after.items()
                   if oid in before and before[oid] != value}
        if changed:
            updates[cname] = changed
    return Delta(inserts=inserts, deletes=deletes, updates=updates)


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------

def delta_to_json(delta: Delta, oid_encoder=None) -> Dict[str, Any]:
    """Encode a delta (keyed oids round-trip structurally).

    ``oid_encoder`` optionally replaces the default identity encoding
    (see :func:`repro.io.json_io.identity_encoder`) — the durable store
    passes its label map's encoder to address anonymous oids by label
    instead of by process-local serial, so WAL records survive a
    restart.
    """
    def encode_group(group: Mapping[str, Mapping[Oid, Value]]
                     ) -> Dict[str, Any]:
        return {cname: [{"id": value_to_json(oid, oid_encoder),
                         "value": value_to_json(value, oid_encoder)}
                        for oid, value in sorted(objs.items(),
                                                 key=lambda item:
                                                 str(item[0]))]
                for cname, objs in sorted(group.items())}

    return {
        "inserts": encode_group(delta.inserts),
        "updates": encode_group(delta.updates),
        "deletes": {cname: [value_to_json(oid, oid_encoder)
                            for oid in sorted(oids, key=str)]
                    for cname, oids in sorted(delta.deletes.items())},
    }


def delta_from_json(data: Mapping[str, Any],
                    instance: Optional[Instance] = None,
                    labels: Optional[Dict[Tuple[str, str], Oid]] = None
                    ) -> Delta:
    """Decode a delta produced by :func:`delta_to_json`.

    Anonymous objects may be addressed by label.  Labels resolve
    through ``labels``, the caller's ``(class, label) -> oid`` table,
    and a label the table lacks is minted into it as a fresh oid (a
    newly inserted object) — a caller decoding a sequence of deltas
    (the durable store's WAL) passes the same table each time, so one
    label names one object across the whole sequence.  Without a
    table, the labels a dump of ``instance`` would assign
    (:func:`repro.io.json_io.dump_labels`) seed a private one.  Keyed
    oids and raw serials need neither.

    Every malformed document raises :class:`DeltaError`.
    """
    if labels is None:
        labels = {} if instance is None else {
            (oid.class_name, label): oid
            for oid, label in dump_labels(instance).items()}
    decode_oid = identity_decoder(labels)

    def listed(items: Any) -> Any:
        if not isinstance(items, list):
            raise DeltaError(f"expected a list, got {items!r}")
        return items

    def by_class(group: Any) -> Mapping[str, Any]:
        if group is None:
            return {}
        if not isinstance(group, Mapping):
            raise DeltaError(f"expected a class mapping, got {group!r}")
        return {cname: listed(items) for cname, items in group.items()}

    def decode_group(group: Any) -> Dict[str, Dict[Oid, Value]]:
        out: Dict[str, Dict[Oid, Value]] = {}
        for cname, entries in by_class(group).items():
            objs: Dict[Oid, Value] = {}
            for entry in entries:
                if not (isinstance(entry, Mapping) and "id" in entry
                        and "value" in entry):
                    raise DeltaError(f"malformed delta entry {entry!r}")
                objs[decode_oid(entry["id"])] = value_from_json(
                    entry["value"], decode_oid)
            out[cname] = objs
        return out

    try:
        return Delta(inserts=decode_group(data.get("inserts")),
                     deletes={cname: tuple(decode_oid(item)
                                           for item in oids)
                              for cname, oids in
                              by_class(data.get("deletes")).items()},
                     updates=decode_group(data.get("updates")))
    except JsonIoError as exc:
        raise DeltaError(f"malformed delta: {exc}") from exc


def compose_deltas(first: Delta, second: Delta) -> Delta:
    """The single delta equivalent to applying ``first`` then ``second``.

    For every instance ``i`` both sides accept,
    ``compose_deltas(first, second).apply_to(i)`` equals
    ``second.apply_to(first.apply_to(i))`` — the service layer leans on
    this to batch a burst of queued deltas into one incremental
    application.  Per object the group algebra is: insert∘update =
    insert (new value), insert∘delete = nothing, update∘update =
    update (last value wins), update∘delete = delete, delete∘insert =
    update.  Combinations ``second`` could never apply after ``first``
    (inserting an object ``first`` left present, touching one it
    deleted) raise :class:`DeltaError`.
    """
    inserts: Dict[str, Dict[Oid, Value]] = {
        cname: dict(objs) for cname, objs in first.inserts.items()}
    updates: Dict[str, Dict[Oid, Value]] = {
        cname: dict(objs) for cname, objs in first.updates.items()}
    deletes: Dict[str, Dict[Oid, None]] = {
        cname: dict.fromkeys(oids)
        for cname, oids in first.deletes.items()}

    def group(store: Dict[str, Dict], cname: str) -> Dict:
        return store.setdefault(cname, {})

    for cname, objs in second.inserts.items():
        for oid, value in objs.items():
            if (oid in inserts.get(cname, {})
                    or oid in updates.get(cname, {})):
                raise DeltaError(
                    f"compose: {oid} inserted by the second delta but "
                    f"still present after the first")
            if oid in deletes.get(cname, {}):
                del deletes[cname][oid]
                group(updates, cname)[oid] = value
            else:
                group(inserts, cname)[oid] = value
    for cname, objs in second.updates.items():
        for oid, value in objs.items():
            if oid in deletes.get(cname, {}):
                raise DeltaError(
                    f"compose: {oid} updated by the second delta but "
                    f"deleted by the first")
            if oid in inserts.get(cname, {}):
                inserts[cname][oid] = value
            else:
                group(updates, cname)[oid] = value
    for cname, oids in second.deletes.items():
        for oid in oids:
            if oid in deletes.get(cname, {}):
                raise DeltaError(
                    f"compose: {oid} deleted by both deltas")
            if oid in inserts.get(cname, {}):
                del inserts[cname][oid]
            elif oid in updates.get(cname, {}):
                del updates[cname][oid]
                group(deletes, cname)[oid] = None
            else:
                group(deletes, cname)[oid] = None

    return Delta(inserts=inserts,
                 deletes={cname: tuple(oids)
                          for cname, oids in deletes.items() if oids},
                 updates=updates)


def load_delta(path: str, instance: Optional[Instance] = None,
               labels: Optional[Dict[Tuple[str, str], Oid]] = None
               ) -> Delta:
    import json
    with open(path) as handle:
        return delta_from_json(json.load(handle), instance, labels)
