"""JSON serialisation of schemas, keys and instances.

Transformations are long-lived artefacts run "many times" (Section 5), so
instances and schemas need a durable interchange format.  This module
round-trips the whole model through plain JSON:

* types render to their textual form (``(name: str, state: StateA)``) and
  parse back via :func:`repro.model.types.parse_type`;
* values carry explicit tags (``{"$rec": ...}``, ``{"$var": ...}``, ...)
  so sets/lists/records/variants are unambiguous;
* object identities are ``{"$oid": Class, ...}`` mappings, and this
  module is the only one that builds or reads them.

The identity codec has three parts, each defined once here.
:func:`dump_labels` derives the ``Class#n`` labels of a dump.
:func:`identity_encoder` writes a keyed oid as its key, an anonymous oid
as its label and an unlabelled one as its process-local serial.
:func:`identity_decoder` reads a key, a label (looked up in the caller's
table or minted into it) or a serial, and rejects any other shape with
:class:`JsonIoError`.  Dumps, the durable store's snapshots, WAL records
and canonical rendering, and label-addressed deltas all go through them.
A transformation's target needs no labels — a Skolem term minted each
of its oids — so its reads use :data:`keyed_oid_encoder`, and
:class:`InstanceText` keeps its canonical text up to date per object.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..model.instance import Instance, InstanceBuilder
from ..model.keys import KeyFunction, KeySpec, KeyedSchema
from ..model.schema import Schema
from ..model.types import parse_type
from ..model.values import (UNIT_VALUE, Oid, Record, UnitValue, Value,
                            Variant, WolList, WolSet)


class JsonIoError(Exception):
    """Raised on malformed serialised data."""


#: The canonical text of a JSON document: keys sorted, default
#: separators — exactly ``json.dumps(document, sort_keys=True)``.  Row
#: identity in query programs and the service's wire format are both
#: this rendering.  (No ``indent``: asking for one silently swaps
#: CPython's C encoder for the pure-Python one.)
canonical_json = json.JSONEncoder(sort_keys=True).encode


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------

def value_to_json(value: Value, oid_encoder=None) -> Any:
    """Encode a WOL value as JSON-compatible data.

    ``oid_encoder`` replaces the default identity encoding (keyed oids
    as their key, anonymous oids by process-local serial); build one
    with :func:`identity_encoder` to address anonymous oids by durable
    label instead.  The mirror of ``oid_decoder`` on
    :func:`value_from_json` — one structural encoder, hooked at the
    identities.
    """
    if isinstance(value, bool) or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, UnitValue):
        return {"$unit": True}
    if isinstance(value, Oid):
        return (oid_encoder or _by_serial)(value)
    if isinstance(value, Record):
        return {"$rec": {label: value_to_json(v, oid_encoder)
                         for label, v in value.fields}}
    if isinstance(value, Variant):
        return {"$var": value.label,
                "of": value_to_json(value.value, oid_encoder)}
    if isinstance(value, WolSet):
        encoded = [value_to_json(v, oid_encoder) for v in value]
        encoded.sort(key=json.dumps)
        return {"$set": encoded}
    if isinstance(value, WolList):
        return {"$list": [value_to_json(v, oid_encoder) for v in value]}
    raise JsonIoError(f"cannot encode value {value!r}")


def value_from_json(data: Any, oid_decoder=None) -> Value:
    """Decode JSON data produced by :func:`value_to_json`.

    ``oid_decoder`` resolves every ``$oid`` mapping; the default is an
    :func:`identity_decoder` over a table private to this call.  There
    is one structural decoder — callers hook it instead of
    re-implementing the record/variant/set/list walk.  Any shape
    :func:`value_to_json` cannot produce raises :class:`JsonIoError`.
    """
    if isinstance(data, (bool, int, float, str)):
        return data
    if not isinstance(data, dict):
        raise JsonIoError(f"cannot decode value {data!r}")
    if oid_decoder is None:
        oid_decoder = identity_decoder({})
    if "$unit" in data:
        return UNIT_VALUE
    if "$oid" in data:
        return oid_decoder(data)
    if isinstance(data.get("$rec"), dict):
        return Record(tuple(
            (label, value_from_json(v, oid_decoder))
            for label, v in data["$rec"].items()))
    if isinstance(data.get("$var"), str):
        return Variant(data["$var"],
                       value_from_json(data.get("of", {"$unit": 1}),
                                       oid_decoder))
    if isinstance(data.get("$set"), list):
        return WolSet(frozenset(value_from_json(v, oid_decoder)
                                for v in data["$set"]))
    if isinstance(data.get("$list"), list):
        return WolList(tuple(value_from_json(v, oid_decoder)
                             for v in data["$list"]))
    raise JsonIoError(f"cannot decode value {data!r}")


# ----------------------------------------------------------------------
# Object identities
# ----------------------------------------------------------------------

def dump_labels(instance: Instance) -> Dict[Oid, str]:
    """The dump label of every anonymous oid of ``instance``.

    Per class, anonymous oids are labelled ``Class#<index>`` in
    sorted-string order.  This is the only place labels are derived
    from an instance: dumps use it directly, and a durable store uses
    it once, when it is created.
    """
    labels: Dict[Oid, str] = {}
    for cname in instance.schema.class_names():
        for index, oid in enumerate(
                sorted(instance.objects_of(cname), key=str)):
            if not oid.is_keyed:
                labels[oid] = f"{cname}#{index}"
    return labels


def identity_encoder(label_of: Callable[[Oid], Optional[str]]
                     ) -> Callable[[Oid], Dict[str, Any]]:
    """The ``oid_encoder`` that names anonymous oids by ``label_of``.

    A keyed oid encodes as its key (plain :func:`value_to_json`), an
    anonymous oid as ``label_of(oid)``, and an anonymous oid without a
    label as its process-local serial.  ``label_of`` is never called
    for keyed oids.
    """
    def encode(oid: Oid) -> Dict[str, Any]:
        if oid.is_keyed:
            return {"$oid": oid.class_name, "key": value_to_json(oid.key)}
        label = label_of(oid)
        if label is None:
            return {"$oid": oid.class_name, "serial": oid.serial}
        return {"$oid": oid.class_name, "label": label}

    return encode


_by_serial = identity_encoder(lambda oid: None)


def identity_decoder(labels: Dict[Tuple[str, str], Oid]
                     ) -> Callable[[Any], Oid]:
    """The ``oid_decoder`` that resolves labels through ``labels``.

    It reads a key, a label or a serial.  A label is looked up in the
    ``(class, label) -> oid`` table; an unknown one is minted into it
    as a fresh oid, so equal labels name one object across every decode
    that shares the table.  Any other shape raises
    :class:`JsonIoError`.
    """
    def decode(data: Any) -> Oid:
        cname = data.get("$oid") if isinstance(data, dict) else None
        if not isinstance(cname, str):
            raise JsonIoError(f"expected an object identity, got {data!r}")
        if "key" in data:
            return Oid.keyed(cname, value_from_json(data["key"], decode))
        label = data.get("label")
        if isinstance(label, str):
            oid = labels.get((cname, label))
            if oid is None:
                oid = labels[(cname, label)] = Oid.fresh(cname)
            return oid
        serial = data.get("serial")
        if isinstance(serial, int) and not isinstance(serial, bool):
            return Oid(cname, serial=serial)
        raise JsonIoError(f"object identity {data!r} has no key, label "
                          f"or serial")

    return decode


def dump_oid_encoder(instance: Instance) -> Callable[[Oid], Dict[str, Any]]:
    """The ``oid_encoder`` of a dump of ``instance``: its
    :func:`dump_labels`.  Other serialisers (program result sets) use
    it to name each object the way a dump of the same instance does."""
    return identity_encoder(dump_labels(instance).get)


def _no_label(oid: Oid) -> Optional[str]:
    raise JsonIoError(f"{oid} is anonymous, and a keyed-only encoding "
                      f"has no label for it")


#: The ``oid_encoder`` of an instance whose objects are all keyed — a
#: transformation's target, every oid of which a Skolem term minted.
#: It encodes exactly what :func:`dump_oid_encoder` would, without a
#: label table to derive or patch, and raises :class:`JsonIoError` on
#: an anonymous oid rather than name it differently from a dump.
keyed_oid_encoder = identity_encoder(_no_label)


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------

def schema_to_json(schema) -> Dict[str, Any]:
    """Encode a Schema or KeyedSchema."""
    if isinstance(schema, KeyedSchema):
        plain = schema.schema
        keys: Optional[Dict[str, Any]] = {
            cname: [{"label": label, "path": list(path)}
                    for label, path in
                    schema.keys.key_for(cname).components]
            for cname in schema.keys.classes()}
    else:
        plain = schema
        keys = None
    out: Dict[str, Any] = {
        "name": plain.name,
        "classes": {cname: str(ctype) for cname, ctype in plain},
    }
    if keys is not None:
        out["keys"] = keys
    return out


def schema_from_json(data: Dict[str, Any]):
    """Decode a Schema (or KeyedSchema when keys are present)."""
    try:
        classes = tuple((cname, parse_type(text))
                        for cname, text in data["classes"].items())
        schema = Schema(data["name"], classes)
    except KeyError as exc:
        raise JsonIoError(f"missing schema field {exc}") from exc
    keys = data.get("keys")
    if keys is None:
        return schema
    functions = {}
    for cname, components in keys.items():
        parsed = tuple((component.get("label"),
                        tuple(component["path"]))
                       for component in components)
        functions[cname] = KeyFunction(cname, parsed)
    return KeyedSchema(schema, KeySpec(functions))


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------

def instance_to_json(instance: Instance, oid_encoder=None
                     ) -> Dict[str, Any]:
    """Encode an instance (schema embedded).

    Objects are listed per class in sorted-string order, named by
    ``oid_encoder`` — by default :func:`dump_oid_encoder`, so dumps are
    deterministic and references stay consistent.  A durable store
    passes the encoder of its own label map instead.
    """
    if oid_encoder is None:
        oid_encoder = dump_oid_encoder(instance)
    objects: Dict[str, List[Dict[str, Any]]] = {}
    for cname in instance.schema.class_names():
        objects[cname] = [
            {"id": oid_encoder(oid),
             "value": value_to_json(instance.value_of(oid), oid_encoder)}
            for oid in sorted(instance.objects_of(cname), key=str)]
    return {"schema": schema_to_json(instance.schema),
            "objects": objects}


class InstanceText:
    """``canonical_json(instance_to_json(instance, oid_encoder))`` as
    UTF-8, kept as one encoded entry per object.

    An edit that changes k objects costs k re-encoded entries, not a
    dump: :meth:`advance` records which oids a step changed (O(k)) and
    the next :meth:`render` re-encodes just those and splices the
    document.  Entries stay per class in ``str(oid)`` order, as
    :func:`instance_to_json` lists them.  An instance the text was not
    advanced to renders with every object dirty — the same code as the
    first render.  Not thread-safe: callers serialise both methods.
    """

    def __init__(self, oid_encoder: Callable[[Oid], Dict[str, Any]]
                 ) -> None:
        self._encode_oid = oid_encoder
        #: The instance the entries plus ``_dirty`` describe.
        self._instance: Optional[Instance] = None
        self._dirty: Optional[set] = None      # None: every object
        self._entries: Dict[Oid, bytes] = {}
        self._order: Dict[str, List[Oid]] = {}  # per class, by str
        self._segments: Dict[str, bytes] = {}  # per class, spliced
        self._schema = b""
        self._text = b""

    def advance(self, previous: Instance, instance: Instance,
                changed: Iterable[Oid]) -> None:
        """Record that ``instance`` is ``previous`` with the values of
        ``changed`` replaced (absent on one side = inserted or
        removed)."""
        if self._instance is previous and self._dirty is not None:
            self._dirty.update(changed)
        else:
            self._dirty = None
        self._instance = instance

    def render(self, instance: Instance) -> Tuple[bytes, str, int]:
        """``(text, outcome, entries encoded)`` for ``instance``, where
        ``outcome`` is ``hit`` (nothing changed since the last render),
        ``patch`` or ``build`` (every object encoded)."""
        if instance is not self._instance:
            self._instance, self._dirty = instance, None
        dirty = self._dirty
        if dirty is None:
            self._build(instance)
            outcome, encoded = "build", len(self._entries)
        elif dirty:
            outcome, encoded = "patch", self._patch(instance, dirty)
        else:
            return self._text, "hit", 0
        self._dirty = set()
        self._text = b"".join((
            b'{"objects": {',
            b", ".join(self._segments[cname]
                       for cname in sorted(self._segments)),
            b'}, "schema": ', self._schema, b"}"))
        return self._text, outcome, encoded

    def _entry(self, oid: Oid, value: Value) -> bytes:
        encode = self._encode_oid
        return canonical_json({"id": encode(oid),
                               "value": value_to_json(value, encode)}
                              ).encode("utf-8")

    def _segment(self, cname: str) -> None:
        entries = self._entries
        self._segments[cname] = b"".join((
            canonical_json(cname).encode("utf-8"), b": [",
            b", ".join(entries[oid] for oid in self._order[cname]),
            b"]"))

    def _build(self, instance: Instance) -> None:
        self._entries, self._order, self._segments = {}, {}, {}
        for cname in instance.schema.class_names():
            values = instance.valuations[cname]
            oids = self._order[cname] = sorted(values, key=str)
            for oid in oids:
                self._entries[oid] = self._entry(oid, values[oid])
            self._segment(cname)
        self._schema = canonical_json(
            schema_to_json(instance.schema)).encode("utf-8")

    def _patch(self, instance: Instance, dirty: set) -> int:
        entries, encoded, classes = self._entries, 0, set()
        for oid in sorted(dirty, key=str):
            cname = oid.class_name
            oids = self._order[cname]
            value = instance.valuations[cname].get(oid)
            classes.add(cname)
            if oid in entries:
                if value is None:
                    at = bisect_left(oids, str(oid), key=str)
                    while oids[at] != oid:
                        at += 1
                    del oids[at], entries[oid]
                    continue
            elif value is None:
                continue  # inserted and removed again since the render
            else:
                oids.insert(bisect_right(oids, str(oid), key=str), oid)
            entries[oid] = self._entry(oid, value)
            encoded += 1
        for cname in classes:
            self._segment(cname)
        return encoded


def instance_from_json(data: Dict[str, Any],
                       schema: Optional[Schema] = None,
                       labels: Optional[Dict[Tuple[str, str], Oid]] = None
                       ) -> Instance:
    """Decode an instance; ``schema`` overrides the embedded one.

    Anonymous objects get fresh serials on load, so their labels are
    the only durable way to address them from outside.  Pass a dict as
    ``labels`` to capture the exact ``(class, label) -> oid`` mapping
    of this load — deltas addressed by label
    (:func:`repro.evolution.delta.load_delta`) resolve through it;
    re-deriving the labels from the loaded instance would reorder
    whenever fresh serials sort differently than the dumped ones.
    """
    if schema is None:
        decoded = schema_from_json(data["schema"])
        schema = decoded.schema if isinstance(decoded, KeyedSchema) \
            else decoded
    builder = InstanceBuilder(schema)
    decode_oid = identity_decoder(labels if labels is not None else {})
    for entries in data.get("objects", {}).values():
        for entry in entries:
            builder.put(decode_oid(entry["id"]),
                        value_from_json(entry["value"], decode_oid))
    return builder.freeze()


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------

def dump_instance(instance: Instance, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(instance_to_json(instance), handle, indent=2,
                  sort_keys=True)


def load_instance(path: str, schema: Optional[Schema] = None,
                  labels: Optional[Dict[Tuple[str, str], Oid]] = None
                  ) -> Instance:
    with open(path) as handle:
        return instance_from_json(json.load(handle), schema,
                                  labels=labels)
