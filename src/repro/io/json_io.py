"""JSON serialisation of schemas, keys and instances.

Transformations are long-lived artefacts run "many times" (Section 5), so
instances and schemas need a durable interchange format.  This module
round-trips the whole model through plain JSON:

* types render to their textual form (``(name: str, state: StateA)``) and
  parse back via :func:`repro.model.types.parse_type`;
* object identities serialise structurally: keyed oids as their key value,
  anonymous oids as stable local labels;
* values carry explicit tags (``{"$rec": ...}``, ``{"$var": ...}``, ...)
  so sets/lists/records/variants are unambiguous.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

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

    ``oid_encoder`` optionally replaces the default ``$oid`` handling
    (e.g. to emit durable labels for anonymous oids instead of
    process-local serials); it receives the :class:`Oid` and must
    return the JSON mapping for it.  The mirror of ``oid_decoder`` on
    :func:`value_from_json` — one structural encoder, hooked at the
    identities.
    """
    if isinstance(value, bool) or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, UnitValue):
        return {"$unit": True}
    if isinstance(value, Oid):
        if oid_encoder is not None:
            return oid_encoder(value)
        if value.is_keyed:
            return {"$oid": value.class_name,
                    "key": value_to_json(value.key)}
        return {"$oid": value.class_name, "serial": value.serial}
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

    ``oid_decoder`` optionally replaces the default ``$oid`` handling
    (e.g. to resolve label-addressed anonymous oids); it receives the
    raw ``$oid`` mapping and must return an :class:`Oid`.  There is one
    structural decoder — callers hook it instead of re-implementing the
    record/variant/set/list walk.
    """
    if isinstance(data, (bool, int, float, str)):
        return data
    if not isinstance(data, dict):
        raise JsonIoError(f"cannot decode value {data!r}")
    if "$unit" in data:
        return UNIT_VALUE
    if "$oid" in data:
        if oid_decoder is not None:
            return oid_decoder(data)
        class_name = data["$oid"]
        if "key" in data:
            return Oid.keyed(class_name, value_from_json(data["key"]))
        return Oid(class_name, serial=int(data["serial"]))
    if "$rec" in data:
        return Record(tuple(
            (label, value_from_json(v, oid_decoder))
            for label, v in data["$rec"].items()))
    if "$var" in data:
        return Variant(data["$var"],
                       value_from_json(data.get("of", {"$unit": 1}),
                                       oid_decoder))
    if "$set" in data:
        return WolSet(frozenset(value_from_json(v, oid_decoder)
                                for v in data["$set"]))
    if "$list" in data:
        return WolList(tuple(value_from_json(v, oid_decoder)
                             for v in data["$list"]))
    raise JsonIoError(f"cannot decode value {data!r}")


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

def dump_oid_encoder(instance: Instance):
    """The ``oid_encoder`` used by dumps: stable per-dump labels.

    Keyed oids encode as their key; anonymous oids get ``Class#n``
    labels by sorted extent order — the exact addressing
    :func:`instance_to_json` emits, exposed so other serialisers
    (query rows over the service, program result sets) name the same
    object the same way as a dump of the same instance.
    """
    labels: Dict[Oid, Any] = {}
    for cname in instance.schema.class_names():
        for index, oid in enumerate(
                sorted(instance.objects_of(cname), key=str)):
            if oid.is_keyed:
                labels[oid] = {"key": value_to_json(oid.key)}
            else:
                labels[oid] = {"label": f"{cname}#{index}"}

    def encode_oid(oid: Oid) -> Any:
        entry = labels.get(oid)
        if entry is None:
            raise JsonIoError(f"dangling reference {oid}")
        return {"$oid": oid.class_name, **entry}

    return encode_oid


def instance_to_json(instance: Instance) -> Dict[str, Any]:
    """Encode an instance (schema embedded).

    Anonymous oids get stable per-dump labels (``Class#n`` by sorted
    order) so dumps are deterministic and references stay consistent.
    """
    encode_oid = dump_oid_encoder(instance)

    def encode(value: Value) -> Any:
        if isinstance(value, Oid):
            return encode_oid(value)
        if isinstance(value, Record):
            return {"$rec": {label: encode(v)
                             for label, v in value.fields}}
        if isinstance(value, Variant):
            return {"$var": value.label, "of": encode(value.value)}
        if isinstance(value, WolSet):
            encoded = [encode(v) for v in value]
            encoded.sort(key=json.dumps)
            return {"$set": encoded}
        if isinstance(value, WolList):
            return {"$list": [encode(v) for v in value]}
        return value_to_json(value)

    objects: Dict[str, List[Dict[str, Any]]] = {}
    for cname in instance.schema.class_names():
        entries = []
        for oid in sorted(instance.objects_of(cname), key=str):
            entries.append({
                "id": encode_oid(oid),
                "value": encode(instance.value_of(oid)),
            })
        objects[cname] = entries

    return {"schema": schema_to_json(instance.schema),
            "objects": objects}


def instance_from_json(data: Dict[str, Any],
                       schema: Optional[Schema] = None,
                       labels: Optional[Dict[Tuple[str, str], Oid]] = None
                       ) -> Instance:
    """Decode an instance; ``schema`` overrides the embedded one.

    Anonymous objects get fresh serials on load, so their dump labels
    (``Class#n``) are the only durable way to address them from
    outside.  Pass a dict as ``labels`` to capture the exact
    ``(class, label) -> oid`` mapping of this load — deltas addressed
    by label (:func:`repro.evolution.delta.load_delta`) resolve through
    it; re-deriving the labels from the loaded instance would reorder
    whenever fresh serials sort differently than the dumped ones.
    """
    if schema is None:
        decoded = schema_from_json(data["schema"])
        schema = decoded.schema if isinstance(decoded, KeyedSchema) \
            else decoded
    builder = InstanceBuilder(schema)
    anonymous: Dict[Tuple[str, str], Oid] = \
        labels if labels is not None else {}

    def decode_oid(entry: Any) -> Oid:
        if not (isinstance(entry, dict) and "$oid" in entry):
            raise JsonIoError(f"expected an oid, got {entry!r}")
        cname = entry["$oid"]
        if "key" in entry:
            return Oid.keyed(cname, value_from_json(entry["key"]))
        label = entry.get("label")
        if label is None:
            return Oid(cname, serial=int(entry["serial"]))
        key = (cname, label)
        if key not in anonymous:
            anonymous[key] = Oid.fresh(cname)
        return anonymous[key]

    def decode(value: Any) -> Value:
        if isinstance(value, dict):
            if "$oid" in value:
                return decode_oid(value)
            if "$rec" in value:
                return Record(tuple(
                    (label, decode(v))
                    for label, v in value["$rec"].items()))
            if "$var" in value:
                return Variant(value["$var"],
                               decode(value.get("of", {"$unit": 1})))
            if "$set" in value:
                return WolSet(frozenset(decode(v)
                                        for v in value["$set"]))
            if "$list" in value:
                return WolList(tuple(decode(v) for v in value["$list"]))
        return value_from_json(value)

    for cname, entries in data.get("objects", {}).items():
        for entry in entries:
            oid = decode_oid(entry["id"])
            builder.put(oid, decode(entry["value"]))
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


def dump_schema(schema, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(schema_to_json(schema), handle, indent=2, sort_keys=True)


def load_schema(path: str):
    with open(path) as handle:
        return schema_from_json(json.load(handle))
