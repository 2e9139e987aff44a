"""Database instances of the WOL data model (paper Section 2.1).

An instance ``I`` of a schema ``S`` consists of a finite set of object
identities ``sigma^C`` for each class ``C``, and a valuation ``V^C`` mapping
each identity to a value of the class type ``tau^C``, such that every object
identity occurring in any stored value is itself part of the instance.

:class:`Instance` is immutable; :class:`InstanceBuilder` is the mutable
construction interface used by adapters, workload generators and the
execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from .schema import Schema
from .values import (Oid, Record, Value, ValueError_, check_value,
                     format_value, oids_in)


class InstanceError(Exception):
    """Raised when an instance violates well-formedness."""


@dataclass(frozen=True)
class Instance:
    """An immutable database instance.

    ``valuations`` maps each class name to a mapping from the class's object
    identities to their values.  Every class of the schema is present (with an
    empty mapping when the class has no objects).
    """

    schema: Schema
    valuations: Mapping[str, Mapping[Oid, Value]]

    def __post_init__(self) -> None:
        frozen: Dict[str, Dict[Oid, Value]] = {}
        for cname in self.schema.class_names():
            frozen[cname] = dict(self.valuations.get(cname, {}))
        for cname in self.valuations:
            if cname not in frozen:
                raise InstanceError(
                    f"instance stores class {cname!r} absent from "
                    f"schema {self.schema.name!r}")
        object.__setattr__(self, "valuations", frozen)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def objects_of(self, cname: str) -> Tuple[Oid, ...]:
        """The object identities ``sigma^C`` of class ``cname``."""
        if cname not in self.valuations:
            raise InstanceError(
                f"schema {self.schema.name!r} has no class {cname!r}")
        return tuple(self.valuations[cname])

    def value_of(self, oid: Oid) -> Value:
        """The stored value ``V^C(oid)``."""
        try:
            return self.valuations[oid.class_name][oid]
        except KeyError:
            raise InstanceError(
                f"object {oid} is not part of this instance") from None

    def has_object(self, oid: Oid) -> bool:
        return (oid.class_name in self.valuations
                and oid in self.valuations[oid.class_name])

    def attribute(self, oid: Oid, attr: str) -> Value:
        """Project attribute ``attr`` from the value of ``oid``.

        This is the paper's ``x.a`` notation: take ``V^C(x)``, which must be
        a record, and project the field.
        """
        value = self.value_of(oid)
        if not isinstance(value, Record):
            raise InstanceError(
                f"object {oid} carries non-record value "
                f"{format_value(value)}; cannot project {attr!r}")
        return value.get(attr)

    def all_oids(self) -> Iterator[Oid]:
        for cname in sorted(self.valuations):
            yield from self.valuations[cname]

    def size(self) -> int:
        """Total number of objects across all classes."""
        return sum(len(objs) for objs in self.valuations.values())

    def class_sizes(self) -> Dict[str, int]:
        return {cname: len(objs) for cname, objs in self.valuations.items()}

    # ------------------------------------------------------------------
    # Well-formedness
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check instance well-formedness; raise :class:`InstanceError`.

        Checks per Section 2.1: every stored value inhabits its class type
        and every object identity occurring in a stored value is itself in
        the instance, and oids are filed under their own class.
        """
        for cname, objs in self.valuations.items():
            ctype = self.schema.class_type(cname)
            for oid, value in objs.items():
                if oid.class_name != cname:
                    raise InstanceError(
                        f"object {oid} filed under class {cname}")
                try:
                    check_value(value, ctype)
                except ValueError_ as exc:
                    raise InstanceError(
                        f"class {cname}, object {oid}: {exc}") from exc
                for ref in oids_in(value):
                    if not self.has_object(ref):
                        raise InstanceError(
                            f"class {cname}, object {oid}: value references "
                            f"{ref}, which is not in the instance")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except InstanceError:
            return False
        return True

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def builder(self) -> "InstanceBuilder":
        """A mutable copy of this instance."""
        builder = InstanceBuilder(self.schema)
        for cname, objs in self.valuations.items():
            for oid, value in objs.items():
                builder.put(oid, value)
        return builder

    def __str__(self) -> str:
        lines = [f"instance of {self.schema.name}:"]
        for cname in sorted(self.valuations):
            objs = self.valuations[cname]
            lines.append(f"  {cname} ({len(objs)} objects)")
            for oid in sorted(objs, key=str):
                lines.append(f"    {oid} -> {format_value(objs[oid])}")
        return "\n".join(lines)


class InstanceBuilder:
    """Mutable builder for :class:`Instance`.

    Supports both anonymous objects (:meth:`new`) and Skolem-keyed objects
    (:meth:`make`), the latter being idempotent: asking twice for the same
    class and key returns the same identity, which is how WOL's ``Mk^C``
    Skolem functions behave.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._valuations: Dict[str, Dict[Oid, Value]] = {
            cname: {} for cname in schema.class_names()}

    def _class_store(self, cname: str) -> Dict[Oid, Value]:
        try:
            return self._valuations[cname]
        except KeyError:
            raise InstanceError(
                f"schema {self.schema.name!r} has no class {cname!r}"
            ) from None

    def new(self, cname: str, value: Value) -> Oid:
        """Insert a fresh anonymous object of class ``cname``."""
        oid = Oid.fresh(cname)
        self._class_store(cname)[oid] = value
        return oid

    def make(self, cname: str, key: Value, value: Optional[Value] = None) -> Oid:
        """Get-or-create the keyed object ``Mk^C(key)``.

        When ``value`` is given and the object already exists with a
        different value, an :class:`InstanceError` is raised — two clauses
        may not disagree about the same object.
        """
        oid = Oid.keyed(cname, key)
        store = self._class_store(cname)
        if oid in store:
            if value is not None and store[oid] != value:
                raise InstanceError(
                    f"conflicting values for {oid}: "
                    f"{format_value(store[oid])} vs {format_value(value)}")
        else:
            store[oid] = value if value is not None else Record(())
        return oid

    def put(self, oid: Oid, value: Value) -> Oid:
        """Insert or overwrite ``oid`` with ``value``."""
        self._class_store(oid.class_name)[oid] = value
        return oid

    def has_object(self, oid: Oid) -> bool:
        return (oid.class_name in self._valuations
                and oid in self._valuations[oid.class_name])

    def value_of(self, oid: Oid) -> Value:
        try:
            return self._valuations[oid.class_name][oid]
        except KeyError:
            raise InstanceError(
                f"object {oid} is not part of this builder") from None

    def objects_of(self, cname: str) -> Tuple[Oid, ...]:
        return tuple(self._class_store(cname))

    def freeze(self, validate: bool = True) -> Instance:
        """Produce the immutable instance (validated by default)."""
        instance = Instance(self.schema, {
            cname: dict(objs) for cname, objs in self._valuations.items()})
        if validate:
            instance.validate()
        return instance


def empty_instance(schema: Schema) -> Instance:
    """The empty instance of ``schema``."""
    return Instance(schema, {})
