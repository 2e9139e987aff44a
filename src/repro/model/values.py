"""Values of the WOL data model (paper Section 2.1).

Values are the things stored in database instances: base values, object
identities, records, variants, sets and lists.  All values are immutable and
hashable, so sets of values and value-keyed dictionaries work out of the box,
and the Skolem-keyed object identities of the execution engine can be
hash-consed.

The Python representations are:

============  =======================================
WOL value     Python representation
============  =======================================
base value    ``int`` / ``str`` / ``bool`` / ``float``
unit          :data:`UNIT_VALUE` (singleton)
object id     :class:`Oid`
record        :class:`Record`
variant       :class:`Variant`
set           :class:`WolSet`
list          :class:`WolList`
============  =======================================
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple, Union

from .types import (BOOL, FLOAT, INT, STR, UNIT, BaseType, ClassType,
                    ListType, RecordType, SetType, Type, TypeError_,
                    VariantType)


class ValueError_(Exception):
    """Raised when a value is malformed or fails a type check."""


@dataclass(frozen=True)
class UnitValue:
    """The single value of the ``unit`` type (argument-less variants)."""

    def __str__(self) -> str:
        return "()"


UNIT_VALUE = UnitValue()

_OID_COUNTER = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Oid:
    """An object identity.

    Object identities belong to a class and are either *anonymous* (created
    with a fresh serial number, unrelated to any value) or *keyed* (created by
    a Skolem function from a key value, so that equal keys give equal
    identities — the paper's ``Mk^C`` functions).
    """

    class_name: str
    key: Optional["Value"] = None
    serial: Optional[int] = None
    # Caches, unset until first use (see :func:`_getstate`).
    _hash: int = field(init=False, repr=False, compare=False, hash=False)
    _str: str = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if (self.key is None) == (self.serial is None):
            raise ValueError_(
                "an Oid needs exactly one of a key or a serial number")

    def __hash__(self) -> int:
        # Oids are dict keys everywhere (instances, indexes, pending
        # stores, intern tables) and keyed identities hash a whole key
        # record each time — cache the hash on first use.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.class_name, self.key, self.serial))
            object.__setattr__(self, "_hash", value)
            return value

    @staticmethod
    def fresh(class_name: str) -> "Oid":
        """Create a new anonymous object identity of ``class_name``."""
        return Oid(class_name, serial=next(_OID_COUNTER))

    @staticmethod
    def keyed(class_name: str, key: "Value") -> "Oid":
        """Create (or re-create) the identity determined by ``key``."""
        return Oid(class_name, key=key)

    @staticmethod
    def keyed_unchecked(class_name: str, key: "Value") -> "Oid":
        """:meth:`keyed` without the one-of-key-or-serial validation.

        The vectorized executor mints keyed identities in bulk; the
        shape is fixed at compile time, so the per-instance check is
        dead weight.  ``key`` must not be None.

        The hash cache is primed here: every minted identity goes
        straight into intern tables and the pending store, and the
        lazy ``__hash__`` would pay an ``AttributeError`` miss first.
        Priming it in this module keeps the layout of ``Oid`` (and the
        hash formula) known to nobody else.
        """
        oid = object.__new__(Oid)
        setattr_ = object.__setattr__
        setattr_(oid, "class_name", class_name)
        setattr_(oid, "key", key)
        setattr_(oid, "serial", None)
        setattr_(oid, "_hash", hash((class_name, key, None)))
        return oid

    @property
    def is_keyed(self) -> bool:
        return self.key is not None

    def __str__(self) -> str:
        # The deterministic collection order sorts by textual form, so
        # set-heavy workloads render each oid many times — cache it.
        try:
            return self._str
        except AttributeError:
            if self.is_keyed:
                text = f"&{self.class_name}[{format_value(self.key)}]"
            else:
                text = f"&{self.class_name}#{self.serial}"
            object.__setattr__(self, "_str", text)
            return text


@dataclass(frozen=True, slots=True)
class Record:
    """A record value with named fields.

    Fields are stored sorted by label so equality and hashing are
    order-insensitive, matching record-type equality.
    """

    fields: Tuple[Tuple[str, "Value"], ...]
    _index: Dict[str, "Value"] = field(init=False, repr=False, compare=False,
                                       hash=False)
    # Caches, unset until first use (see :func:`_getstate`).
    _hash: int = field(init=False, repr=False, compare=False, hash=False)
    _str: str = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.fields]
        if len(set(labels)) != len(labels):
            raise ValueError_(f"duplicate record field labels in {labels}")
        canonical = tuple(sorted(self.fields, key=lambda item: item[0]))
        object.__setattr__(self, "fields", canonical)
        object.__setattr__(self, "_index", dict(canonical))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(self.fields)
            object.__setattr__(self, "_hash", value)
            return value

    @staticmethod
    def of(**fields: "Value") -> "Record":
        return Record(tuple(fields.items()))

    @staticmethod
    def presorted(fields: Tuple[Tuple[str, "Value"], ...]) -> "Record":
        """Construct from fields already sorted by distinct labels.

        The vectorized executor builds key records in bulk with a
        label layout fixed at compile time; this skips the per-row
        re-validation and re-sort of ``__post_init__``.  Callers must
        guarantee sortedness and distinctness — an unsorted layout
        would break record equality.  Primes the hash cache for the
        same reason :meth:`Oid.keyed_unchecked` does: key records are
        hashed as soon as they are built.
        """
        record = object.__new__(Record)
        setattr_ = object.__setattr__
        setattr_(record, "fields", fields)
        setattr_(record, "_index", dict(fields))
        setattr_(record, "_hash", hash(fields))
        return record

    def labels(self) -> Tuple[str, ...]:
        return tuple(self._index)  # in field (label) order

    def get(self, label: str) -> "Value":
        try:
            return self._index[label]
        except KeyError:
            raise ValueError_(f"record {self} has no field {label!r}") from None

    def has(self, label: str) -> bool:
        return label in self._index

    def with_field(self, label: str, value: "Value") -> "Record":
        """Return a copy with ``label`` set (added or replaced)."""
        updated = dict(self.fields)
        updated[label] = value
        return Record(tuple(updated.items()))

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            inner = ", ".join(
                f"{label} = {format_value(value)}"
                for label, value in self.fields)
            text = f"({inner})"
            object.__setattr__(self, "_str", text)
            return text


@dataclass(frozen=True, slots=True)
class Variant:
    """A variant value: a choice label paired with a carried value."""

    label: str
    value: "Value" = UNIT_VALUE

    def __str__(self) -> str:
        if self.value == UNIT_VALUE:
            return f"ins_{self.label}()"
        return f"ins_{self.label}({format_value(self.value)})"


@dataclass(frozen=True, slots=True)
class WolSet:
    """A finite set value."""

    elements: frozenset

    def __post_init__(self) -> None:
        if not isinstance(self.elements, frozenset):
            object.__setattr__(self, "elements", frozenset(self.elements))

    @staticmethod
    def of(*elements: "Value") -> "WolSet":
        return WolSet(frozenset(elements))

    def __iter__(self) -> Iterator["Value"]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value: "Value") -> bool:
        return value in self.elements

    def __str__(self) -> str:
        inner = ", ".join(sorted(format_value(v) for v in self.elements))
        return "{%s}" % inner


@dataclass(frozen=True, slots=True)
class WolList:
    """A finite list value (ordered, duplicates allowed)."""

    elements: Tuple["Value", ...]

    def __post_init__(self) -> None:
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))

    @staticmethod
    def of(*elements: "Value") -> "WolList":
        return WolList(tuple(elements))

    def __iter__(self) -> Iterator["Value"]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        inner = ", ".join(format_value(v) for v in self.elements)
        return "[%s]" % inner


_CACHES = ("_hash", "_str")


def _getstate(value) -> Dict[str, object]:
    # str hashes are salted per process: a pickled value must never
    # carry a cached hash into another process.  The cached rendering
    # is dropped too — it is pure payload.
    return {name: getattr(value, name) for name in value.__slots__
            if name not in _CACHES}


def _setstate(value, state: Dict[str, object]) -> None:
    for name, item in state.items():
        object.__setattr__(value, name, item)


# Assigned after the decorator ran: on Python 3.10,
# ``dataclass(slots=True, frozen=True)`` replaces a class's own pair with
# one that reads every field, the unset caches included.
for _cls in (Oid, Record, Variant, WolSet, WolList):
    _cls.__getstate__ = _getstate
    _cls.__setstate__ = _setstate
del _cls


Value = Union[int, str, bool, float, UnitValue, Oid, Record, Variant,
              WolSet, WolList]


def format_value(value: Value) -> str:
    """Human-readable rendering of any WOL value."""
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def type_of_base(value: Value) -> Optional[BaseType]:
    """The base type of a Python scalar, or None for structured values."""
    # bool must precede int: Python bools are ints.
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STR
    if isinstance(value, UnitValue):
        return UNIT
    return None


def check_value(value: Value, ty: Type) -> None:
    """Check that ``value`` inhabits ``ty``; raise :class:`ValueError_` if not.

    Object identities are checked against their class name only — whether an
    oid actually occurs in the instance is the instance well-formedness check
    (:meth:`repro.model.instance.Instance.validate`), not a value-level one.
    """
    if isinstance(ty, BaseType):
        actual = type_of_base(value)
        if actual != ty:
            raise ValueError_(
                f"value {format_value(value)} is not of base type {ty}")
        return
    if isinstance(ty, ClassType):
        if not isinstance(value, Oid) or value.class_name != ty.name:
            raise ValueError_(
                f"value {format_value(value)} is not an oid of class {ty}")
        return
    if isinstance(ty, SetType):
        if not isinstance(value, WolSet):
            raise ValueError_(f"value {format_value(value)} is not a set")
        for element in value:
            check_value(element, ty.element)
        return
    if isinstance(ty, ListType):
        if not isinstance(value, WolList):
            raise ValueError_(f"value {format_value(value)} is not a list")
        for element in value:
            check_value(element, ty.element)
        return
    if isinstance(ty, RecordType):
        if not isinstance(value, Record):
            raise ValueError_(f"value {format_value(value)} is not a record")
        # Both label tuples are sorted and duplicate-free.
        if value.labels() != ty.labels():
            raise ValueError_(
                f"record {value} has fields {list(value.labels())}, "
                f"type {ty} expects {list(ty.labels())}")
        for label, fty in ty.fields:
            check_value(value.get(label), fty)
        return
    if isinstance(ty, VariantType):
        if not isinstance(value, Variant):
            raise ValueError_(f"value {format_value(value)} is not a variant")
        if not ty.has_choice(value.label):
            raise ValueError_(
                f"variant {value} uses choice {value.label!r}, "
                f"not among {list(ty.labels())}")
        check_value(value.value, ty.choice_type(value.label))
        return
    raise TypeError_(f"unknown type node {ty!r}")


def oids_in(value: Value) -> Iterator[Oid]:
    """Yield every object identity occurring (recursively) in ``value``."""
    if isinstance(value, Oid):
        yield value
    elif isinstance(value, Record):
        for _, fval in value.fields:
            yield from oids_in(fval)
    elif isinstance(value, Variant):
        yield from oids_in(value.value)
    elif isinstance(value, (WolSet, WolList)):
        for element in value:
            yield from oids_in(element)
