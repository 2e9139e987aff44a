"""Type system of the WOL data model (paper Section 2.1).

The types over a set of classes ``C`` consist of:

* base types ``b`` (``int``, ``str``, ``bool``, ``float`` and the trivial
  ``unit`` type used for argument-less variant choices such as ``ins_male()``),
* class types ``C`` for each class name, denoting object identities,
* set types ``{tau}``,
* list types ``[tau]`` (the paper admits lists alongside sets),
* record types ``(a1: tau1, ..., ak: tauk)``,
* variant types ``<<a1: tau1, ..., ak: tauk>>``.

All type objects are immutable and hashable so they can be used as dictionary
keys during type inference, and structural equality is definitional equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple


class TypeError_(Exception):
    """Raised when a type expression is malformed or used inconsistently."""


@dataclass(frozen=True)
class Type:
    """Abstract base class for WOL types."""

    def is_ground(self) -> bool:
        """Return True when the type contains no type variables."""
        return all(child.is_ground() for child in self.children())

    def children(self) -> Tuple["Type", ...]:
        """Immediate component types (empty for leaves)."""
        return ()

    def walk(self) -> Iterator["Type"]:
        """Yield this type and every nested component type, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def class_names(self) -> Tuple[str, ...]:
        """All class names mentioned anywhere inside this type, in order."""
        seen = []
        for node in self.walk():
            if isinstance(node, ClassType) and node.name not in seen:
                seen.append(node.name)
        return tuple(seen)

    def involves_class(self) -> bool:
        """True if any class type occurs in this type.

        Key types must not involve classes (paper Section 2.2), so this check
        is used when validating key specifications.
        """
        return any(isinstance(node, ClassType) for node in self.walk())


@dataclass(frozen=True)
class BaseType(Type):
    """A base type such as ``int`` or ``str``."""

    name: str

    _VALID = frozenset({"int", "str", "bool", "float", "unit"})

    def __post_init__(self) -> None:
        if self.name not in self._VALID:
            raise TypeError_(f"unknown base type {self.name!r}; "
                             f"expected one of {sorted(self._VALID)}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ClassType(Type):
    """The type of object identities of a named class."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isalpha():
            raise TypeError_(f"invalid class name {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SetType(Type):
    """A finite set of elements of a common type."""

    element: Type

    def children(self) -> Tuple[Type, ...]:
        return (self.element,)

    def __str__(self) -> str:
        return "{%s}" % self.element


@dataclass(frozen=True)
class ListType(Type):
    """A finite list (ordered, duplicates allowed)."""

    element: Type

    def children(self) -> Tuple[Type, ...]:
        return (self.element,)

    def __str__(self) -> str:
        return "[%s]" % self.element


def _check_labels(kind: str, fields: Tuple[Tuple[str, Type], ...]) -> None:
    labels = [label for label, _ in fields]
    if len(set(labels)) != len(labels):
        duplicates = sorted({l for l in labels if labels.count(l) > 1})
        raise TypeError_(f"duplicate {kind} labels: {duplicates}")
    for label in labels:
        if not label or not (label[0].isalpha() or label[0] == "_"):
            raise TypeError_(f"invalid {kind} label {label!r}")


@dataclass(frozen=True)
class RecordType(Type):
    """A record type ``(a1: tau1, ..., ak: tauk)``.

    Field order is preserved for printing but ignored for equality: two record
    types with the same field set are the same type.
    """

    fields: Tuple[Tuple[str, Type], ...]
    _index: Dict[str, Type] = field(init=False, repr=False, compare=False,
                                    hash=False, default=None)  # type: ignore[assignment]
    _labels: Tuple[str, ...] = field(init=False, repr=False, compare=False,
                                     hash=False, default=())

    def __post_init__(self) -> None:
        _check_labels("record", self.fields)
        canonical = tuple(sorted(self.fields, key=lambda item: item[0]))
        object.__setattr__(self, "fields", canonical)
        object.__setattr__(self, "_index", dict(canonical))
        object.__setattr__(self, "_labels", tuple(self._index))

    def labels(self) -> Tuple[str, ...]:
        return self._labels

    def field_type(self, label: str) -> Type:
        try:
            return self._index[label]
        except KeyError:
            raise TypeError_(
                f"record type {self} has no field {label!r}") from None

    def has_field(self, label: str) -> bool:
        return label in self._index

    def children(self) -> Tuple[Type, ...]:
        return tuple(ty for _, ty in self.fields)

    def __str__(self) -> str:
        inner = ", ".join(f"{label}: {ty}" for label, ty in self.fields)
        return f"({inner})"


@dataclass(frozen=True)
class VariantType(Type):
    """A variant type ``<<a1: tau1, ..., ak: tauk>>``.

    A value of this type is a pair of a choice label and a value of the
    corresponding choice type.
    """

    choices: Tuple[Tuple[str, Type], ...]
    _index: Dict[str, Type] = field(init=False, repr=False, compare=False,
                                    hash=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.choices:
            raise TypeError_("variant type must have at least one choice")
        _check_labels("variant", self.choices)
        canonical = tuple(sorted(self.choices, key=lambda item: item[0]))
        object.__setattr__(self, "choices", canonical)
        object.__setattr__(self, "_index", dict(canonical))

    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.choices)

    def choice_type(self, label: str) -> Type:
        try:
            return self._index[label]
        except KeyError:
            raise TypeError_(
                f"variant type {self} has no choice {label!r}") from None

    def has_choice(self, label: str) -> bool:
        return label in self._index

    def children(self) -> Tuple[Type, ...]:
        return tuple(ty for _, ty in self.choices)

    def __str__(self) -> str:
        inner = ", ".join(f"{label}: {ty}" for label, ty in self.choices)
        return f"<<{inner}>>"


# Convenient singletons for the base types.
INT = BaseType("int")
STR = BaseType("str")
BOOL = BaseType("bool")
FLOAT = BaseType("float")
UNIT = BaseType("unit")


def record(**fields: Type) -> RecordType:
    """Build a record type from keyword arguments: ``record(name=STR)``."""
    return RecordType(tuple(fields.items()))


def variant(**choices: Type) -> VariantType:
    """Build a variant type from keyword arguments: ``variant(male=UNIT)``."""
    return VariantType(tuple(choices.items()))


def set_of(element: Type) -> SetType:
    """Build a set type over ``element``."""
    return SetType(element)


def resolve_class_refs(ty: Type, known_classes: frozenset) -> None:
    """Check that every class type inside ``ty`` names a known class.

    Raises :class:`TypeError_` listing the first dangling reference.
    """
    for node in ty.walk():
        if isinstance(node, ClassType) and node.name not in known_classes:
            raise TypeError_(
                f"type {ty} refers to unknown class {node.name!r}")


def parse_type(text: str) -> Type:
    """Parse a textual type expression.

    Grammar (whitespace-insensitive)::

        type    := base | Class | '{' type '}' | '[' type ']'
                 | '(' fields? ')' | '<<' fields '>>'
        fields  := label ':' type (',' label ':' type)*
        base    := 'int' | 'str' | 'bool' | 'float' | 'unit'

    Class names are capitalised identifiers; anything that is neither a base
    type nor a structured type is treated as a class reference.
    """
    parser = _TypeParser(text)
    ty = parser.parse_type()
    parser.expect_end()
    return ty


class _TypeParser:
    """Tiny recursive-descent parser for :func:`parse_type`."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self, token: str) -> bool:
        self._skip_ws()
        return self.text.startswith(token, self.pos)

    def _eat(self, token: str) -> bool:
        if self._peek(token):
            self.pos += len(token)
            return True
        return False

    def _expect(self, token: str) -> None:
        if not self._eat(token):
            raise TypeError_(
                f"expected {token!r} at position {self.pos} in {self.text!r}")

    def _ident(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if start == self.pos:
            raise TypeError_(
                f"expected identifier at position {start} in {self.text!r}")
        return self.text[start:self.pos]

    def _fields(self, closer: str) -> Tuple[Tuple[str, Type], ...]:
        fields = []
        if not self._peek(closer):
            while True:
                label = self._ident()
                self._expect(":")
                fields.append((label, self.parse_type()))
                if not self._eat(","):
                    break
        self._expect(closer)
        return tuple(fields)

    def parse_type(self) -> Type:
        if self._eat("{"):
            element = self.parse_type()
            self._expect("}")
            return SetType(element)
        if self._eat("["):
            element = self.parse_type()
            self._expect("]")
            return ListType(element)
        if self._eat("<<"):
            return VariantType(self._fields(">>"))
        if self._eat("("):
            return RecordType(self._fields(")"))
        name = self._ident()
        if name in BaseType._VALID:
            return BaseType(name)
        return ClassType(name)

    def expect_end(self) -> None:
        self._skip_ws()
        if self.pos != len(self.text):
            raise TypeError_(
                f"trailing input at position {self.pos} in {self.text!r}")
