"""Surrogate keys and keyed schemas (paper Section 2.2).

A *key specification* ``K`` for a schema assigns to each class ``C`` a
function ``K^C`` mapping the objects of ``C`` in an instance to values of a
class-free type ``kappa^C``.  An instance satisfies the specification iff
``K^C`` is injective on every class — equal keys imply equal objects.

Key functions here are *path-based*: each key component follows a chain of
attributes starting from the object, dereferencing object identities along
the way.  This covers the paper's examples, e.g. for European cities::

    K^CityE(c)  = (name = c.name, country_name = c.country.name)
    K^CountryE(c) = c.name
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from .schema import Schema
from .types import ClassType, RecordType, Type, TypeError_
from .values import Oid, Record, Value, format_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instance import Instance


class KeyError_(Exception):
    """Raised for malformed key specifications or key violations."""


Path = Tuple[str, ...]


@dataclass(frozen=True)
class KeyFunction:
    """A surrogate-key function for one class.

    ``components`` associates output labels with attribute paths.  With a
    single component labelled ``None`` the key value is the bare path value;
    otherwise the key value is a record of the labelled components.
    """

    class_name: str
    components: Tuple[Tuple[Optional[str], Path], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise KeyError_(f"key for {self.class_name} has no components")
        labels = [label for label, _ in self.components]
        if len(self.components) > 1 and None in labels:
            raise KeyError_(
                f"key for {self.class_name}: multi-component keys need "
                f"labels on every component")
        if len(set(labels)) != len(labels):
            raise KeyError_(
                f"key for {self.class_name}: duplicate component labels")

    def key_type(self, schema: Schema) -> Type:
        """The key type ``kappa^C`` induced by the component paths."""
        parts = [(label, _path_type(schema, self.class_name, path))
                 for label, path in self.components]
        for label, ty in parts:
            if ty.involves_class():
                raise KeyError_(
                    f"key for {self.class_name}: component "
                    f"{label or '.'.join(self.components[0][1])} has type "
                    f"{ty}, but key types may not involve classes")
        if len(parts) == 1 and parts[0][0] is None:
            return parts[0][1]
        return RecordType(tuple((label, ty) for label, ty in parts))

    def apply(self, instance: "Instance", oid: Oid) -> Value:
        """Compute the key value of ``oid`` in ``instance``."""
        parts = [(label, _follow_path(instance, oid, path))
                 for label, path in self.components]
        if len(parts) == 1 and parts[0][0] is None:
            return parts[0][1]
        return Record(tuple((label, value) for label, value in parts))

    def __str__(self) -> str:
        def render(label: Optional[str], path: Path) -> str:
            dotted = ".".join(path)
            return dotted if label is None else f"{label} = x.{dotted}"

        inner = ", ".join(render(label, path)
                          for label, path in self.components)
        return f"K^{self.class_name}(x) = {inner}"


def _path_type(schema: Schema, class_name: str, path: Path) -> Type:
    """Type obtained by following ``path`` from objects of ``class_name``."""
    if not path:
        raise KeyError_(f"key for {class_name}: empty attribute path")
    current: Type = ClassType(class_name)
    for attr in path:
        if isinstance(current, ClassType):
            current = schema.class_type(current.name)
        if not isinstance(current, RecordType):
            raise KeyError_(
                f"key for {class_name}: cannot project {attr!r} "
                f"from non-record type {current}")
        try:
            current = current.field_type(attr)
        except TypeError_ as exc:
            raise KeyError_(f"key for {class_name}: {exc}") from exc
    if isinstance(current, ClassType):
        raise KeyError_(
            f"key for {class_name}: path {'.'.join(path)} ends at class "
            f"type {current}; extend the path to a value attribute")
    return current


def _follow_path(instance: "Instance", oid: Oid, path: Path) -> Value:
    current: Value = oid
    for attr in path:
        if isinstance(current, Oid):
            current = instance.value_of(current)
        if not isinstance(current, Record):
            raise KeyError_(
                f"cannot project {attr!r} from {format_value(current)}")
        current = current.get(attr)
    return current


def attribute_key(schema: Schema, class_name: str, attr: str) -> KeyFunction:
    """Key on a single (possibly dotted) attribute path, e.g. ``name``."""
    path = tuple(attr.split("."))
    fn = KeyFunction(class_name, ((None, path),))
    fn.key_type(schema)  # validate eagerly
    return fn


def attributes_key(schema: Schema, class_name: str,
                   attrs: Tuple[str, ...]) -> KeyFunction:
    """Key on several attribute paths; the key value is a record.

    Dotted paths get their dots replaced by underscores in the record label,
    mirroring the paper's ``country_name = z.country.name``.
    """
    components = []
    for attr in attrs:
        path = tuple(attr.split("."))
        label = "_".join(path)
        components.append((label, path))
    fn = KeyFunction(class_name, tuple(components))
    fn.key_type(schema)
    return fn


@dataclass(frozen=True)
class KeySpec:
    """A key specification: key functions for (a subset of) the classes."""

    functions: Mapping[str, KeyFunction]

    def __post_init__(self) -> None:
        for cname, fn in self.functions.items():
            if fn.class_name != cname:
                raise KeyError_(
                    f"key function for {fn.class_name} registered "
                    f"under class {cname}")
        object.__setattr__(self, "functions", dict(self.functions))

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.functions)))

    def has_key(self, class_name: str) -> bool:
        return class_name in self.functions

    def key_for(self, class_name: str) -> KeyFunction:
        try:
            return self.functions[class_name]
        except KeyError:
            raise KeyError_(f"no key function for class {class_name}") from None

    def classes(self) -> Tuple[str, ...]:
        return tuple(sorted(self.functions))


@dataclass(frozen=True)
class KeyedSchema:
    """A schema together with a key specification (paper Section 2.2)."""

    schema: Schema
    keys: KeySpec

    def __post_init__(self) -> None:
        for cname in self.keys.classes():
            if not self.schema.has_class(cname):
                raise KeyError_(
                    f"key specification mentions unknown class {cname!r}")
            # Validate the key type is well formed and class-free.
            self.keys.key_for(cname).key_type(self.schema)

    @property
    def name(self) -> str:
        return self.schema.name

    def __str__(self) -> str:
        lines = [str(self.schema)]
        for cname in self.keys.classes():
            lines.append(str(self.keys.key_for(cname)))
        return "\n".join(lines)


@dataclass(frozen=True)
class KeyViolation:
    """Two distinct objects of one class sharing a key value."""

    class_name: str
    key_value: Value
    first: Oid
    second: Oid

    def __str__(self) -> str:
        return (f"key violation in class {self.class_name}: objects "
                f"{self.first} and {self.second} share key "
                f"{format_value(self.key_value)}")


def key_violations(instance: "Instance", keys: KeySpec) -> List[KeyViolation]:
    """All key violations of ``instance`` against ``keys``.

    The instance satisfies the specification iff the result is empty.
    """
    violations: List[KeyViolation] = []
    for cname in keys.classes():
        if not instance.schema.has_class(cname):
            continue
        fn = keys.key_for(cname)
        seen: Dict[Value, Oid] = {}
        for oid in sorted(instance.objects_of(cname), key=str):
            key_value = fn.apply(instance, oid)
            if key_value in seen and seen[key_value] != oid:
                violations.append(
                    KeyViolation(cname, key_value, seen[key_value], oid))
            else:
                seen[key_value] = oid
    return violations
