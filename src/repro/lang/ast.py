"""Abstract syntax of the WOL language (paper Section 3.1).

A WOL *clause* has the form ``head <= body`` where head and body are finite
sets of *atoms*; atoms are basic logical statements over *terms*.  The same
clause syntax expresses both constraints and transformations — which one a
clause is depends on which databases its classes belong to, not on its shape.

Terms
-----
* :class:`Var` — a logic variable (``X``, ``Y``...).
* :class:`Const` — a constant of base type (``"Paris"``, ``42``, ``true``).
* :class:`Proj` — attribute projection ``t.a`` (dereferencing object
  identities, the paper's ``x.a`` notation).
* :class:`VariantTerm` — variant injection ``ins_label(t)``.
* :class:`RecordTerm` — record construction ``(a = t1, b = t2)``.
* :class:`SkolemTerm` — Skolem function application ``Mk_Class(...)``
  creating object identities uniquely determined by the arguments.

Atoms
-----
* :class:`MemberAtom` — class membership ``X in CityA``.
* :class:`InAtom` — set membership ``X in Y.cities``.
* :class:`EqAtom`, :class:`NeqAtom`, :class:`LtAtom`, :class:`LeqAtom` —
  comparisons.

All nodes are immutable; substitution and renaming return fresh trees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple, Union

from ..model.values import UNIT_VALUE, UnitValue, format_value


class AstError(Exception):
    """Raised for malformed AST constructions."""


# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """Abstract base class for WOL terms."""

    def variables(self) -> FrozenSet[str]:
        """The free variables of the term."""
        return frozenset(v.name for v in self.walk() if isinstance(v, Var))

    def walk(self) -> Iterator["Term"]:
        """Yield this term and all sub-terms, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> Tuple["Term", ...]:
        return ()

    def substitute(self, binding: Mapping[str, "Term"]) -> "Term":
        """Replace variables by terms according to ``binding``."""
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Term":
        """Rename variables (a special case of substitution)."""
        return self.substitute(
            {old: Var(new) for old, new in mapping.items()})


@dataclass(frozen=True)
class Var(Term):
    """A logic variable."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not (self.name[0].isalpha() or
                                 self.name[0] == "_"):
            raise AstError(f"invalid variable name {self.name!r}")

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return binding.get(self.name, self)

    def __str__(self) -> str:
        return self.name


# Python scalars usable inside Const.
ConstValue = Union[int, str, bool, float, UnitValue]


@dataclass(frozen=True)
class Const(Term):
    """A constant of base type."""

    value: ConstValue

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return self

    def __str__(self) -> str:
        return format_value(self.value)


UNIT_CONST = Const(UNIT_VALUE)


@dataclass(frozen=True)
class Proj(Term):
    """Attribute projection ``subject.attr``.

    When the subject denotes an object identity the projection implicitly
    dereferences it (take ``V^C(x)`` and project), per Section 2.2.
    """

    subject: Term
    attr: str

    def children(self) -> Tuple[Term, ...]:
        return (self.subject,)

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return Proj(self.subject.substitute(binding), self.attr)

    def __str__(self) -> str:
        return f"{self.subject}.{self.attr}"


@dataclass(frozen=True)
class VariantTerm(Term):
    """Variant injection ``ins_label(payload)``; unit payload by default."""

    label: str
    payload: Term = UNIT_CONST

    def children(self) -> Tuple[Term, ...]:
        return (self.payload,)

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return VariantTerm(self.label, self.payload.substitute(binding))

    def __str__(self) -> str:
        if self.payload == UNIT_CONST:
            return f"ins_{self.label}()"
        return f"ins_{self.label}({self.payload})"


@dataclass(frozen=True)
class RecordTerm(Term):
    """Record construction ``(a = t1, ..., k = tk)`` (label-sorted)."""

    fields: Tuple[Tuple[str, Term], ...]

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.fields]
        if len(set(labels)) != len(labels):
            raise AstError(f"duplicate record labels in term: {labels}")
        canonical = tuple(sorted(self.fields, key=lambda item: item[0]))
        object.__setattr__(self, "fields", canonical)

    @staticmethod
    def of(**fields: Term) -> "RecordTerm":
        return RecordTerm(tuple(fields.items()))

    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.fields)

    def children(self) -> Tuple[Term, ...]:
        return tuple(term for _, term in self.fields)

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return RecordTerm(tuple(
            (label, term.substitute(binding)) for label, term in self.fields))

    def __str__(self) -> str:
        inner = ", ".join(f"{label} = {term}" for label, term in self.fields)
        return f"({inner})"


@dataclass(frozen=True)
class SkolemTerm(Term):
    """Skolem function application ``Mk_Class(arg1, ...)``.

    Skolem functions create object identities *uniquely associated with
    their arguments* (Section 3.1): equal arguments yield the same identity
    and the functions are injective.  Arguments are either all positional
    (labels ``None``) or all labelled (``Mk_CityT(name = N, country = C)``).
    """

    class_name: str
    args: Tuple[Tuple[Optional[str], Term], ...]

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.args]
        named = [label for label in labels if label is not None]
        if named and len(named) != len(labels):
            raise AstError(
                f"Mk_{self.class_name}: mix of named and positional args")
        if len(set(named)) != len(named):
            raise AstError(f"Mk_{self.class_name}: duplicate arg labels")
        if named:
            canonical = tuple(sorted(self.args, key=lambda item: item[0]))
            object.__setattr__(self, "args", canonical)

    @staticmethod
    def named(class_name: str, **args: Term) -> "SkolemTerm":
        return SkolemTerm(class_name, tuple(args.items()))

    @property
    def is_named(self) -> bool:
        return bool(self.args) and self.args[0][0] is not None

    def children(self) -> Tuple[Term, ...]:
        return tuple(term for _, term in self.args)

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return SkolemTerm(self.class_name, tuple(
            (label, term.substitute(binding)) for label, term in self.args))

    def __str__(self) -> str:
        if self.is_named:
            inner = ", ".join(f"{label} = {term}"
                              for label, term in self.args)
        else:
            inner = ", ".join(str(term) for _, term in self.args)
        return f"Mk_{self.class_name}({inner})"


# ----------------------------------------------------------------------
# Atoms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """Abstract base class for WOL atoms."""

    def terms(self) -> Tuple[Term, ...]:
        raise NotImplementedError

    def variables(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for term in self.terms():
            out |= term.variables()
        return out

    def substitute(self, binding: Mapping[str, Term]) -> "Atom":
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Atom":
        return self.substitute(
            {old: Var(new) for old, new in mapping.items()})


@dataclass(frozen=True)
class MemberAtom(Atom):
    """Class membership ``element in ClassName``."""

    element: Term
    class_name: str

    def terms(self) -> Tuple[Term, ...]:
        return (self.element,)

    def substitute(self, binding: Mapping[str, Term]) -> Atom:
        return MemberAtom(self.element.substitute(binding), self.class_name)

    def __str__(self) -> str:
        return f"{self.element} in {self.class_name}"


@dataclass(frozen=True)
class InAtom(Atom):
    """Set membership ``element in collection`` (collection a set term)."""

    element: Term
    collection: Term

    def terms(self) -> Tuple[Term, ...]:
        return (self.element, self.collection)

    def substitute(self, binding: Mapping[str, Term]) -> Atom:
        return InAtom(self.element.substitute(binding),
                      self.collection.substitute(binding))

    def __str__(self) -> str:
        return f"{self.element} in {self.collection}"


@dataclass(frozen=True)
class EqAtom(Atom):
    """Equality ``left = right``."""

    left: Term
    right: Term

    def terms(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def substitute(self, binding: Mapping[str, Term]) -> Atom:
        return EqAtom(self.left.substitute(binding),
                      self.right.substitute(binding))

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class NeqAtom(Atom):
    """Disequality ``left != right``."""

    left: Term
    right: Term

    def terms(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def substitute(self, binding: Mapping[str, Term]) -> Atom:
        return NeqAtom(self.left.substitute(binding),
                       self.right.substitute(binding))

    def __str__(self) -> str:
        return f"{self.left} != {self.right}"


@dataclass(frozen=True)
class LtAtom(Atom):
    """Strict order ``left < right``."""

    left: Term
    right: Term

    def terms(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def substitute(self, binding: Mapping[str, Term]) -> Atom:
        return LtAtom(self.left.substitute(binding),
                      self.right.substitute(binding))

    def __str__(self) -> str:
        return f"{self.left} < {self.right}"


@dataclass(frozen=True)
class LeqAtom(Atom):
    """Non-strict order ``left =< right`` (written ``=<`` to keep ``<=``
    free for clause implication)."""

    left: Term
    right: Term

    def terms(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def substitute(self, binding: Mapping[str, Term]) -> Atom:
        return LeqAtom(self.left.substitute(binding),
                       self.right.substitute(binding))

    def __str__(self) -> str:
        return f"{self.left} =< {self.right}"


# ----------------------------------------------------------------------
# Clauses and programs
# ----------------------------------------------------------------------

#: Declared clause kinds.  ``None`` means "classify me from the schemas".
KIND_CONSTRAINT = "constraint"
KIND_TRANSFORMATION = "transformation"


@dataclass(frozen=True)
class Clause:
    """A WOL clause ``head <= body``.

    ``head`` and ``body`` are tuples (sets with a deterministic order) of
    atoms.  ``kind`` records a declared role when the programmer wrote one;
    classification against schemas lives in :mod:`repro.morphase.metadata`.
    """

    head: Tuple[Atom, ...]
    body: Tuple[Atom, ...]
    name: Optional[str] = None
    kind: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.head:
            raise AstError("a clause needs at least one head atom")
        if self.kind not in (None, KIND_CONSTRAINT, KIND_TRANSFORMATION):
            raise AstError(f"unknown clause kind {self.kind!r}")

    def variables(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for atom in self.head + self.body:
            out |= atom.variables()
        return out

    def atoms(self) -> Tuple[Atom, ...]:
        return self.head + self.body

    def substitute(self, binding: Mapping[str, Term]) -> "Clause":
        return Clause(
            tuple(atom.substitute(binding) for atom in self.head),
            tuple(atom.substitute(binding) for atom in self.body),
            name=self.name, kind=self.kind)

    def rename(self, mapping: Mapping[str, str]) -> "Clause":
        return self.substitute(
            {old: Var(new) for old, new in mapping.items()})

    def rename_apart(self, taken: FrozenSet[str],
                     counter: Optional[Iterator[int]] = None) -> "Clause":
        """Rename this clause's variables away from ``taken``."""
        if counter is None:
            counter = itertools.count(1)
        mapping: Dict[str, str] = {}
        used = set(taken)
        for name in sorted(self.variables()):
            if name in used:
                fresh = name
                while fresh in used or fresh in self.variables():
                    fresh = f"{name}_{next(counter)}"
                mapping[name] = fresh
                used.add(fresh)
        if not mapping:
            return self
        return self.rename(mapping)

    def classes_mentioned(self) -> FrozenSet[str]:
        """All class names in membership atoms and Skolem terms."""
        names = set()
        for atom in self.atoms():
            if isinstance(atom, MemberAtom):
                names.add(atom.class_name)
            for term in atom.terms():
                for node in term.walk():
                    if isinstance(node, SkolemTerm):
                        names.add(node.class_name)
        return frozenset(names)

    def size(self) -> int:
        """Number of atoms (paper's measure of program size)."""
        return len(self.head) + len(self.body)

    def __str__(self) -> str:
        head = ", ".join(str(atom) for atom in self.head)
        if not self.body:
            return f"{head};"
        body = ", ".join(str(atom) for atom in self.body)
        return f"{head} <= {body};"


@dataclass(frozen=True)
class Program:
    """A WOL program: a finite set of clauses.

    Programs mix transformation clauses and constraints (Section 3.2); the
    Morphase pipeline partitions them against the source/target schemas.
    """

    clauses: Tuple[Clause, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.clauses if c.name is not None]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise AstError(f"duplicate clause names: {duplicates}")

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def clause(self, name: str) -> Clause:
        for clause in self.clauses:
            if clause.name == name:
                return clause
        raise AstError(f"no clause named {name!r}")

    def size(self) -> int:
        """Total atom count across clauses (the paper's program size)."""
        return sum(clause.size() for clause in self.clauses)

    def with_clauses(self, clauses: Tuple[Clause, ...]) -> "Program":
        return Program(clauses)

    def __str__(self) -> str:
        return "\n".join(self._render(clause) for clause in self.clauses)

    @staticmethod
    def _render(clause: Clause) -> str:
        prefix = ""
        if clause.kind is not None:
            prefix += clause.kind + " "
        if clause.name is not None:
            prefix += clause.name + ": "
        return prefix + str(clause)
