"""Well-typedness of WOL clauses (paper Section 3.1).

A clause is *well-typed* iff types can be assigned to all its variables such
that every atom makes sense — e.g. ``X < Y.population`` forces ``X`` to be
an integer, which clashes with ``X in CityA`` forcing ``X`` to be an object
of class ``CityA``.

The checker is a unification-based inference over the WOL type language
extended with type variables.  Projections and variant injections generate
*deferred* constraints that are discharged once the subject/expected type is
known; inference iterates to a fixpoint.  A clause type-checks when all
constraints discharge without clash.  (Variables whose types stay unresolved
are reported only by :func:`infer_clause_types` with ``require_ground``,
since partial clauses legitimately leave some head structure open.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..model.schema import Schema, SchemaError
from ..model.types import (
    BOOL, FLOAT, INT, STR, BaseType, ClassType, ListType, RecordType, SetType,
    Type, VariantType)
from ..model.values import UnitValue
from .ast import (Atom, Clause, Const, EqAtom, InAtom, LeqAtom, LtAtom,
                  MemberAtom, NeqAtom, Proj, RecordTerm, SkolemTerm, Term,
                  Var, VariantTerm)


class TypecheckError(Exception):
    """Raised when a clause cannot be well-typed."""


@dataclass(frozen=True)
class TypeVar(Type):
    """A type variable used during inference (never escapes this module
    except inside :class:`TypeReport` for unresolved variables)."""

    index: int

    def is_ground(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"?t{self.index}"


@dataclass
class TypeReport:
    """Result of type inference over a clause.

    ``obligations`` are the deferred constraints inference could not
    discharge (projection subjects, variant injections and memberships
    whose types never resolved).  They are not errors — partial clauses
    legitimately leave head structure open — but the static analyzer
    surfaces them as warnings (``WOL103``) since an undischarged
    obligation can fail at runtime.
    """

    variable_types: Dict[str, Type]
    obligations: Tuple[str, ...] = ()

    def unresolved_obligations(self) -> List[str]:
        return list(self.obligations)

    def is_ground(self, name: str) -> bool:
        ty = self.variable_types.get(name)
        return ty is not None and ty.is_ground()


class _Env:
    """Union-find style substitution plus deferred structural constraints."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._counter = itertools.count(1)
        self._subst: Dict[int, Type] = {}
        # Deferred obligations: (subject type, attr, result type, context)
        self._projections: List[Tuple[Type, str, Type, str]] = []
        # Deferred variant injections: (variant type, label, payload, ctx)
        self._variants: List[Tuple[Type, str, Type, str]] = []
        # Deferred memberships: (collection type, element type, context) —
        # the collection must resolve to a set OR a list of the element.
        self._memberships: List[Tuple[Type, Type, str]] = []

    def fresh(self) -> TypeVar:
        return TypeVar(next(self._counter))

    # -- substitution --------------------------------------------------
    def resolve(self, ty: Type) -> Type:
        """Follow the substitution at the root only."""
        while isinstance(ty, TypeVar) and ty.index in self._subst:
            ty = self._subst[ty.index]
        return ty

    def deep_resolve(self, ty: Type) -> Type:
        ty = self.resolve(ty)
        if isinstance(ty, SetType):
            return SetType(self.deep_resolve(ty.element))
        if isinstance(ty, ListType):
            return ListType(self.deep_resolve(ty.element))
        if isinstance(ty, RecordType):
            return RecordType(tuple(
                (label, self.deep_resolve(fty)) for label, fty in ty.fields))
        if isinstance(ty, VariantType):
            return VariantType(tuple(
                (label, self.deep_resolve(cty)) for label, cty in ty.choices))
        return ty

    def _occurs(self, var: TypeVar, ty: Type) -> bool:
        ty = self.resolve(ty)
        if isinstance(ty, TypeVar):
            return ty.index == var.index
        return any(self._occurs(var, child) for child in ty.children())

    def unify(self, left: Type, right: Type, context: str) -> None:
        left = self.resolve(left)
        right = self.resolve(right)
        if left == right:
            return
        if isinstance(left, TypeVar):
            if self._occurs(left, right):
                raise TypecheckError(
                    f"{context}: recursive type constraint on {left}")
            self._subst[left.index] = right
            return
        if isinstance(right, TypeVar):
            self.unify(right, left, context)
            return
        if isinstance(left, SetType) and isinstance(right, SetType):
            self.unify(left.element, right.element, context)
            return
        if isinstance(left, ListType) and isinstance(right, ListType):
            self.unify(left.element, right.element, context)
            return
        if isinstance(left, RecordType) and isinstance(right, RecordType):
            if left.labels() != right.labels():
                raise TypecheckError(
                    f"{context}: record types {left} and {right} have "
                    f"different fields")
            for label in left.labels():
                self.unify(left.field_type(label), right.field_type(label),
                           context)
            return
        if isinstance(left, VariantType) and isinstance(right, VariantType):
            if left.labels() != right.labels():
                raise TypecheckError(
                    f"{context}: variant types {left} and {right} have "
                    f"different choices")
            for label in left.labels():
                self.unify(left.choice_type(label),
                           right.choice_type(label), context)
            return
        raise TypecheckError(
            f"{context}: cannot unify {left} with {right}")

    # -- deferred constraints ------------------------------------------
    def defer_projection(self, subject: Type, attr: str, result: Type,
                         context: str) -> None:
        self._projections.append((subject, attr, result, context))

    def defer_variant(self, variant_ty: Type, label: str, payload: Type,
                      context: str) -> None:
        self._variants.append((variant_ty, label, payload, context))

    def defer_membership(self, collection: Type, element: Type,
                         context: str) -> None:
        self._memberships.append((collection, element, context))

    def run_deferred(self) -> None:
        """Discharge deferred constraints to a fixpoint."""
        for _ in range(1000):
            progressed = False
            pending_proj = []
            for subject, attr, result, context in self._projections:
                resolved = self.resolve(subject)
                if isinstance(resolved, TypeVar):
                    pending_proj.append((subject, attr, result, context))
                    continue
                self.unify(result, self._project(resolved, attr, context),
                           context)
                progressed = True
            self._projections = pending_proj

            pending_var = []
            for variant_ty, label, payload, context in self._variants:
                resolved = self.resolve(variant_ty)
                if isinstance(resolved, TypeVar):
                    pending_var.append((variant_ty, label, payload, context))
                    continue
                if not isinstance(resolved, VariantType):
                    raise TypecheckError(
                        f"{context}: ins_{label}(...) used where the "
                        f"expected type is {resolved}, not a variant")
                if not resolved.has_choice(label):
                    raise TypecheckError(
                        f"{context}: variant type {resolved} has no "
                        f"choice {label!r}")
                self.unify(payload, resolved.choice_type(label), context)
                progressed = True
            self._variants = pending_var

            pending_member = []
            for collection, element, context in self._memberships:
                resolved = self.resolve(collection)
                if isinstance(resolved, TypeVar):
                    pending_member.append((collection, element, context))
                    continue
                if isinstance(resolved, (SetType, ListType)):
                    self.unify(element, resolved.element, context)
                    progressed = True
                    continue
                raise TypecheckError(
                    f"{context}: membership in non-collection type "
                    f"{resolved}")
            self._memberships = pending_member

            if not progressed:
                return
        raise TypecheckError("type inference did not converge")

    def unresolved_obligations(self) -> List[str]:
        out = [f"{context}: cannot resolve type of subject of .{attr}"
               for _, attr, _, context in self._projections]
        out += [f"{context}: cannot resolve expected variant type of "
                f"ins_{label}(...)"
                for _, label, _, context in self._variants]
        out += [f"{context}: cannot resolve collection type of membership"
                for _, _, context in self._memberships]
        return out

    def _project(self, subject: Type, attr: str, context: str) -> Type:
        """Type of ``subject.attr``, dereferencing class types."""
        if isinstance(subject, ClassType):
            try:
                subject = self.schema.class_type(subject.name)
            except SchemaError as exc:
                raise TypecheckError(f"{context}: {exc}") from exc
        if not isinstance(subject, RecordType):
            raise TypecheckError(
                f"{context}: cannot project .{attr} from type {subject}")
        if not subject.has_field(attr):
            raise TypecheckError(
                f"{context}: type {subject} has no attribute {attr!r}")
        return subject.field_type(attr)


def _const_type(value) -> Type:
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STR
    if isinstance(value, UnitValue):
        return BaseType("unit")
    raise TypecheckError(f"constant {value!r} has no base type")


class _ClauseChecker:
    def __init__(self, schema: Schema, clause: Clause) -> None:
        self.schema = schema
        self.clause = clause
        self.env = _Env(schema)
        self.var_types: Dict[str, TypeVar] = {}

    def var_type(self, name: str) -> Type:
        if name not in self.var_types:
            self.var_types[name] = self.env.fresh()
        return self.var_types[name]

    def term_type(self, term: Term, context: str) -> Type:
        if isinstance(term, Var):
            return self.var_type(term.name)
        if isinstance(term, Const):
            return _const_type(term.value)
        if isinstance(term, Proj):
            subject = self.term_type(term.subject, context)
            result = self.env.fresh()
            self.env.defer_projection(subject, term.attr, result, context)
            return result
        if isinstance(term, VariantTerm):
            payload = self.term_type(term.payload, context)
            variant_ty = self.env.fresh()
            self.env.defer_variant(variant_ty, term.label, payload, context)
            return variant_ty
        if isinstance(term, RecordTerm):
            return RecordType(tuple(
                (label, self.term_type(value, context))
                for label, value in term.fields))
        if isinstance(term, SkolemTerm):
            if not self.schema.has_class(term.class_name):
                raise TypecheckError(
                    f"{context}: Mk_{term.class_name} refers to unknown "
                    f"class {term.class_name!r}")
            for _, arg in term.args:
                self.term_type(arg, context)  # args must be well-typed
            return ClassType(term.class_name)
        raise TypecheckError(f"{context}: unknown term {term!r}")

    def check_atom(self, atom: Atom, where: str) -> None:
        context = f"{where} atom '{atom}'"
        if isinstance(atom, MemberAtom):
            if not self.schema.has_class(atom.class_name):
                raise TypecheckError(
                    f"{context}: unknown class {atom.class_name!r} "
                    f"(did you mean a set-valued variable?)")
            element = self.term_type(atom.element, context)
            self.env.unify(element, ClassType(atom.class_name), context)
            return
        if isinstance(atom, InAtom):
            element = self.term_type(atom.element, context)
            collection = self.term_type(atom.collection, context)
            # Sets AND lists admit membership; deferred until the
            # collection's type resolves.
            self.env.defer_membership(collection, element, context)
            return
        if isinstance(atom, (EqAtom, NeqAtom)):
            left = self.term_type(atom.left, context)
            right = self.term_type(atom.right, context)
            self.env.unify(left, right, context)
            return
        if isinstance(atom, (LtAtom, LeqAtom)):
            left = self.term_type(atom.left, context)
            right = self.term_type(atom.right, context)
            self.env.unify(left, right, context)
            # Comparisons need an ordered base type; check post-hoc once
            # resolved (deferral): record as a projection-like obligation.
            self._order_obligations.append((left, context))
            return
        raise TypecheckError(f"{context}: unknown atom kind")

    _order_obligations: List[Tuple[Type, str]]

    def run(self, require_ground: bool = False) -> TypeReport:
        self._order_obligations = []
        for atom in self.clause.body:
            self.check_atom(atom, "body")
        for atom in self.clause.head:
            self.check_atom(atom, "head")
        self.env.run_deferred()

        for ty, context in self._order_obligations:
            resolved = self.env.resolve(ty)
            if isinstance(resolved, TypeVar):
                continue  # unresolved: cannot refute orderability
            if not (isinstance(resolved, BaseType)
                    and resolved.name in ("int", "float", "str")):
                raise TypecheckError(
                    f"{context}: ordered comparison on non-orderable "
                    f"type {resolved}")

        leftovers = self.env.unresolved_obligations()
        if leftovers and require_ground:
            raise TypecheckError("; ".join(leftovers))

        report = TypeReport({
            name: self.env.deep_resolve(tv)
            for name, tv in self.var_types.items()},
            obligations=tuple(leftovers))
        if require_ground:
            vague = sorted(name for name, ty in report.variable_types.items()
                           if not ty.is_ground())
            if vague:
                raise TypecheckError(
                    f"clause '{self.clause}': cannot resolve ground types "
                    f"for variables {vague}")
        return report


def check_clause(schema: Schema, clause: Clause,
                 require_ground: bool = False) -> TypeReport:
    """Type-check one clause against ``schema``.

    ``schema`` is the union of all participating databases' schemas (use
    :func:`repro.model.schema.merge_schemas` for multi-database clauses).
    Raises :class:`TypecheckError` when the clause cannot be well-typed.
    """
    checker = _ClauseChecker(schema, clause)
    try:
        return checker.run(require_ground=require_ground)
    except TypecheckError as exc:
        label = clause.name or str(clause)
        raise TypecheckError(f"clause {label}: {exc}") from exc
