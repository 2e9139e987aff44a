"""Semi-normal form (SNF) rewriting (paper Section 5).

The first stage of the Morphase pipeline "reduces the number of forms the
atoms of a clause can take, so that any two equivalent clauses or sets of
atoms will differ only in their choice of variables".  After SNF conversion
every atom has one of the canonical shapes::

    X in C                      class membership, X a variable
    X in Y                      set membership, both variables
    X = Y | X = c               variable/constant equality
    X = Y.a                     projection (attribute read/assignment)
    X = ins_l(Y) | ins_l()      variant injection, payload a variable
    X = (a1 = Y1, ...)          record construction, fields variables
    X = Mk_C(Y1, ...)           Skolem application, arguments variables
    X != Y', X < Y', X =< Y'    comparisons over variables/constants

Nested terms are flattened by introducing fresh auxiliary variables
(prefixed ``_s``).  Auxiliary *definition* atoms created while flattening a
head atom are moved into the body when they are evaluable from body-bound
variables (pure reads of source data); everything else stays in the head.
This move is semantics-preserving because definition atoms are
deterministic and total, and it is what lets the normaliser read head atoms
directionally (``V = X.a`` with ``X`` a created object is an assignment).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..lang.ast import (Atom, Clause, Const, EqAtom, InAtom, LeqAtom, LtAtom,
                        MemberAtom, NeqAtom, Proj, RecordTerm,
                        SkolemTerm, Term, Var, VariantTerm)


class SnfError(Exception):
    """Raised when a clause cannot be put into semi-normal form."""


AUX_PREFIX = "_s"


class _Fresh:
    """Fresh auxiliary variable supply, avoiding a clause's variables."""

    def __init__(self, avoid: Set[str]) -> None:
        self._avoid = set(avoid)
        self._counter = 0

    def __call__(self) -> Var:
        while True:
            self._counter += 1
            name = f"{AUX_PREFIX}{self._counter}"
            if name not in self._avoid:
                self._avoid.add(name)
                return Var(name)


def is_snf_simple(term: Term) -> bool:
    """A variable or constant (the only things allowed in nested position)."""
    return isinstance(term, (Var, Const))


def is_snf_rhs(term: Term) -> bool:
    """A term allowed on the right of an SNF equality."""
    if is_snf_simple(term):
        return True
    if isinstance(term, Proj):
        return isinstance(term.subject, Var)
    if isinstance(term, VariantTerm):
        return is_snf_simple(term.payload)
    if isinstance(term, RecordTerm):
        return all(is_snf_simple(value) for _, value in term.fields)
    if isinstance(term, SkolemTerm):
        return all(is_snf_simple(value) for _, value in term.args)
    return False


def is_snf_atom(atom: Atom) -> bool:
    """Is the atom already in one of the canonical shapes?"""
    if isinstance(atom, MemberAtom):
        return isinstance(atom.element, Var)
    if isinstance(atom, InAtom):
        return (isinstance(atom.element, Var)
                and isinstance(atom.collection, Var))
    if isinstance(atom, EqAtom):
        return isinstance(atom.left, Var) and is_snf_rhs(atom.right)
    if isinstance(atom, (NeqAtom, LtAtom, LeqAtom)):
        return is_snf_simple(atom.left) and is_snf_simple(atom.right)
    return False


def is_snf_clause(clause: Clause) -> bool:
    return all(is_snf_atom(atom) for atom in clause.atoms())


def _flatten(term: Term, out: List[Atom], fresh: _Fresh) -> Term:
    """Flatten ``term`` to a Var/Const, emitting definitions into ``out``."""
    if is_snf_simple(term):
        return term
    if isinstance(term, Proj):
        subject = _flatten(term.subject, out, fresh)
        if isinstance(subject, Const):
            raise SnfError(f"projection off a constant in {term}")
        var = fresh()
        out.append(EqAtom(var, Proj(subject, term.attr)))
        return var
    if isinstance(term, VariantTerm):
        payload = _flatten(term.payload, out, fresh)
        var = fresh()
        out.append(EqAtom(var, VariantTerm(term.label, payload)))
        return var
    if isinstance(term, RecordTerm):
        fields = tuple((label, _flatten(value, out, fresh))
                       for label, value in term.fields)
        var = fresh()
        out.append(EqAtom(var, RecordTerm(fields)))
        return var
    if isinstance(term, SkolemTerm):
        args = tuple((label, _flatten(value, out, fresh))
                     for label, value in term.args)
        var = fresh()
        out.append(EqAtom(var, SkolemTerm(term.class_name, args)))
        return var
    raise SnfError(f"cannot flatten term {term!r}")


def _flatten_shallow(term: Term, out: List[Atom], fresh: _Fresh) -> Term:
    """Flatten only the *arguments* of a constructor-like term, keeping the
    constructor itself in place (avoids a useless auxiliary variable when
    the term sits directly on the right of an equality)."""
    if isinstance(term, Proj):
        subject = _flatten(term.subject, out, fresh)
        if isinstance(subject, Const):
            raise SnfError(f"projection off a constant in {term}")
        return Proj(subject, term.attr)
    if isinstance(term, VariantTerm):
        return VariantTerm(term.label, _flatten(term.payload, out, fresh))
    if isinstance(term, RecordTerm):
        return RecordTerm(tuple(
            (label, _flatten(value, out, fresh))
            for label, value in term.fields))
    if isinstance(term, SkolemTerm):
        return SkolemTerm(term.class_name, tuple(
            (label, _flatten(value, out, fresh))
            for label, value in term.args))
    return _flatten(term, out, fresh)


def _flatten_atom(atom: Atom, out: List[Atom], fresh: _Fresh) -> Atom:
    """Flatten one atom; emits auxiliary definitions into ``out``."""
    if isinstance(atom, MemberAtom):
        element = _flatten(atom.element, out, fresh)
        if isinstance(element, Const):
            raise SnfError(f"constant cannot be a class member: {atom}")
        return MemberAtom(element, atom.class_name)
    if isinstance(atom, InAtom):
        element = _flatten(atom.element, out, fresh)
        if isinstance(element, Const):
            aux = fresh()
            out.append(EqAtom(aux, element))
            element = aux
        collection = _flatten(atom.collection, out, fresh)
        if isinstance(collection, Const):
            raise SnfError(f"constant cannot be a collection: {atom}")
        return InAtom(element, collection)
    if isinstance(atom, EqAtom):
        left, right = atom.left, atom.right
        # Prefer a bare variable on the left.
        if not isinstance(left, Var) and isinstance(right, Var):
            left, right = right, left
        if isinstance(left, Var):
            return EqAtom(left, _flatten_shallow(right, out, fresh))
        if isinstance(right, Var):  # pragma: no cover - handled by swap
            return EqAtom(right, _flatten_shallow(left, out, fresh))
        if isinstance(left, Const) and isinstance(right, Const):
            # Constant equation: keep as an aux-var test.
            var = fresh()
            out.append(EqAtom(var, left))
            return EqAtom(var, right)
        # Both sides complex: flatten one to a variable.
        left_flat = _flatten(left, out, fresh)
        if isinstance(left_flat, Const):
            aux = fresh()
            out.append(EqAtom(aux, left_flat))
            left_flat = aux
        return EqAtom(left_flat, _flatten_shallow(right, out, fresh))
    if isinstance(atom, (NeqAtom, LtAtom, LeqAtom)):
        left = _flatten(atom.left, out, fresh)
        right = _flatten(atom.right, out, fresh)
        return type(atom)(left, right)
    raise SnfError(f"unknown atom kind: {atom!r}")


def _movable_to_body(head_atoms: List[Atom], body_vars: Set[str]
                     ) -> Tuple[List[Atom], List[Atom]]:
    """Split SNF head atoms into (move-to-body, keep-in-head).

    A head equation ``V = rhs`` is a *deterministic definition* — and hence
    semantics-preserving to evaluate in the body — when:

    * ``V`` is a head-only variable (for a body variable the atom is a
      test/assertion, which must stay a head obligation),
    * every variable ``rhs`` consumes is body-derivable (fixpoint),
    * ``rhs`` is not a Skolem application (identity atoms stay in the head
      so the normaliser can read off object identities directly), and
    * ``V`` is not the collection of a head set-insertion ``E in V`` (the
      pair ``V = X.attr, E in V`` is an *insertion into* ``X.attr`` and
      must stay a head obligation as a unit).

    Everything else — class memberships, assignments to created objects,
    set insertions, comparisons — stays in the head.
    """
    collection_vars = {
        atom.collection.name for atom in head_atoms
        if isinstance(atom, InAtom) and isinstance(atom.collection, Var)}
    movable: List[Atom] = []
    remaining = list(head_atoms)
    derived = set(body_vars)
    changed = True
    while changed:
        changed = False
        still: List[Atom] = []
        for atom in remaining:
            is_definition = (
                isinstance(atom, EqAtom)
                and isinstance(atom.left, Var)
                and atom.left.name not in derived
                and atom.left.name not in collection_vars
                and not isinstance(atom.right, SkolemTerm)
                and atom.right.variables() <= derived)
            if is_definition:
                movable.append(atom)
                derived.add(atom.left.name)  # type: ignore[union-attr]
                changed = True
            else:
                still.append(atom)
        remaining = still
    return movable, remaining


def snf_clause(clause: Clause) -> Clause:
    """Convert one clause to semi-normal form."""
    fresh = _Fresh(set(clause.variables()))

    body: List[Atom] = []
    for atom in clause.body:
        aux: List[Atom] = []
        core = _flatten_atom(atom, aux, fresh)
        body.extend(aux)
        body.append(core)

    body_vars: Set[str] = set()
    for atom in body:
        body_vars |= atom.variables()

    head_pool: List[Atom] = []
    for atom in clause.head:
        aux = []
        core = _flatten_atom(atom, aux, fresh)
        head_pool.extend(aux)
        head_pool.append(core)

    movable, kept = _movable_to_body(head_pool, body_vars)
    if not kept:
        # Every head atom was a movable definition (a degenerate fact
        # clause): a clause must keep at least one head obligation.
        kept = [movable.pop()]
    body.extend(movable)

    return Clause(tuple(_dedup(kept)), tuple(_dedup(body)),
                  name=clause.name, kind=clause.kind)


def _dedup(atoms: List[Atom]) -> List[Atom]:
    seen = set()
    out = []
    for atom in atoms:
        if atom not in seen:
            seen.add(atom)
            out.append(atom)
    return out
