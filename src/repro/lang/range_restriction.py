"""Range restriction (safety) of WOL clauses (paper Section 3.1).

Range restriction ensures every variable is bound to an object or value
occurring in the database instance, similar to safety in Datalog.  The
paper's counterexample::

    X.population < Y <= X in CityA

is rejected because nothing binds ``Y``.

Binding rules (computed to a fixpoint):

* ``X in C`` (class membership) binds the *determinable positions* of the
  element term — for a variable element, the variable itself.
* ``X in S`` (set membership) binds the element's determinable positions
  once every variable of ``S`` is bound.
* ``s = t`` binds the determinable positions of either side once the other
  side is fully bound.  Determinable positions are: a bare variable; the
  fields of a record term; the payload of a variant term; and the arguments
  of a Skolem term (Skolem functions are injective, so the identity
  determines the arguments).  A projection subject is *not* determinable:
  knowing ``Y.a`` does not determine ``Y``.
* Comparison atoms (``<``, ``=<``, ``!=``) bind nothing; they only test.

Body variables must all be bound by body atoms.  Head-only variables are
existentially quantified ("there is an instantiation of any additional
variables in the head", Section 3.1) and may additionally be bound by head
class-membership atoms and head equations.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from .ast import (
    Atom, Clause, Const, EqAtom, InAtom, MemberAtom, Proj, RecordTerm,
    SkolemTerm, Term, Var, VariantTerm)


class RangeRestrictionError(Exception):
    """Raised when a clause is not range-restricted."""


def determinable_vars(term: Term) -> FrozenSet[str]:
    """Variables of ``term`` recoverable from the term's value.

    See the module docstring: fields, payloads and Skolem arguments are
    invertible positions; projection subjects are not.
    """
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, (Const, Proj)):
        return frozenset()
    if isinstance(term, VariantTerm):
        return determinable_vars(term.payload)
    if isinstance(term, RecordTerm):
        out: FrozenSet[str] = frozenset()
        for _, value in term.fields:
            out |= determinable_vars(value)
        return out
    if isinstance(term, SkolemTerm):
        out = frozenset()
        for _, arg in term.args:
            out |= determinable_vars(arg)
        return out
    return frozenset()


#: One binding rule: once every variable of the first set is bound, so
#: is every variable of the second.
_Rule = Tuple[FrozenSet[str], FrozenSet[str]]


def _rules(atoms: Iterable[Atom]) -> List[_Rule]:
    """The binding rules of ``atoms``, in atom order (each term is
    walked once here, not once per propagation round)."""
    rules: List[_Rule] = []
    for atom in atoms:
        if isinstance(atom, MemberAtom):
            # Class membership ranges over a finite class extent (body) or
            # asserts existence of such an object (head); either way the
            # element is bound.
            rules.append((frozenset(), determinable_vars(atom.element)))
        elif isinstance(atom, InAtom):
            rules.append((atom.collection.variables(),
                          determinable_vars(atom.element)))
        elif isinstance(atom, EqAtom):
            rules.append((atom.left.variables(),
                          determinable_vars(atom.right)))
            rules.append((atom.right.variables(),
                          determinable_vars(atom.left)))
        # NeqAtom / LtAtom / LeqAtom bind nothing.
    return rules


def _closure(rules: Sequence[_Rule], bound: Set[str]) -> FrozenSet[str]:
    """Propagate ``rules`` from ``bound`` to a fixpoint."""
    changed = True
    while changed:
        changed = False
        for required, determinable in rules:
            if required <= bound and not determinable <= bound:
                bound |= determinable
                changed = True
    return frozenset(bound)


def body_bound_variables(clause: Clause) -> FrozenSet[str]:
    """Variables bound by the clause body alone."""
    return _closure(_rules(clause.body), set())


def _bound(clause: Clause) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """The variables the body binds, and those body plus head bind."""
    body_rules = _rules(clause.body)
    body_bound = _closure(body_rules, set())
    return body_bound, _closure(_rules(clause.head) + body_rules,
                                set(body_bound))


def unrestricted_variables(clause: Clause) -> Tuple[FrozenSet[str],
                                                    FrozenSet[str]]:
    """Return (unrestricted body variables, unrestricted head variables)."""
    body_vars: Set[str] = set()
    for atom in clause.body:
        body_vars |= atom.variables()
    head_vars: Set[str] = set()
    for atom in clause.head:
        head_vars |= atom.variables()

    body_bound, all_bound = _bound(clause)
    bad_body = frozenset(body_vars) - body_bound
    bad_head = frozenset(head_vars) - all_bound
    return bad_body, bad_head


def check_range_restriction(clause: Clause) -> None:
    """Raise :class:`RangeRestrictionError` for unrestricted variables."""
    bad_body, bad_head = unrestricted_variables(clause)
    if bad_body or bad_head:
        label = clause.name or str(clause)
        parts: List[str] = []
        if bad_body:
            parts.append(f"body variables {sorted(bad_body)}")
        if bad_head:
            parts.append(f"head variables {sorted(bad_head)}")
        raise RangeRestrictionError(
            f"clause {label}: not range-restricted: "
            + " and ".join(parts))
