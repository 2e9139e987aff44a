"""Clause satisfaction over instances (paper Section 3.1).

A clause is *satisfied* iff for every instantiation of the body variables
making all body atoms true, there is an instantiation of any additional head
variables making all head atoms true.

Clauses may span several databases (constraints over a source, over a
target, or inter-database transformation clauses); callers merge the
participating instances with :func:`merge_instances` first so that one
valuation covers every class mentioned.

Skolem terms are interpreted canonically: ``Mk_C(args)`` denotes the keyed
object identity determined by its argument values.  Satisfaction of key
clauses like ``Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name`` therefore
holds exactly for instances whose oids *are* the Skolem-generated ones —
which is what the execution engine produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..lang.ast import Clause
from ..model.instance import Instance, InstanceError
from ..model.schema import merge_schemas
from ..model.values import Oid, Value, format_value
from ..obs.trace import span
from .eval import Binding
from .match import Matcher


@dataclass
class Violation:
    """A body binding with no head extension: a counterexample."""

    clause: Clause
    binding: Binding

    def __str__(self) -> str:
        label = self.clause.name or str(self.clause)
        witness = ", ".join(
            f"{name} = {format_value(value)}"
            for name, value in sorted(self.binding.items()))
        return f"clause {label} violated at {{{witness}}}"


def merge_instances(name: str, instances: Sequence[Instance]) -> Instance:
    """Union several instances over the merged schema.

    Class names must be disjoint across the inputs (use distinct schemas per
    database, as the paper does).  A duplicated class would silently lose
    one input's objects to the other's, so the collision is detected here
    and raised as :class:`~repro.model.instance.InstanceError` *before*
    any valuation is assembled — the schema-level check alone reports
    schema names, which are often both auto-generated (``__source__``).
    """
    seen: Dict[str, int] = {}
    for position, inst in enumerate(instances):
        for cname in inst.schema.class_names():
            if cname in seen:
                raise InstanceError(
                    f"cannot merge instances {name!r}: class {cname!r} "
                    f"appears in both instance #{seen[cname]} and "
                    f"instance #{position} (class names must be disjoint; "
                    f"merging would overwrite one side's objects)")
            seen[cname] = position
    schema = merge_schemas(name, [inst.schema for inst in instances])
    valuations: Dict[str, Dict[Oid, Value]] = {}
    for inst in instances:
        for cname in inst.schema.class_names():
            valuations[cname] = dict(inst.valuations[cname])
    return Instance(schema, valuations)


def clause_violations(instance: Instance, clause: Clause,
                      limit: Optional[int] = None,
                      matcher: Optional[Matcher] = None,
                      plan=None) -> List[Violation]:
    """Counterexamples to ``clause`` in ``instance`` (up to ``limit``).

    ``matcher`` injects a shared matcher (and with it a shared
    :class:`~repro.semantics.match.IndexPool`); by default the clause
    gets a private one with lazy indexes.  ``plan`` supplies a
    :class:`~repro.engine.planner.ConstraintPlan`: the body enumeration
    and the per-solution head-satisfiability probe then run their
    precompiled step orders instead of re-deriving atom readiness for
    every partial binding.  Without a plan (or for the half of a plan
    the planner could not order) the dynamic matcher enumerates — the
    per-clause fallback, and what :mod:`repro.oracle` runs as the
    differential reference; both report the same violations
    (``tests/constraints`` enforces it).  ``limit=0`` reports none.

    A planned body enumeration runs as batch stages through the
    vectorized compiler
    (:func:`repro.engine.columnar.stream_plan_columnar`) — same
    solutions in the same order, so ``limit`` truncates identically.
    The per-solution head probe stays scalar: it is an existence check
    with an early exit, which the batch model cannot shortcut.  Each
    probe goes through :meth:`Matcher.solutions`, which checks once —
    with set operations over sets the plan's steps carry, no walk of
    the atoms — that the head plan's boundness fits the projected
    binding before running it.

    Under an active trace the clause is one ``clause <name>`` span
    carrying ``body_solutions`` and ``violations``.
    """
    if limit is not None and limit <= 0:
        return []
    matcher = matcher if matcher is not None else Matcher(instance)
    body_vars = frozenset().union(
        *(atom.variables() for atom in clause.body)) if clause.body else frozenset()
    body_steps = plan.body.steps if (
        plan is not None and plan.body is not None) else None
    head_steps = plan.head.steps if (
        plan is not None and plan.head is not None) else None
    violations: List[Violation] = []
    body_solutions = 0
    with span(f"clause {clause.name or clause}") as clause_span:
        if body_steps is not None:
            from ..engine.columnar import stream_plan_columnar
            body_bindings = stream_plan_columnar(matcher, body_steps, None)
        else:
            body_bindings = matcher.solutions(clause.body)
        for body_binding in body_bindings:
            body_solutions += 1
            # Project to body variables: head checking re-derives the
            # rest.
            projected = {name: value
                         for name, value in body_binding.items()
                         if name in body_vars}
            if not matcher.satisfiable(clause.head, projected,
                                       plan=head_steps):
                violations.append(Violation(clause, projected))
                if limit is not None and len(violations) >= limit:
                    break
        clause_span.set(body_solutions=body_solutions,
                        violations=len(violations))
    return violations


def satisfies_clause(instance: Instance, clause: Clause) -> bool:
    """True iff ``instance`` satisfies ``clause``."""
    return not clause_violations(instance, clause, limit=1)


def program_violations(instance: Instance, program: Iterable[Clause],
                       limit_per_clause: Optional[int] = None,
                       plan=None) -> List[Violation]:
    """All violations of all clauses (constraint audit).

    The whole audit is *planned*: every clause's body and head probe
    are compiled once by :func:`repro.engine.planner.plan_audit` and
    executed over one shared, prebuilt :class:`IndexPool` instead of a
    fresh matcher (with private lazy indexes) per clause.  ``plan``
    injects a precomputed :class:`~repro.engine.planner.AuditPlan`
    (e.g. to amortise planning and index builds across repeated audits
    of one instance).
    """
    clauses = list(program)
    audit_plan = plan
    if audit_plan is None:
        from ..engine.planner import plan_audit
        audit_plan = plan_audit(clauses, instance)
    elif audit_plan.pool.instance is not instance:
        raise ValueError(
            "injected audit plan was built for a different instance; "
            "its indexes would silently produce wrong violation sets "
            "(re-plan with plan_audit against this instance)")
    matcher = Matcher(instance, index_pool=audit_plan.pool)
    violations: List[Violation] = []
    for index, clause in enumerate(clauses):
        # Plans align with the clause sequence; an injected plan built
        # from a different sequence is matched by clause instead.
        if (index < len(audit_plan.plans)
                and audit_plan.plans[index].clause is clause):
            clause_plan = audit_plan.plans[index]
        else:
            clause_plan = audit_plan.plan_for(clause)
        violations.extend(clause_violations(
            instance, clause, limit_per_clause, matcher=matcher,
            plan=clause_plan))
    return violations


def satisfies_program(instance: Instance,
                      program: Iterable[Clause]) -> bool:
    """True iff every clause is satisfied."""
    return not program_violations(instance, program, limit_per_clause=1)
