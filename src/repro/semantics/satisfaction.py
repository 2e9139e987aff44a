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

Checking runs each clause's join plans
(:func:`repro.engine.planner.plan_audit`) as one anti-join: the body
as batch stages, then the head, planned with the body's variables
pre-bound, once over the whole body batch — the violations are
``body − (body ⋉ head)``.  A clause whose body or head admits no join
order raises :class:`~repro.engine.planner.PlanError` when it is
planned; the dynamic-order reference is
:func:`repro.oracle.naive_violations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only (the planner imports
    # this package's plan steps)
    from ..engine.columnar import CompiledPlan
    from ..engine.planner import AuditPlan, ConstraintPlan

from ..lang.ast import Clause
from ..model.instance import Instance, InstanceError
from ..model.schema import merge_schemas
from ..model.values import Oid, Value, format_value
from ..obs.trace import span
from .eval import Binding
from .match import IndexPool


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


def clause_violations(pool: IndexPool, plan: "ConstraintPlan",
                      limit: Optional[int] = None,
                      head: Optional["CompiledPlan"] = None
                      ) -> List[Violation]:
    """Counterexamples to ``plan.clause`` in ``pool.instance`` (up to
    ``limit``; ``limit=0`` reports none).

    ``plan`` is the clause's
    :class:`~repro.engine.planner.ConstraintPlan`.  The body runs its
    plan as batch stages (solutions in plan order); when it has any,
    the head plan runs once over the whole body batch
    (:func:`repro.engine.columnar.unextended_rows`) and the body rows
    it never extends are the violations, in body order — so ``limit``
    keeps a deterministic prefix.  ``head`` is the head plan's
    :func:`~repro.engine.columnar.compile_probe` result, else compiled
    here against the body's membership typing.  The dynamic reference,
    :func:`repro.oracle.naive_violations`, reports the same violations
    (``tests/constraints`` enforces it).

    Under an active trace the clause is one ``clause <name>`` span
    carrying ``body_solutions``, ``head_rows`` (rows entering the head
    batch) and ``violations``.
    """
    if limit is not None and limit <= 0:
        return []
    from ..engine import columnar
    clause = plan.clause
    with span(f"clause {clause.name or clause}") as clause_span:
        # ``names`` are exactly the body's variables, in binding order.
        names, columns, count = columnar.run_steps_columnar(
            pool, plan.body.steps, {}, 1)
        missing: List[int] = []
        if count:
            if head is None:
                head = columnar.compile_probe(
                    pool.instance.schema, plan.head.steps,
                    columnar.member_classes(clause.body))
            with span("head"):
                missing = columnar.unextended_rows(
                    pool, plan.head.steps, columns, count, head)
        violations = [
            Violation(clause, {name: columns[name][row] for name in names})
            for row in missing[:limit]]
        clause_span.set(body_solutions=count, head_rows=count,
                        violations=len(violations))
    return violations


def satisfies_clause(instance: Instance, clause: Clause) -> bool:
    """True iff ``instance`` satisfies ``clause``."""
    return not program_violations(instance, [clause], limit_per_clause=1)


def program_violations(instance: Instance, program: Iterable[Clause],
                       limit_per_clause: Optional[int] = None,
                       plan: Optional["AuditPlan"] = None
                       ) -> List[Violation]:
    """All violations of all clauses (constraint audit).

    The whole audit is *planned*: every clause's body and head probe
    are compiled once by :func:`repro.engine.planner.plan_audit` and
    executed over one shared, prebuilt :class:`IndexPool`.  ``plan``
    injects a precomputed :class:`~repro.engine.planner.AuditPlan`
    (e.g. to amortise planning and index builds across repeated audits
    of one instance); one planned over another instance raises
    :class:`ValueError`.
    """
    clauses = list(program)
    audit_plan = plan
    if audit_plan is None:
        from ..engine.planner import plan_audit
        audit_plan = plan_audit(clauses, instance)
    pool = audit_plan.pool.checked_for(instance)
    violations: List[Violation] = []
    for index, clause in enumerate(clauses):
        # Plans align with the clause sequence; an injected plan built
        # from a different sequence is matched by clause instead.
        if (index < len(audit_plan.plans)
                and audit_plan.plans[index].clause is clause):
            clause_plan = audit_plan.plans[index]
        else:
            clause_plan = audit_plan.plan_for(clause)
        violations.extend(clause_violations(pool, clause_plan,
                                            limit_per_clause))
    return violations


def satisfies_program(instance: Instance,
                      program: Iterable[Clause]) -> bool:
    """True iff every clause is satisfied."""
    return not program_violations(instance, program, limit_per_clause=1)
