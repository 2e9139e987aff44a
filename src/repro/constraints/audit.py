"""Constraint auditing: check clause families against instances.

A convenience layer over :mod:`repro.semantics.satisfaction` that groups
constraints, runs them against an instance, and renders a readable
report — the "expressing and interacting with a large class of
constraints" side of the paper (Section 3.1), packaged for direct use.

Audits run on the same production execution machinery as transformations:
:func:`audit_constraints` plans the whole constraint family once
(:func:`repro.engine.planner.plan_audit` — a fixed join order per clause
body *and* per head-satisfiability probe) and executes every clause over
one shared, prebuilt :class:`~repro.semantics.match.IndexPool` through
:func:`~repro.semantics.satisfaction.program_violations` — the one
audit loop; this module adds only the grouping and the run's
:class:`~repro.engine.executor.ExecutionStats`.  A
constraint whose body or head admits no join order is refused with
:class:`~repro.engine.planner.PlanError` when the family is planned.
The pre-planner behaviour — a fresh naive matcher with private lazy
indexes per clause — lives in :func:`repro.oracle.naive_violations` as
the differential reference: both report identical violation sets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..engine.executor import ExecutionStats
from ..engine.planner import AuditPlan, plan_audit
from ..lang.ast import Clause
from ..model.instance import Instance
from ..semantics.satisfaction import Violation, program_violations


@dataclass
class ConstraintReport:
    """Violations per clause, with a pass/fail summary.

    ``stats`` is the audit's run record — the
    :class:`~repro.engine.executor.ExecutionStats` every engine run
    fills: its share of the plan's index pool and its wall time.
    ``plan`` is the :class:`~repro.engine.planner.AuditPlan` it ran,
    whose ``prebuilt_indexes`` were materialised at planning time.
    """

    checked: int
    violations: Dict[str, List[Violation]]
    stats: ExecutionStats
    plan: AuditPlan

    @property
    def ok(self) -> bool:
        return not self.violations

    def failed_clauses(self) -> List[str]:
        return sorted(self.violations)

    def to_json(self) -> Dict:
        """A machine-readable report (the CLI's ``check --json``)."""
        return {
            "ok": self.ok,
            "checked": self.checked,
            "violations": {name: [str(violation) for violation in found]
                           for name, found in sorted(self.violations.items())},
            "stats": {
                "prebuilt_indexes": self.plan.prebuilt_indexes,
                "indexes_built": self.stats.indexes_built,
                "index_lookups": (self.stats.index_hits
                                  + self.stats.index_misses),
                "index_hits": self.stats.index_hits,
                "index_misses": self.stats.index_misses,
                "elapsed_ms": round(self.stats.elapsed_seconds * 1000, 3),
            },
        }

    def summary(self) -> str:
        if self.ok:
            return f"all {self.checked} constraints satisfied"
        lines = [f"{len(self.violations)} of {self.checked} "
                 f"constraints violated:"]
        for name in self.failed_clauses():
            found = self.violations[name]
            lines.append(f"  {name}: {len(found)} violation(s); "
                         f"first: {found[0]}")
        return "\n".join(lines)


def audit_constraints(instance: Instance,
                      constraints: Sequence[Clause],
                      limit_per_clause: Optional[int] = 10,
                      plan: Optional[AuditPlan] = None
                      ) -> ConstraintReport:
    """Check every constraint; collect up to ``limit_per_clause``
    violations each.

    The family is compiled once into an
    :class:`~repro.engine.planner.AuditPlan` and every clause runs
    over the plan's shared, prebuilt index pool.  ``plan`` injects a
    precomputed plan (amortising planning and index builds across
    repeated audits).
    """
    start = time.perf_counter()
    audit_plan = plan if plan is not None \
        else plan_audit(constraints, instance)
    report = ConstraintReport(checked=len(constraints), violations={},
                              stats=ExecutionStats(), plan=audit_plan)
    names = {id(clause): clause.name or f"<clause {index}>"
             for index, clause in enumerate(constraints)}
    with report.stats.charging(audit_plan.pool):
        for violation in program_violations(instance, constraints,
                                            limit_per_clause,
                                            plan=audit_plan):
            report.violations.setdefault(
                names[id(violation.clause)], []).append(violation)
    report.stats.elapsed_seconds = time.perf_counter() - start
    return report
