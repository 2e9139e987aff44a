"""Deterministic work bounds on the planned Tr-audit (no timing).

Every audit body of the three bundled programs is linked by
equalities, so a correct join order reads each extent once and probes
the rest: the largest batch is at most the largest extent and the rows
entering vectorized stages are a small multiple of the instance size.
A planner that opens the smallest extent first with no look-ahead
turns genome ``TC`` / ``TL`` and relibase ``RC`` into cross products —
at the e2e sizes 1 159 200 / 509 082 / 54 000-row batches against
bounds of 1 200 / 1 200 / 900 — and fails (a)-(c) here at any size.
"""

import pytest

from repro.engine import plan_audit
from repro.engine.columnar import stream_plan_columnar
from repro.engine.executor import ExecutionStats
from repro.semantics.match import Matcher, STEP_MEMBER_SCAN


@pytest.mark.parametrize("name", ["genome", "relibase", "cities"])
def test_audit_bodies_stay_linear(warehouses, name):
    warehouse = warehouses[name]
    combined = warehouse.combined
    extents = combined.class_sizes().values()
    audit_plan = plan_audit(warehouse.morphase.program, combined)
    assert audit_plan.planned_bodies == len(audit_plan.plans)
    planned = Matcher(combined, index_pool=audit_plan.pool)
    dynamic = Matcher(combined)
    for plan in audit_plan.plans:
        stats = ExecutionStats()
        solutions = sum(1 for _ in stream_plan_columnar(
            planned, plan.body.steps, None, stats))
        assert stats.max_batch_rows <= max(extents), plan.label     # (a)
        assert stats.vectorized_rows <= 8 * sum(extents), plan.label  # (b)
        # (c) every bundled body links its extents by equalities
        scans = [step for step in plan.body.steps
                 if step.mode == STEP_MEMBER_SCAN]
        assert len(scans) <= 1, plan.body.explain()
        assert solutions == sum(                                    # (d)
            1 for _ in dynamic.solutions(plan.clause.body)), plan.label
