"""Deterministic work bounds on the planned Tr-audit (no timing).

Every audit body of the three bundled programs is linked by
equalities, so a correct join order reads each extent once and probes
the rest: the largest batch is at most the largest extent and the rows
entering vectorized stages are a small multiple of the instance size.
A planner that opens the smallest extent first with no look-ahead
turns genome ``TC`` / ``TL`` and relibase ``RC`` into cross products —
at the e2e sizes 1 159 200 / 509 082 / 54 000-row batches against
bounds of 1 200 / 1 200 / 900 — and fails (a)-(c) here at any size.
The heads are bounded too: each runs once per clause, over the whole
body batch, never once per body row.
"""

import pytest

from repro.engine import columnar, plan_audit
from repro.engine.executor import ExecutionStats
from repro.oracle import Matcher
from repro.semantics.match import STEP_MEMBER_SCAN
from repro.semantics.satisfaction import program_violations

from tests.batches import plan_rows


@pytest.mark.parametrize("name", ["genome", "relibase", "cities"])
def test_audit_bodies_stay_linear(warehouses, name):
    warehouse = warehouses[name]
    combined = warehouse.combined
    extents = combined.class_sizes().values()
    audit_plan = plan_audit(warehouse.morphase.program, combined)
    planned = audit_plan.pool
    dynamic = Matcher(combined)
    for plan in audit_plan.plans:
        stats = ExecutionStats()
        solutions = sum(1 for _ in plan_rows(
            planned, plan.body.steps, None, stats))
        assert stats.max_batch_rows <= max(extents), plan.label     # (a)
        assert stats.vectorized_rows <= 8 * sum(extents), plan.label  # (b)
        # (c) every bundled body links its extents by equalities
        scans = [step for step in plan.body.steps
                 if step.mode == STEP_MEMBER_SCAN]
        assert len(scans) <= 1, plan.body.explain()
        assert solutions == sum(                                    # (d)
            1 for _ in dynamic.solutions(plan.clause.body)), plan.label


@pytest.mark.parametrize("name", ["genome", "relibase", "cities"])
def test_each_head_runs_once_over_its_body_batch(warehouses, monkeypatch,
                                                 name):
    """A clause's violations are one anti-join: its body runs once and,
    when it has solutions, its head runs once over all of them — two
    batch runs and two compilations per such clause, one per clause
    without solutions, however many body rows there are.  A per-row
    head probe would show up as one more run per body solution."""
    warehouse = warehouses[name]
    combined = warehouse.combined
    audit_plan = plan_audit(warehouse.morphase.program, combined)
    runs, compiles = [], 0
    run, compile_steps = (columnar.run_steps_columnar,
                          columnar.compile_steps)

    def counted_run(matcher, steps, columns, count, *args, **kwargs):
        result = run(matcher, steps, columns, count, *args, **kwargs)
        runs.append((tuple(steps), count, result[2]))
        return result

    def counted_compile(*args, **kwargs):
        nonlocal compiles
        compiles += 1
        return compile_steps(*args, **kwargs)
    monkeypatch.setattr(columnar, "run_steps_columnar", counted_run)
    monkeypatch.setattr(columnar, "compile_steps", counted_compile)
    program_violations(combined, warehouse.morphase.program,
                       plan=audit_plan)
    position = heads = 0
    for plan in audit_plan.plans:
        steps, rows_in, solutions = runs[position]
        assert (steps, rows_in) == (tuple(plan.body.steps), 1), plan.label
        position += 1
        if solutions:   # the head batch holds exactly the body rows
            steps, rows_in, _ = runs[position]
            assert (steps, rows_in) == (tuple(plan.head.steps),
                                        solutions), plan.label
            position += 1
            heads += 1
    assert position == len(runs)    # and nothing runs per row
    assert heads > 0
    assert compiles == len(runs)
