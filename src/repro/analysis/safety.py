"""Safety & boundness pass (WOL101-WOL104).

Folds the existing range-restriction and typecheck exceptions into
diagnostics, surfaces the type checker's unresolved obligations (which
``check_clause`` silently drops unless ``require_ground``), and replays
the planner's boundness simulation to explain clauses that are
range-restricted yet admit no static join order — including the chain of
variables each stuck atom is waiting for.
"""

from __future__ import annotations

from typing import List, Set

from ..engine.planner import PlanError, _classify, plan_clause
from ..lang.range_restriction import unrestricted_variables
from ..lang.typecheck import TypeReport, TypecheckError
from .analyzer import AnalysisContext
from .diagnostics import Diagnostic


def run(context: AnalysisContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for index, clause in enumerate(context.clauses):
        label = context.label(index)
        bad_body, bad_head = unrestricted_variables(clause)
        if bad_body or bad_head:
            parts = []
            if bad_body:
                parts.append(f"body variables {sorted(bad_body)}")
            if bad_head:
                parts.append(f"head variables {sorted(bad_head)}")
            loose = sorted(bad_body | bad_head)
            out.append(Diagnostic(
                "WOL101",
                "not range-restricted: " + " and ".join(parts),
                clause=label, clause_index=index,
                suggestion=f"bind {loose} with a membership or "
                           f"equality atom over database values"))
        report = context.type_report(index)
        if isinstance(report, TypecheckError):
            out.append(Diagnostic(
                "WOL102", str(report), clause=label, clause_index=index,
                suggestion="check attribute names and class membership "
                           "against the schemas"))
        elif isinstance(report, TypeReport):
            obligations = report.unresolved_obligations()
            if obligations:
                out.append(Diagnostic(
                    "WOL103",
                    "unresolved type obligations: "
                    + "; ".join(obligations),
                    clause=label, clause_index=index,
                    suggestion="add a membership or equality atom that "
                               "pins the subject's type"))
        if not bad_body:
            out.extend(_boundness(context, index))
    return out


def _boundness(context: AnalysisContext, index: int) -> List[Diagnostic]:
    """WOL104: range-restricted but statically unorderable bodies."""
    clause = context.clauses[index]
    try:
        plan_clause(clause)
        return []
    except PlanError:
        pass
    # Replay the greedy boundness simulation to name the stuck atoms
    # and the variables each is waiting for.
    bound: Set[str] = set()
    remaining = list(clause.body)
    progressed = True
    while progressed and remaining:
        progressed = False
        for atom in list(remaining):
            if _classify(atom, bound) is not None:
                bound |= atom.variables()
                remaining.remove(atom)
                progressed = True
    waits = [f"'{atom}' waits on {sorted(atom.variables() - bound)}"
             for atom in remaining]
    return [Diagnostic(
        "WOL104",
        "no static join order: " + "; ".join(waits),
        clause=context.label(index), clause_index=index,
        atom=str(remaining[0]) if remaining else None,
        suggestion="reorderable bodies need a generator (membership "
                   "or evaluable equality) for every variable; the "
                   "normal form runs, but as a query body or "
                   "constraint the clause is refused")]
