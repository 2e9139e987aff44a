"""Compiling validated query programs for execution.

Compilation is the bridge between the AST and the engine: each
``query`` statement's body is parsed once (:meth:`repro.query.Query.
parse`), wrapped in a probe clause and handed to the static join
planner (:func:`repro.engine.planner.plan_clause`), and the union of
every plan's index selectors is prebuilt on one shared
:class:`~repro.semantics.match.IndexPool` — the same amortisation the
batch transformation engine applies across clauses, applied across the
statements of a program.  Set-algebra statements compile to nothing;
they run on materialised result sets in the interpreter.

A statement whose body the planner cannot order
(:class:`~repro.engine.planner.PlanError`) is refused here with a WOL504
:class:`~repro.program.ast.ProgramValidationError`, as static
validation refuses an unsafe body — so every compiled ``query``
statement carries its plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.diagnostics import Diagnostic, DiagnosticReport
from ..engine.planner import JoinPlan, PlanError, plan_clause
from ..lang.ast import Clause
from ..model.instance import Instance
from ..query.query import Query
from ..semantics.match import IndexPool
from .ast import ProgramValidationError, QueryOp, QueryProgram, Statement
from .validate import check_program


@dataclass(frozen=True)
class CompiledStatement:
    """One statement, ready to run.

    ``query``/``plan`` are populated for ``query`` statements only.
    ``columns`` is the statement's output column order —
    projection order for explicit projections, first-occurrence
    variable order otherwise (the :meth:`Query.variables` convention).
    """

    statement: Statement
    columns: Tuple[str, ...]
    query: Optional[Query] = None
    plan: Optional[JoinPlan] = None


@dataclass(frozen=True)
class CompiledProgram:
    """A validated program plus per-statement plans and the shared pool."""

    program: QueryProgram
    statements: Tuple[CompiledStatement, ...]
    pool: IndexPool
    report: DiagnosticReport
    prebuilt_indexes: int

    def explain(self) -> str:
        """Stable rendering of every statement's execution strategy."""
        lines: List[str] = [
            f"program {self.program.name or '<anonymous>'}: "
            f"{len(self.statements)} statement(s), "
            f"{self.prebuilt_indexes} prebuilt index(es)"]
        for compiled in self.statements:
            op = compiled.statement.op
            if compiled.query is None:
                lines.append(
                    f"  {compiled.statement.name}: {op.op} "
                    f"({', '.join(op.inputs())})"
                    if op.inputs() else
                    f"  {compiled.statement.name}: {op.op}")
                continue
            lines.append(f"  {compiled.statement.name}: query "
                         f"-> columns {', '.join(compiled.columns)}")
            for line in compiled.plan.explain().splitlines():
                lines.append(f"    {line}")
        return "\n".join(lines)


def compile_program(program: QueryProgram, instance: Instance,
                    pool: Optional[IndexPool] = None,
                    prebuild: bool = True) -> CompiledProgram:
    """Validate and compile ``program`` against ``instance``.

    Raises :class:`~repro.program.ast.ProgramValidationError` when
    static validation finds errors or a query body admits no join order
    (WOL504); warnings ride along on the returned report.  ``pool``
    lets a warm session share its prebuilt indexes across requests (one
    built over another instance raises :class:`ValueError`); by default
    a fresh pool is built and the union of all statements' index
    selectors is materialised up front.
    """
    pool = IndexPool(instance) if pool is None \
        else pool.checked_for(instance)
    classes = instance.schema.class_names()
    report = check_program(program, classes=classes)

    cardinalities = instance.class_sizes()
    compiled: List[CompiledStatement] = []
    index_paths: List[Tuple[str, Tuple[str, ...]]] = []
    columns_by_name: Dict[str, Tuple[str, ...]] = {}

    for index, statement in enumerate(program.statements):
        op = statement.op
        if isinstance(op, QueryOp):
            text = (f"{', '.join(op.project)} | {op.body}"
                    if op.project else op.body)
            query = Query.parse(text, classes=classes)
            columns = query.projection or query.variables()
            probe = Clause(query.body, query.body, name=statement.name)
            try:
                plan = plan_clause(probe, cardinalities)
            except PlanError as exc:
                refused = Diagnostic("WOL504", f"admits no join order: {exc}",
                                     clause=statement.name,
                                     clause_index=index)
                raise ProgramValidationError(DiagnosticReport(
                    report.diagnostics + [refused],
                    passes_run=report.passes_run)) from exc
            index_paths.extend(plan.index_paths)
            compiled.append(CompiledStatement(
                statement=statement, columns=columns, query=query,
                plan=plan))
        else:
            columns = _derived_columns(op, columns_by_name)
            compiled.append(CompiledStatement(
                statement=statement, columns=columns))
        columns_by_name[statement.name] = compiled[-1].columns

    unique_paths = sorted(set(index_paths))
    if prebuild:
        pool.prebuild(unique_paths)
    return CompiledProgram(program=program,
                           statements=tuple(compiled),
                           pool=pool, report=report,
                           prebuilt_indexes=len(unique_paths))


def _derived_columns(op, columns_by_name: Dict[str, Tuple[str, ...]]
                     ) -> Tuple[str, ...]:
    """Output column order of a set-algebra statement.

    Validation already guaranteed the inputs agree on column *sets*;
    the *order* follows the first input (and the explicit list for
    ``project``), so e.g. ``union caps, other`` renders columns the way
    ``caps`` did.
    """
    from .ast import ProjectOp
    if isinstance(op, ProjectOp):
        return op.columns
    sources: Iterable[str] = op.inputs()
    for source in sources:
        if source in columns_by_name:
            return columns_by_name[source]
    return ()
