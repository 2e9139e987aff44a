"""Compiling validated query programs for execution.

Compilation is the bridge between the AST and the engine: each
``query`` statement's body is parsed once, by static validation
(:func:`~repro.program.validate.checked_queries`, through
:meth:`repro.query.Query.parse`), and the parsed query is wrapped in a
probe clause and handed to the static join planner
(:func:`repro.engine.planner.plan_clause`), whose plan is compiled to
batch stages (:func:`repro.engine.columnar.compile_steps`).  Plans and
stages read only the schema and the class sizes, so a compiled program
runs over any instance of the same sizes, and
:func:`replan_program` makes its plans again for other sizes without
validating it again (the service keeps one compiled program per
program).  A run prebuilds the union of every
plan's index selectors on one shared
:class:`~repro.semantics.match.IndexPool` — the same amortisation the
batch transformation engine applies across clauses, applied across the
statements of a program.  Set-algebra statements compile to nothing;
they run on materialised result sets in the interpreter, whose rows
are their canonical JSON keys — ``/program`` splices the result's keys
into the response text as ``/target`` splices its objects'.

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
from ..engine.columnar import CompiledPlan, compile_steps
from ..engine.planner import JoinPlan, PlanError, plan_clause
from ..lang.ast import Clause
from ..model.instance import Instance
from ..query.query import Query
from ..semantics.match import IndexPool
from .ast import ProgramValidationError, QueryProgram, Statement
from .validate import checked_queries


@dataclass(frozen=True)
class CompiledStatement:
    """One statement, ready to run.

    ``query``/``plan``/``compiled`` (the plan's
    :func:`~repro.engine.columnar.compile_steps` stages, keeping only
    ``columns`` live) are populated for ``query`` statements only.
    ``columns`` is the statement's output column order —
    projection order for explicit projections, first-occurrence
    variable order otherwise (the :meth:`Query.variables` convention).
    """

    statement: Statement
    columns: Tuple[str, ...]
    query: Optional[Query] = None
    plan: Optional[JoinPlan] = None
    compiled: Optional[CompiledPlan] = None


@dataclass(frozen=True)
class CompiledProgram:
    """A validated program plus per-statement plans and the shared pool.

    ``index_paths`` is the union of the plans' index selectors, which a
    run prebuilds on ``pool``.
    """

    program: QueryProgram
    statements: Tuple[CompiledStatement, ...]
    pool: IndexPool
    report: DiagnosticReport
    index_paths: Tuple[Tuple[str, Tuple[str, ...]], ...]

    @property
    def prebuilt_indexes(self) -> int:
        return len(self.index_paths)

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
                    pool: Optional[IndexPool] = None) -> CompiledProgram:
    """Validate and compile ``program`` against ``instance``.

    Raises :class:`~repro.program.ast.ProgramValidationError` when
    static validation finds errors or a query body admits no join order
    (WOL504); warnings ride along on the returned report.  ``pool``
    lets a warm session share its prebuilt indexes across requests (one
    built over another instance raises :class:`ValueError`); by default
    a fresh pool is built.
    """
    pool = IndexPool(instance) if pool is None \
        else pool.checked_for(instance)
    report, queries = checked_queries(
        program, classes=instance.schema.class_names())
    return _planned(program, queries, report, instance, pool)


def replan_program(compiled: CompiledProgram,
                   instance: Instance) -> CompiledProgram:
    """``compiled`` with its plans made again for ``instance``'s class
    sizes, on the same pool; its validation (report and parsed queries)
    is kept.  Raises what :func:`compile_program` raises for a body
    that admits no join order.
    """
    return _planned(compiled.program,
                    (statement.query for statement in compiled.statements),
                    compiled.report, instance,
                    compiled.pool.checked_for(instance))


def _planned(program: QueryProgram, queries: Iterable[Optional[Query]],
             report: DiagnosticReport, instance: Instance,
             pool: IndexPool) -> CompiledProgram:
    """Plan and compile the validated ``program``, whose ``query``
    statements parsed to ``queries`` (None for the others)."""
    cardinalities = instance.class_sizes()
    compiled: List[CompiledStatement] = []
    index_paths: List[Tuple[str, Tuple[str, ...]]] = []
    columns_by_name: Dict[str, Tuple[str, ...]] = {}

    for index, (statement, query) in enumerate(
            zip(program.statements, queries)):
        if query is not None:
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
                plan=plan, compiled=compile_steps(
                    instance.schema, plan.steps, (), frozenset(columns))))
        else:
            columns = _derived_columns(statement.op, columns_by_name)
            compiled.append(CompiledStatement(
                statement=statement, columns=columns))
        columns_by_name[statement.name] = compiled[-1].columns

    return CompiledProgram(program=program,
                           statements=tuple(compiled),
                           pool=pool, report=report,
                           index_paths=tuple(sorted(set(index_paths))))


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
