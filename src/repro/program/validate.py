"""Static validation of query programs (the WOL5xx diagnostics).

Validation is purely static: it reads the AST and the class vocabulary,
never an instance.  Every finding is a
:class:`~repro.analysis.Diagnostic` carrying a WOL5xx code from the
shared :data:`repro.analysis.CODES` registry, anchored to the statement
(``clause`` = statement name, ``clause_index`` = its position), so the
service, the CLI and the tests all render program findings with the
same machinery as the transformation analyzer's.

The checks, in registry order:

========  ============================================================
WOL501    program bounds (non-empty, ≤ ``MAX_STATEMENTS``, identifier
          statement names)
WOL502    duplicate statement names
WOL503    operator inputs must name an *earlier* statement (no forward
          or self references — the language has no recursion)
WOL504    query bodies must parse, be range-restricted and project
          bound variables (delegated to :meth:`repro.query.Query.parse`)
WOL505    union/intersect/difference inputs must agree on columns
WOL506    project may only select columns its input produces
WOL507    limit counts must be non-negative
WOL508    (warning) statements that feed nothing and are not the result
========  ============================================================
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..analysis.diagnostics import Diagnostic, DiagnosticReport
from ..query.query import Query, QueryError
from .ast import (MAX_STATEMENTS, DifferenceOp, IntersectOp, LimitOp,
                  ProgramValidationError, ProjectOp, QueryOp, QueryProgram,
                  Statement, UnionOp, is_statement_name)

#: The pass name recorded on validation reports.
PASS_NAME = "program"


def _validated(program: QueryProgram, classes: Optional[Iterable[str]]
               ) -> Tuple[DiagnosticReport, Tuple[Optional[Query], ...]]:
    """The report, and each statement's parsed query (None for a
    set-algebra statement or a body that failed to parse)."""
    diagnostics: List[Diagnostic] = []
    queries: List[Optional[Query]] = []
    class_list = list(classes) if classes is not None else None

    if not program.statements:
        diagnostics.append(Diagnostic(
            "WOL501", "program has no statements"))
    if len(program.statements) > MAX_STATEMENTS:
        diagnostics.append(Diagnostic(
            "WOL501",
            f"program has {len(program.statements)} statements, over "
            f"the limit of {MAX_STATEMENTS}"))

    # Columns each statement produces; None = unknown (the statement
    # itself failed, so dependents skip column checks instead of
    # cascading spurious mismatches).
    columns: Dict[str, Optional[FrozenSet[str]]] = {}
    consumed: Dict[str, bool] = {}

    for index, statement in enumerate(program.statements):
        produced = _validate_statement(statement, index, columns,
                                       consumed, class_list, diagnostics,
                                       queries)
        if statement.name not in columns:
            columns[statement.name] = produced
            consumed.setdefault(statement.name, False)

    result = program.result_name
    for index, statement in enumerate(program.statements):
        if statement.name != result and not consumed.get(statement.name):
            diagnostics.append(Diagnostic(
                "WOL508",
                f"statement {statement.name!r} feeds no later statement "
                f"and is not the program result",
                clause=statement.name, clause_index=index,
                suggestion="drop it, or move it last to make it the "
                           "result"))

    return (DiagnosticReport(diagnostics=diagnostics,
                             passes_run=(PASS_NAME,)), tuple(queries))


def _validate_statement(statement: Statement, index: int,
                        columns: Dict[str, Optional[FrozenSet[str]]],
                        consumed: Dict[str, bool],
                        classes: Optional[List[str]],
                        diagnostics: List[Diagnostic],
                        queries: List[Optional[Query]]
                        ) -> Optional[FrozenSet[str]]:
    """Check one statement; returns the column set it produces and
    appends its parsed query (or None) to ``queries``."""
    queries.append(None)
    name = statement.name
    op = statement.op

    if not is_statement_name(name):
        diagnostics.append(Diagnostic(
            "WOL501", f"statement name {name!r} is not an identifier",
            clause=name, clause_index=index))
    if name in columns:
        diagnostics.append(Diagnostic(
            "WOL502", f"statement name {name!r} is already bound",
            clause=name, clause_index=index,
            suggestion="rename one of the two statements"))

    # Inputs must reference earlier statements (defined strictly before
    # this one) — undefined, forward and self references all land here.
    input_columns: List[Optional[FrozenSet[str]]] = []
    for source in op.inputs():
        if source not in columns:
            diagnostics.append(Diagnostic(
                "WOL503",
                f"input {source!r} names no earlier statement "
                f"(statements may only reference results defined "
                f"above)",
                clause=name, clause_index=index))
            input_columns.append(None)
        else:
            consumed[source] = True
            input_columns.append(columns[source])

    if isinstance(op, QueryOp):
        try:
            text = (f"{', '.join(op.project)} | {op.body}"
                    if op.project else op.body)
            query = Query.parse(text, classes=classes)
        except QueryError as exc:
            diagnostics.append(Diagnostic(
                "WOL504", str(exc), clause=name, clause_index=index))
            return None
        queries[-1] = query
        return frozenset(query.projection or query.variables())

    if isinstance(op, (UnionOp, IntersectOp)):
        if len(op.sources) < 2:
            diagnostics.append(Diagnostic(
                "WOL503",
                f"{op.op} needs at least two inputs, got "
                f"{len(op.sources)}",
                clause=name, clause_index=index))
        return _common_columns(op.op, name, index, input_columns,
                               diagnostics)

    if isinstance(op, DifferenceOp):
        return _common_columns(op.op, name, index, input_columns,
                               diagnostics)

    if isinstance(op, ProjectOp):
        source_columns = input_columns[0] if input_columns else None
        if not op.columns:
            diagnostics.append(Diagnostic(
                "WOL506", "project selects no columns",
                clause=name, clause_index=index))
            return None
        if source_columns is not None:
            unknown = [c for c in op.columns if c not in source_columns]
            if unknown:
                diagnostics.append(Diagnostic(
                    "WOL506",
                    f"project selects {', '.join(repr(c) for c in unknown)}"
                    f", but {op.source!r} produces columns "
                    f"{sorted(source_columns)}",
                    clause=name, clause_index=index))
                return None
        return frozenset(op.columns)

    if isinstance(op, LimitOp):
        if op.count < 0:
            diagnostics.append(Diagnostic(
                "WOL507", f"limit count {op.count} is negative",
                clause=name, clause_index=index))
        return input_columns[0] if input_columns else None

    raise AssertionError(f"unhandled operator {op!r}")  # pragma: no cover


def _common_columns(op_name: str, name: str, index: int,
                    input_columns: List[Optional[FrozenSet[str]]],
                    diagnostics: List[Diagnostic]
                    ) -> Optional[FrozenSet[str]]:
    """The shared column set of a set operation's inputs (WOL505)."""
    known = [c for c in input_columns if c is not None]
    if not known or len(known) != len(input_columns):
        return known[0] if known else None
    first = known[0]
    for other in known[1:]:
        if other != first:
            diagnostics.append(Diagnostic(
                "WOL505",
                f"{op_name} inputs produce different columns: "
                f"{sorted(first)} vs {sorted(other)}",
                clause=name, clause_index=index,
                suggestion="project the inputs to a shared column "
                           "list first"))
            return None
    return first


def checked_queries(program: QueryProgram,
                    classes: Optional[Iterable[str]] = None
                    ) -> Tuple[DiagnosticReport, Tuple[Optional[Query], ...]]:
    """Validate and *enforce*: the report (which may still carry
    warnings) and each statement's parsed query (None for a set-algebra
    statement), so compilation plans the queries validation parsed
    instead of parsing every body again.  Error-severity findings raise
    :class:`ProgramValidationError` carrying the report;
    :func:`~repro.program.compile_program` is the caller, and through it
    the service's 422 path and ``repro program``."""
    report, queries = _validated(program, classes)
    if report.errors():
        raise ProgramValidationError(report)
    return report, queries
