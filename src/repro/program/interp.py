"""Executing compiled query programs.

Execution materialises, per statement, a :class:`ResultSet`: a
duplicate-free set of rows in *canonical order*.  Rows are JSON-encoded
at the engine boundary (``value_to_json`` with the instance's dump
oid-encoder, so anonymous objects carry the same ``Class#n`` labels a
dump of the instance would) and ordered by their sorted-key JSON
rendering — the row's *key*, rendered once, where a ``query`` statement
emits the row (:meth:`ResultSet.from_rows`), and carried by the result
set from then on.  That single definition buys three guarantees at
once:

* set algebra (``union``/``intersect``/``difference``) is well-defined
  — row equality is JSON equality;
* ``limit`` is deterministic — "first N" of a canonical order;
* the result does not depend on enumeration order — dedup-then-sort
  erases it.

``query`` statements run their join plans (vectorized columnar
batches, :func:`~repro.engine.columnar.stream_plan_columnar`) on the
compiled program's index pool; compilation already refused every body
with no join order.
Set-algebra statements never touch the instance — ``union``,
``intersect``, ``difference`` and ``limit`` fold earlier result sets'
keys and never render a row again (``project`` changes the rows, so it
keys its output afresh).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..io.json_io import canonical_json, dump_oid_encoder, value_to_json
from ..model.instance import Instance
from ..obs.metrics import REGISTRY
from ..obs.trace import span
from ..engine.columnar import stream_plan_columnar
from ..semantics.match import IndexPool
from .ast import (DifferenceOp, IntersectOp, LimitOp, ProgramError,
                  ProjectOp, QueryOp, QueryProgram, UnionOp)
from .compile import CompiledProgram, CompiledStatement, compile_program

Row = Dict[str, Any]

#: Statements executed, by operator — the program-DSL mirror of the
#: per-engine ``repro_engine_*`` counters.
_STATEMENTS_TOTAL = REGISTRY.counter(
    "repro_program_statements_total",
    "Query-program statements executed, by operator.", ("op",))


@dataclass(frozen=True)
class ResultSet:
    """A statement's materialised result: canonical-order row set.

    ``rows`` are JSON-compatible dicts, duplicate-free, sorted by their
    ``json.dumps(..., sort_keys=True)`` rendering; ``row_keys`` holds
    those renderings, parallel to ``rows``.  A set built directly from
    ``columns`` and ``rows`` (already canonical) may leave ``row_keys``
    out — :meth:`keys` then derives them on demand.  Equality compares
    ``columns`` and ``rows`` only.
    """

    columns: Tuple[str, ...]
    rows: Tuple[Row, ...]
    row_keys: Optional[Tuple[str, ...]] = field(
        default=None, compare=False, repr=False)

    @staticmethod
    def from_rows(columns: Tuple[str, ...],
                  rows: Iterable[Row]) -> "ResultSet":
        """Dedup + canonically order an arbitrary row enumeration."""
        return ResultSet._from_keyed(
            columns, ((canonical_json(row), row) for row in rows))

    @staticmethod
    def _from_keyed(columns: Tuple[str, ...],
                    keyed: Iterable[Tuple[str, Row]]) -> "ResultSet":
        """Dedup (first row per key wins) + order ``(key, row)`` pairs."""
        by_key: Dict[str, Row] = {}
        for key, row in keyed:
            by_key.setdefault(key, row)
        keys = tuple(sorted(by_key))
        return ResultSet(columns, tuple(by_key[key] for key in keys), keys)

    def keys(self) -> Tuple[str, ...]:
        """The canonical key of every row, in row order."""
        if self.row_keys is not None:
            return self.row_keys
        return tuple(canonical_json(row) for row in self.rows)

    def _keyed(self) -> Iterable[Tuple[str, Row]]:
        return zip(self.keys(), self.rows)

    def _where(self, columns: Tuple[str, ...],
               keep: Callable[[str], bool]) -> "ResultSet":
        """The rows whose key satisfies ``keep`` — a subsequence, so
        already duplicate-free and in canonical order."""
        kept = [pair for pair in self._keyed() if keep(pair[0])]
        return ResultSet(columns, tuple(row for _key, row in kept),
                         tuple(key for key, _row in kept))

    def to_json(self) -> Dict[str, Any]:
        return {"columns": list(self.columns),
                "rows": [dict(row) for row in self.rows]}


@dataclass(frozen=True)
class StatementTrace:
    """Per-statement execution record (the service's response detail)."""

    name: str
    op: str
    rows: int

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, "op": self.op, "rows": self.rows}


@dataclass(frozen=True)
class ProgramResult:
    """The whole run: every statement's size, the result statement's rows."""

    program: QueryProgram
    result: ResultSet
    traces: Tuple[StatementTrace, ...]
    sets: Dict[str, ResultSet] = field(default_factory=dict, compare=False)

    def to_json(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {}
        if self.program.name is not None:
            document["program"] = self.program.name
        document["result"] = self.program.result_name
        document["columns"] = list(self.result.columns)
        document["rows"] = [dict(row) for row in self.result.rows]
        document["statements"] = [t.to_json() for t in self.traces]
        return document


def run_compiled(compiled: CompiledProgram, instance: Instance,
                 oid_encoder=None) -> ProgramResult:
    """Run a compiled program against ``instance``.

    ``instance`` must be the instance the program was compiled against
    (the pool's indexes address its oids); any other raises
    :class:`ValueError`.
    """
    pool = compiled.pool.checked_for(instance)
    encoder = oid_encoder if oid_encoder is not None \
        else dump_oid_encoder(instance)

    sets: Dict[str, ResultSet] = {}
    traces: List[StatementTrace] = []
    for statement in compiled.statements:
        op = statement.statement.op
        name = statement.statement.name
        with span(f"{op.op} {name}") as stmt_span:
            if isinstance(op, QueryOp):
                result, trace = _run_query(statement, pool, encoder)
            else:
                result = _run_algebra(op, statement.columns, sets)
                trace = StatementTrace(name=name, op=op.op,
                                       rows=len(result.rows))
            stmt_span.set(rows=len(result.rows))
        _STATEMENTS_TOTAL.labels(op.op).inc()
        sets[name] = result
        traces.append(trace)

    result_name = compiled.program.result_name
    final = sets[result_name] if result_name is not None \
        else ResultSet(columns=(), rows=())
    return ProgramResult(program=compiled.program, result=final,
                         traces=tuple(traces), sets=sets)


def run_program(program: QueryProgram, instance: Instance,
                pool=None, oid_encoder=None) -> ProgramResult:
    """Compile and run in one call (validation errors raise)."""
    compiled = compile_program(program, instance, pool=pool)
    return run_compiled(compiled, instance, oid_encoder=oid_encoder)


# ----------------------------------------------------------------------
# Statement execution
# ----------------------------------------------------------------------

def _run_query(statement: CompiledStatement, pool: IndexPool,
               encoder) -> Tuple[ResultSet, StatementTrace]:
    columns = statement.columns
    bindings = stream_plan_columnar(pool, statement.plan.steps)
    result = ResultSet.from_rows(
        columns, ({name: value_to_json(binding[name], encoder)
                   for name in columns if name in binding}
                  for binding in bindings))
    trace = StatementTrace(name=statement.statement.name, op="query",
                           rows=len(result.rows))
    return result, trace


def _run_algebra(op, columns: Tuple[str, ...],
                 sets: Dict[str, ResultSet]) -> ResultSet:
    """Fold earlier result sets; all inputs exist (validation ensures)."""
    if isinstance(op, UnionOp):
        return ResultSet._from_keyed(
            columns, (pair for source in op.sources
                      for pair in sets[source]._keyed()))
    if isinstance(op, IntersectOp):
        first, *others = (sets[source] for source in op.sources)
        shared = set(first.keys()).intersection(
            *(other.keys() for other in others))
        return first._where(columns, shared.__contains__)
    if isinstance(op, DifferenceOp):
        right = set(sets[op.right].keys())
        return sets[op.left]._where(
            columns, lambda key: key not in right)
    if isinstance(op, ProjectOp):
        source = sets[op.source]
        return ResultSet.from_rows(
            columns, ({name: row[name] for name in op.columns
                       if name in row}
                      for row in source.rows))
    if isinstance(op, LimitOp):
        source = sets[op.source]
        return ResultSet(columns, source.rows[:op.count],
                         source.keys()[:op.count])
    raise ProgramError(f"unhandled operator {op!r}")  # pragma: no cover
