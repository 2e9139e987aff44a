"""Executing compiled query programs.

Execution materialises, per statement, a :class:`ResultSet`: a
duplicate-free set of rows in *canonical order*.  Rows are JSON-encoded
at the engine boundary (``value_to_json`` with the instance's dump
oid-encoder, so anonymous objects carry the same ``Class#n`` labels a
dump of the instance would) and ordered by their sorted-key JSON
rendering — the row's *key*.  A ``query`` statement keys its rows a
column at a time (:meth:`ResultSet.from_columns`): each distinct value
of a column is encoded and rendered once, and a row's key is spliced
from its columns' fragments.  The result set carries the keys from
then on.  That single definition buys three guarantees at once:

* set algebra (``union``/``intersect``/``difference``) is well-defined
  — row equality is JSON equality;
* ``limit`` is deterministic — "first N" of a canonical order;
* the result does not depend on enumeration order — dedup-then-sort
  erases it.

``query`` statements run their join plans (vectorized columnar
batches, :func:`~repro.engine.columnar.run_steps_columnar`, keeping
only the statement's columns alive between stages) on the compiled
program's index pool; compilation already refused every body with no
join order.
Set-algebra statements never touch the instance — ``union``,
``intersect``, ``difference`` and ``limit`` fold earlier result sets'
keys and never render a row again (``project`` changes the rows, so it
keys its output afresh, a row at a time: :meth:`ResultSet.from_rows`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..io.json_io import canonical_json, dump_oid_encoder, value_to_json
from ..model.instance import Instance
from ..model.values import Value
from ..obs.metrics import REGISTRY
from ..obs.trace import span
from ..engine.columnar import run_steps_columnar
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
    those renderings, parallel to ``rows``.  :meth:`from_columns` splices
    the keys of a column batch from per-value fragments,
    :meth:`from_rows` renders one per row.  A set built directly from
    ``columns`` and ``rows`` (already canonical) may leave ``row_keys``
    out — :meth:`keys` then derives them on demand.  Equality compares
    ``columns`` and ``rows`` only.
    """

    columns: Tuple[str, ...]
    rows: Tuple[Row, ...]
    row_keys: Optional[Tuple[str, ...]] = field(
        default=None, compare=False, repr=False)

    @staticmethod
    def from_columns(columns: Tuple[str, ...],
                     batch: Mapping[str, Sequence[Value]], count: int,
                     oid_encoder) -> "ResultSet":
        """Dedup + canonically order the rows of a column batch.

        ``batch`` holds ``count`` values for each name of ``columns`` it
        binds (other entries, such as hidden columns, are not read).
        The result equals :meth:`from_rows` over the rows
        ``{name: value_to_json(batch[name][i], oid_encoder)}``, but each
        distinct value of a column is encoded and rendered once
        (:func:`_fragments`), every key is one template over the sorted
        column names filled with its row's fragments, and row dicts are
        built only for the rows that survive dedup, in ``columns``
        order.
        """
        if not count:
            return ResultSet(columns, (), ())
        names = tuple(name for name in columns if name in batch)
        encoded = {name: _fragments(batch[name], oid_encoder)
                   for name in names}
        order = sorted(names)
        if order:
            template = "{{%s}}" % ", ".join(
                json.dumps(name).replace("{", "{{").replace("}", "}}")
                + ": {}" for name in order)
            keys: Iterable[str] = map(
                template.format, *(encoded[name][0] for name in order))
        else:
            keys = ("{}",) * count
        # Rows with one key have one fragment per column, so any of them
        # stands for all: the last one indexed is as good as the first.
        index = dict(zip(keys, range(count)))
        ordered = sorted(index)
        cells = [(name, *encoded[name]) for name in names]
        rows = tuple({name: data[fragments[row]]
                      for name, fragments, data in cells}
                     for row in map(index.__getitem__, ordered))
        return ResultSet(columns, rows, tuple(ordered))

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

#: JSON values whose renderings hold no ``", "``: a list of them
#: renders as its items' renderings joined by that separator.
_NUMBERS = frozenset((int, float, bool))


def _fragments(values: Sequence[Value], encoder
               ) -> Tuple[List[str], Dict[str, Any]]:
    """One column's canonical JSON fragments, row by row, and the JSON
    value each fragment renders.

    Each distinct value is encoded once.  The memo keys a string by
    its value (a string is its own JSON value) and anything else by
    identity (``values`` keeps every object alive, so no identity is
    reused): values that compare equal may encode differently — ``1``
    / ``True`` / ``1.0``, ``0.0`` / ``-0.0``, ``WolSet.of(1)`` /
    ``WolSet.of(True)`` — and must not share a fragment.  Numbers and
    booleans are rendered together, as one list split back into its
    items.
    """
    ids = [value if value.__class__ is str else id(value)
           for value in values]
    memo: Dict[Any, str] = {}
    data: Dict[str, Any] = {}
    numbers: List[Tuple[Any, Any]] = []
    for key, value in dict(zip(ids, values)).items():
        encoded = value if value.__class__ is str \
            else value_to_json(value, encoder)
        if encoded.__class__ in _NUMBERS:
            numbers.append((key, encoded))
            continue
        fragment = memo[key] = canonical_json(encoded)
        data.setdefault(fragment, encoded)
    if numbers:
        rendered = canonical_json([encoded for _key, encoded in numbers])
        for (key, encoded), fragment in zip(
                numbers, rendered[1:-1].split(", ")):
            memo[key] = fragment
            data.setdefault(fragment, encoded)
    return list(map(memo.__getitem__, ids)), data


def _run_query(statement: CompiledStatement, pool: IndexPool,
               encoder) -> Tuple[ResultSet, StatementTrace]:
    columns = statement.columns
    _names, batch, count = run_steps_columnar(
        pool, statement.plan.steps, {}, 1, needed=frozenset(columns))
    result = ResultSet.from_columns(columns, batch, count, encoder)
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
