"""Executing compiled query programs.

Execution materialises, per statement, a :class:`ResultSet`: a
duplicate-free set of rows in *canonical order*.  Rows are JSON-encoded
at the engine boundary (``value_to_json`` with the instance's dump
oid-encoder, so anonymous objects carry the same ``Class#n`` labels a
dump of the instance would) and ordered by their sorted-key JSON
rendering — the row's *key*.  A ``query`` statement keys its rows a
column at a time (:meth:`ResultSet.from_columns`): each distinct value
of a column is encoded and rendered once, and a row's key is one
``str.join`` of its columns' fragments between the column names.  The
result set carries only the keys from then on, as a set, and sorts
them once, where their order is first read: the program's result
statement, a ``limit`` operand, a ``/query`` result, a reader of
:attr:`ResultSet.rows`.  A statement's row count is the set's size.
The keys are the rows' wire form: ``/query`` and ``/program`` splice
them into the response text as they stand
(:meth:`ResultSet.to_json_bytes`, spliced into the envelope like
``/target``'s text), and row dicts are decoded from them only when an
in-process reader asks (:attr:`ResultSet.rows`).  That single
definition buys three guarantees at once:

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
decodes its input's keys and keys its output afresh, a row at a time:
:meth:`ResultSet.from_rows`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Set, Tuple)

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


class ResultSet:
    """A statement's materialised result: a canonical-order row set.

    Its state is ``columns`` and the rows' keys: each row's canonical
    JSON rendering (``json.dumps(..., sort_keys=True)``), duplicate-free.
    The set is held unordered and sorted once, where its order is first
    read (:attr:`row_keys`, :attr:`rows`, :meth:`to_json_bytes`); its
    size (``len``), equality and the set algebra read the unordered
    keys.  :meth:`from_columns` joins the keys of a column batch from
    per-value fragments with ``str.join``, and :meth:`from_rows` (as
    ``ResultSet(columns, rows)``) renders one per row.  ``rows`` is a
    view for in-process readers, decoded from the sorted keys on first
    use and cached: keys are canonical JSON, so the decode is lossless.
    Equality compares ``columns`` and the key sets.
    """

    __slots__ = ("columns", "_keys", "_ordered", "_rows")

    def __init__(self, columns: Sequence[str],
                 rows: Iterable[Row] = ()) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self._keys: Set[str] = set(map(canonical_json, rows))
        self._ordered: Optional[Tuple[str, ...]] = None
        self._rows: Optional[Tuple[Row, ...]] = None

    @classmethod
    def _of_keys(cls, columns: Tuple[str, ...], keys: Set[str],
                 ordered: Optional[Tuple[str, ...]] = None) -> "ResultSet":
        """A set over ``keys``; ``ordered``, when given, is them sorted."""
        result = cls(columns)
        result._keys, result._ordered = keys, ordered
        return result

    @staticmethod
    def from_columns(columns: Tuple[str, ...],
                     batch: Mapping[str, Sequence[Value]], count: int,
                     oid_encoder) -> "ResultSet":
        """Dedup the rows of a column batch.

        ``batch`` holds ``count`` values for each name of ``columns`` it
        binds (other entries, such as hidden columns, are not read).
        The result equals :meth:`from_rows` over the rows
        ``{name: value_to_json(batch[name][i], oid_encoder)}``, but each
        distinct value of a column is encoded and rendered once
        (:func:`_fragments`) and every key is one ``str.join`` of its
        row's fragments between the sorted column names.
        """
        order = sorted(name for name in columns if name in batch)
        if not order:
            return ResultSet._of_keys(columns, {"{}"} if count else set())
        parts: List[Iterable[str]] = []
        for separator, name in zip(["{"] + [", "] * len(order), order):
            parts += (repeat(separator + json.dumps(name) + ": "),
                      _fragments(batch[name], oid_encoder))
        keys = map("".join, zip(*parts, repeat("}")))
        return ResultSet._of_keys(columns, set(keys))

    @staticmethod
    def from_rows(columns: Tuple[str, ...],
                  rows: Iterable[Row]) -> "ResultSet":
        """Dedup an arbitrary row enumeration."""
        return ResultSet(columns, rows)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def row_keys(self) -> Tuple[str, ...]:
        """The canonical key of every row, in canonical order (sorted
        on the first read)."""
        if self._ordered is None:
            self._ordered = tuple(sorted(self._keys))
        return self._ordered

    def keys(self) -> Tuple[str, ...]:
        """The canonical key of every row, in row order."""
        return self.row_keys

    @property
    def rows(self) -> Tuple[Row, ...]:
        """The rows as JSON-compatible dicts in ``columns`` order."""
        rows = self._rows
        if rows is None:
            rows = self._rows = tuple(
                {name: row[name] for name in self.columns if name in row}
                for row in map(json.loads, self.row_keys))
        return rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return (self.columns, self._keys) == (other.columns, other._keys)

    def __repr__(self) -> str:
        return (f"ResultSet(columns={self.columns!r}, "
                f"row_keys={self.row_keys!r})")

    def _head(self, fields: Mapping[str, Any]) -> Dict[str, Any]:
        return {**fields, "columns": list(self.columns)}

    def to_json(self, **fields: Any) -> Dict[str, Any]:
        """The result document: ``fields`` plus ``columns`` and
        ``rows``."""
        document = self._head(fields)
        document["rows"] = [dict(row) for row in self.rows]
        return document

    def to_json_bytes(self, **fields: Any) -> bytes:
        """``canonical_json(self.to_json(**fields))`` as UTF-8, with
        every row's key spliced in as it stands — no row is decoded or
        rendered again.  The other fields render around it in sorted
        order, as ``sort_keys`` places them (``columns`` always
        precedes ``rows``)."""
        head = self._head(fields)
        before = canonical_json({name: value for name, value
                                 in head.items() if name < "rows"})
        after = canonical_json({name: value for name, value
                                in head.items() if name > "rows"})
        return "".join((
            before[:-1], ', "rows": [', ", ".join(self.row_keys), "]",
            ", " if len(after) > 2 else "", after[1:])).encode("utf-8")


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

    def _fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {}
        if self.program.name is not None:
            fields["program"] = self.program.name
        fields["result"] = self.program.result_name
        fields["statements"] = [t.to_json() for t in self.traces]
        return fields

    def to_json(self) -> Dict[str, Any]:
        return self.result.to_json(**self._fields())

    def to_json_bytes(self, **extra: Any) -> bytes:
        """``canonical_json({**self.to_json(), **extra})`` as UTF-8, the
        result rows' keys spliced in (:meth:`ResultSet.to_json_bytes`)."""
        return self.result.to_json_bytes(**self._fields(), **extra)


def run_compiled(compiled: CompiledProgram, instance: Instance,
                 oid_encoder=None) -> ProgramResult:
    """Run a compiled program against ``instance``.

    ``instance`` must be the instance the compiled program's pool
    indexes (its indexes address that instance's oids); any other
    raises :class:`ValueError`.  The plans' indexes are prebuilt on the
    pool first (a no-op for each one it still holds).
    """
    pool = compiled.pool.checked_for(instance)
    pool.prebuild(compiled.index_paths)
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
                                       rows=len(result))
            stmt_span.set(rows=len(result))
        _STATEMENTS_TOTAL.labels(op.op).inc()
        sets[name] = result
        traces.append(trace)

    result_name = compiled.program.result_name
    final = sets[result_name] if result_name is not None \
        else ResultSet(columns=())
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


def _fragments(values: Sequence[Value], encoder) -> List[str]:
    """One column's canonical JSON fragments, row by row.

    Each distinct value is encoded once.  A column of nothing but
    strings, or of nothing but exact ``int`` s, is memoised by value: a
    string renders through ``encode_basestring_ascii`` and an int
    through ``repr`` (``int.__repr__``) — exactly what
    ``canonical_json`` calls for one.  Otherwise the memo keys a string
    by its value (a string is its own JSON value) and anything else by
    identity (``values`` keeps every object alive, so no identity is
    reused): values that compare equal may encode differently — ``1`` /
    ``True`` / ``1.0``, ``0.0`` / ``-0.0``, ``WolSet.of(1)`` /
    ``WolSet.of(True)`` — and must not share a fragment.  Numbers and booleans are rendered together, as
    one list split back into its items.
    """
    kinds = set(map(type, values))
    if kinds == {str} or kinds == {int}:
        distinct = set(values)
        by_value = dict(zip(distinct, map(
            encode_basestring_ascii if kinds == {str} else repr,
            distinct)))
        return list(map(by_value.__getitem__, values))
    ids = [value if value.__class__ is str else id(value)
           for value in values]
    memo: Dict[Any, str] = {}
    numbers: List[Tuple[Any, Any]] = []
    for key, value in dict(zip(ids, values)).items():
        if value.__class__ is str:
            memo[key] = encode_basestring_ascii(value)
            continue
        encoded = value_to_json(value, encoder)
        if encoded.__class__ in _NUMBERS:
            numbers.append((key, encoded))
        else:
            memo[key] = canonical_json(encoded)
    if numbers:
        rendered = canonical_json([encoded for _key, encoded in numbers])
        memo.update(zip((key for key, _encoded in numbers),
                        rendered[1:-1].split(", ")))
    return list(map(memo.__getitem__, ids))


def _run_query(statement: CompiledStatement, pool: IndexPool,
               encoder) -> Tuple[ResultSet, StatementTrace]:
    columns = statement.columns
    _names, batch, count = run_steps_columnar(
        pool, statement.plan.steps, {}, 1, needed=frozenset(columns),
        compiled=statement.compiled)
    result = ResultSet.from_columns(columns, batch, count, encoder)
    trace = StatementTrace(name=statement.statement.name, op="query",
                           rows=len(result))
    return result, trace


def _run_algebra(op, columns: Tuple[str, ...],
                 sets: Dict[str, ResultSet]) -> ResultSet:
    """Fold earlier result sets; all inputs exist (validation ensures)."""
    if isinstance(op, UnionOp):
        return ResultSet._of_keys(columns, set().union(
            *(sets[source]._keys for source in op.sources)))
    if isinstance(op, IntersectOp):
        first, *others = (sets[source]._keys for source in op.sources)
        return ResultSet._of_keys(columns, first.intersection(*others))
    if isinstance(op, DifferenceOp):
        return ResultSet._of_keys(
            columns, sets[op.left]._keys - sets[op.right]._keys)
    if isinstance(op, ProjectOp):
        return ResultSet.from_rows(
            columns, ({name: row[name] for name in op.columns
                       if name in row}
                      for row in map(json.loads, sets[op.source]._keys)))
    if isinstance(op, LimitOp):
        ordered = sets[op.source].row_keys[:op.count]
        return ResultSet._of_keys(columns, set(ordered), ordered)
    raise ProgramError(f"unhandled operator {op!r}")  # pragma: no cover
