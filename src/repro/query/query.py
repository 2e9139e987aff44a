"""Querying instances with WOL clause bodies.

The paper contrasts transformation languages with query languages
(Section 1) — but a WOL body *is* a conjunctive query, and being able to
run one interactively is invaluable when developing transformations.  This
module wraps one body in a small query API::

    q = Query.parse("N, C | X in CityE, N = X.name, C = X.country.name",
                    classes=schema.class_names())
    for row in q.run(instance):
        print(row["N"], row["C"])

The text before ``|`` lists the *projection* — variables (or ``*`` for
all) — and the text after it is a WOL atom list, exactly the syntax of a
clause body.

:meth:`Query.run` enumerates in the dynamic matcher's order — it
delegates to :func:`repro.oracle.naive_query`, the reference the tests
and the end-to-end harness compare against.  The service runs
:meth:`Query.run_planned`: the body's join plan, batch at a time,
returning the final column batch rather than rows — the service keys
it a column at a time (:meth:`repro.program.ResultSet.from_columns`).
:meth:`Query.prepare` makes the plan and its batch stages once, for
one vector of class sizes; the service keeps the parsed query and its
preparation and hands them to every ``run_planned`` of the same text,
preparing it again when the sizes change.
A range-restricted body can still admit no join order (an atom that
waits on a variable only it could bind); ``run_planned`` refuses it
with :class:`QueryError`, where ``run`` would stop at the same atom
with :class:`~repro.semantics.match.MatchError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..lang.ast import Atom, Clause
from ..lang.lexer import LexError, find_unquoted
from ..lang.parser import ParseError, parse_clause
from ..lang.range_restriction import check_range_restriction
from ..model.instance import Instance
from ..model.values import Value
from ..semantics.match import IndexPool

if TYPE_CHECKING:
    from ..engine.columnar import CompiledPlan
    from ..engine.planner import JoinPlan


class QueryError(Exception):
    """Raised for malformed queries."""


Row = Dict[str, Value]

#: A query's result as columns: ``(names, columns, count)``.
Batch = Tuple[Tuple[str, ...], Dict[str, Sequence[Value]], int]


@dataclass(frozen=True)
class Query:
    """A conjunctive query: projection variables over a WOL body."""

    projection: Tuple[str, ...]   # empty = all variables
    body: Tuple[Atom, ...]

    @staticmethod
    def parse(text: str,
              classes: Optional[Iterable[str]] = None) -> "Query":
        """Parse ``"X, Y | atoms"`` (or just ``"atoms"`` for all vars).

        The projection ends at the first ``|`` outside a comment or
        string literal.  Text that does not lex or parse raises
        :class:`QueryError` caused by a
        :class:`~repro.lang.parser.ParseError`.
        """
        bar = find_unquoted(text, "|")
        if bar is not None:
            head_text, body_text = text[:bar], text[bar + 1:]
            names = tuple(part.strip() for part in head_text.split(",")
                          if part.strip())
            if names == ("*",):
                names = ()
        else:
            names, body_text = (), text
        body_text = body_text.strip().rstrip(";")
        if not body_text:
            raise QueryError("empty query body")
        try:
            clause = parse_clause(f"_q = _q <= {body_text};",
                                  classes=classes)
        except ParseError as exc:
            raise QueryError(f"cannot parse query body: {exc}") from exc
        except LexError as exc:
            raise QueryError(f"cannot parse query body: {exc}") \
                from ParseError(str(exc))
        query = Query(names, clause.body)
        query.validate()
        return query

    def variables(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for atom in self.body:
            for name in sorted(atom.variables()):
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    def validate(self) -> None:
        """Check projection names exist and the body is safe."""
        known = set(self.variables())
        for name in self.projection:
            if name not in known:
                raise QueryError(
                    f"projection variable {name!r} does not occur in "
                    f"the body (known: {sorted(known)})")
        probe = Clause(self.body or (), self.body)
        try:
            check_range_restriction(probe)
        except Exception as exc:
            raise QueryError(f"query is not range-restricted: {exc}") \
                from exc

    # ------------------------------------------------------------------
    def run(self, instance: Instance) -> Iterator[Row]:
        """All result rows (projected bindings), lazily, in the dynamic
        matcher's order: the reference, :func:`repro.oracle.naive_query`."""
        from ..oracle import naive_query
        return naive_query(self, instance)

    def prepare(self, instance: Instance) -> "PreparedQuery":
        """Plan and compile the body for ``instance``'s class sizes.

        The plan (:func:`repro.engine.planner.plan_clause`) and its
        batch stages (:func:`repro.engine.columnar.compile_steps`) read
        only the schema and :meth:`Instance.class_sizes`, so the result
        runs over any instance of the same schema and sizes.  A body
        with no join order raises :class:`QueryError`.
        """
        from ..engine.columnar import compile_steps
        from ..engine.planner import PlanError, plan_clause
        names = self.projection or self.variables()
        try:
            plan = plan_clause(Clause(self.body, self.body),
                               instance.class_sizes())
        except PlanError as exc:
            raise QueryError(f"query admits no join order: {exc}") from exc
        compiled = compile_steps(instance.schema, plan.steps, (),
                                 frozenset(names))
        return PreparedQuery(names, plan, compiled)

    def run_planned(self, instance: Instance,
                    pool: Optional[IndexPool] = None,
                    prepared: Optional["PreparedQuery"] = None) -> Batch:
        """The result as one column batch, via the static planner (the
        service hot path): ``(names, columns, count)``.

        ``names`` is the projection (every variable, in first-occurrence
        order, when it is empty), ``columns`` maps each name to its
        ``count`` values, one per solution, in plan order — duplicates
        included.  Runs ``prepared`` (:meth:`prepare` of this query; by
        default prepared here for ``instance``), after prebuilding the
        plan's indexes on ``pool`` (a warm session passes its shared
        :class:`~repro.semantics.match.IndexPool`, which must index
        ``instance``; by default a private one is built), in batch
        stages (:func:`repro.engine.columnar.run_steps_columnar`),
        dropping every column the projection does not read as soon as
        no later stage reads it.  A body with no join order raises
        :class:`QueryError`, and a pool over another instance
        :class:`ValueError`.
        """
        from ..engine.columnar import run_steps_columnar
        pool = IndexPool(instance) if pool is None \
            else pool.checked_for(instance)
        if prepared is None:
            prepared = self.prepare(instance)
        names = prepared.names
        pool.prebuild(prepared.plan.index_paths)
        _, columns, count = run_steps_columnar(
            pool, prepared.plan.steps, {}, 1, needed=frozenset(names),
            compiled=prepared.compiled)
        return names, {name: columns[name] for name in names
                       if name in columns}, count


@dataclass(frozen=True)
class PreparedQuery:
    """A query planned and compiled for one vector of class sizes."""

    names: Tuple[str, ...]          #: the output columns
    plan: "JoinPlan"
    compiled: "CompiledPlan"        #: ``compile_steps`` of ``plan``

