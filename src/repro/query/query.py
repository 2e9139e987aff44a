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
:meth:`Query.run_planned`: the body's join plan, batch at a time.  A
range-restricted body can still admit no join order (an atom that
waits on a variable only it could bind); ``run_planned`` refuses it
with :class:`QueryError`, where ``run`` would stop at the same atom
with :class:`~repro.semantics.match.MatchError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..lang.ast import Atom, Clause
from ..lang.parser import ParseError, parse_clause
from ..lang.range_restriction import check_range_restriction
from ..model.instance import Instance
from ..model.values import Value
from ..semantics.match import IndexPool


class QueryError(Exception):
    """Raised for malformed queries."""


Row = Dict[str, Value]


@dataclass(frozen=True)
class Query:
    """A conjunctive query: projection variables over a WOL body."""

    projection: Tuple[str, ...]   # empty = all variables
    body: Tuple[Atom, ...]

    @staticmethod
    def parse(text: str,
              classes: Optional[Iterable[str]] = None) -> "Query":
        """Parse ``"X, Y | atoms"`` (or just ``"atoms"`` for all vars)."""
        if "|" in text:
            head_text, _, body_text = text.partition("|")
            names = tuple(part.strip() for part in head_text.split(",")
                          if part.strip())
            if names == ("*",):
                names = ()
        else:
            names = ()
            body_text = text
        body_text = body_text.strip().rstrip(";")
        if not body_text:
            raise QueryError("empty query body")
        try:
            clause = parse_clause(f"_q = _q <= {body_text};",
                                  classes=classes)
        except ParseError as exc:
            raise QueryError(f"cannot parse query body: {exc}") from exc
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

    def run_planned(self, instance: Instance,
                    pool: Optional[IndexPool] = None) -> Iterator[Row]:
        """Result rows via the static planner (the service hot path).

        Plans the body once (:func:`repro.engine.planner.plan_clause`),
        prebuilds the plan's indexes on ``pool`` (a warm session passes
        its shared :class:`~repro.semantics.match.IndexPool`, which must
        index ``instance``; by default a private one is built) and runs
        the plan in batch stages
        (:func:`repro.engine.columnar.stream_plan_columnar`).  A body
        with no join order raises :class:`QueryError`, and a pool over
        another instance :class:`ValueError`, on the first ``next()``.
        """
        from ..engine.columnar import stream_plan_columnar
        from ..engine.planner import PlanError, plan_clause
        pool = IndexPool(instance) if pool is None \
            else pool.checked_for(instance)
        columns = self.projection or self.variables()
        probe = Clause(self.body, self.body)
        try:
            plan = plan_clause(probe, instance.class_sizes())
        except PlanError as exc:
            raise QueryError(f"query admits no join order: {exc}") from exc
        pool.prebuild(plan.index_paths)
        for binding in stream_plan_columnar(pool, plan.steps):
            yield {name: binding[name] for name in columns
                   if name in binding}
