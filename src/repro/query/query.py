"""Querying instances with WOL clause bodies.

The paper contrasts transformation languages with query languages
(Section 1) — but a WOL body *is* a conjunctive query, and being able to
run one interactively is invaluable when developing transformations.  This
module wraps the matcher in a small query API::

    q = Query.parse("N, C | X in CityE, N = X.name, C = X.country.name",
                    classes=schema.class_names())
    for row in q.run(instance):
        print(row["N"], row["C"])

The text before ``|`` lists the *projection* — variables (or ``*`` for
all) — and the text after it is a WOL atom list, exactly the syntax of a
clause body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..lang.ast import Atom, Clause
from ..lang.parser import ParseError, parse_clause
from ..lang.range_restriction import check_range_restriction
from ..model.instance import Instance
from ..model.values import Value, format_value
from ..semantics.match import Matcher


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
        """All result rows (projected bindings), lazily."""
        columns = self.projection or self.variables()
        matcher = Matcher(instance)
        for binding in matcher.solutions(self.body):
            yield {name: binding[name] for name in columns
                   if name in binding}

    def run_planned(self, instance: Instance, pool=None) -> Iterator[Row]:
        """Result rows via the static planner (the service hot path).

        Plans the body once (:func:`repro.engine.planner.plan_clause`),
        prebuilds the plan's indexes on ``pool`` (a warm session passes
        its shared :class:`~repro.semantics.match.IndexPool`; by
        default a private one is built) and executes vectorized
        (:meth:`~repro.semantics.match.Matcher.run_plan_columnar`).
        Bodies the planner cannot order statically fall back
        to the dynamic matcher — identical rows, no speedup.
        """
        from ..engine.planner import PlanError, plan_clause
        from ..semantics.match import IndexPool
        if pool is None:
            pool = IndexPool(instance)
        matcher = Matcher(instance, index_pool=pool)
        columns = self.projection or self.variables()
        probe = Clause(self.body, self.body)
        try:
            plan = plan_clause(probe, instance.class_sizes())
        except PlanError:
            bindings: Iterator[Dict[str, Value]] = \
                matcher.solutions(self.body)
        else:
            pool.prebuild(plan.index_paths)
            bindings = matcher.run_plan_columnar(plan.steps)
        for binding in bindings:
            yield {name: binding[name] for name in columns
                   if name in binding}

    def rows(self, instance: Instance) -> List[Row]:
        """All result rows as a list."""
        return list(self.run(instance))

    def distinct(self, instance: Instance) -> List[Row]:
        """Rows with duplicates (after projection) removed, stable order."""
        seen = set()
        out: List[Row] = []
        for row in self.run(instance):
            key = tuple(sorted(row.items(), key=lambda item: item[0]))
            if key not in seen:
                seen.add(key)
                out.append(row)
        return out

    def count(self, instance: Instance) -> int:
        return sum(1 for _ in self.run(instance))

    def exists(self, instance: Instance) -> bool:
        for _ in self.run(instance):
            return True
        return False

    def table(self, instance: Instance, limit: Optional[int] = None) -> str:
        """A printable table of the results."""
        columns = list(self.projection or self.variables())
        rows: List[List[str]] = []
        for index, row in enumerate(self.run(instance)):
            if limit is not None and index >= limit:
                rows.append(["..."] * len(columns))
                break
            rows.append([format_value(row[c]) if c in row else ""
                         for c in columns])
        widths = [max(len(c), *(len(r[i]) for r in rows))
                  if rows else len(c)
                  for i, c in enumerate(columns)]
        lines = ["  ".join(c.ljust(widths[i])
                           for i, c in enumerate(columns))]
        lines.append("-" * len(lines[0]))
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)


def query(instance: Instance, text: str) -> List[Row]:
    """One-shot convenience: parse against the instance's schema and run."""
    parsed = Query.parse(text, classes=instance.schema.class_names())
    return parsed.rows(instance)
