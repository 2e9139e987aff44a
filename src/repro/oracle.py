"""The naive reference that planned execution is differentially tested against.

Production always plans (:mod:`repro.engine.planner`) and runs batch
stages (:mod:`repro.engine.columnar`).  This module is the other end of
the differential chain naive ⇄ production ⇄ cpl ⇄ incremental: every
clause goes through the dynamic
:class:`~repro.semantics.match.Matcher`, which re-derives the atom order
per binding and builds private lazy indexes — no plan, no shared pool,
no batches.  Tests and benchmarks reach the naive matcher only through
these functions; nothing else under ``repro`` imports this module and
it publishes no engine metrics.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .engine.executor import ExecutionStats, Executor, _HeadPlan
from .lang.ast import Clause
from .model.instance import Instance
from .model.schema import Schema
from .model.values import Value
from .morphase.system import Morphase, MorphaseResult
from .semantics.match import Matcher
from .semantics.satisfaction import Violation


def naive_execute(program: Iterable[Clause], source: Instance,
                  target_schema: Schema,
                  defaults: Optional[Mapping[Tuple[str, str], Value]] = None
                  ) -> Tuple[Instance, ExecutionStats]:
    """The reference for :func:`repro.engine.executor.execute`: same
    arguments, same target, every clause on the dynamic matcher and the
    executor's scalar head applier."""
    executor = Executor(source, target_schema)
    matcher = Matcher(source)
    for clause in program:
        executor._check_source_only(clause)
        head = _HeadPlan(clause, target_schema)
        executor.stats.clauses_run += 1
        for binding in matcher.solutions(clause.body):
            executor.stats.bindings_found += 1
            executor._apply_head(head, binding, clause)
    return executor.freeze(defaults=defaults), executor.stats


def naive_transform(morphase: Morphase,
                    sources: Union[Instance, Sequence[Instance]]
                    ) -> MorphaseResult:
    """The reference for :meth:`Morphase.transform` on the direct
    backend: preflight, merge and compile as production does, then
    :func:`naive_execute` over the normal form."""
    morphase._ensure_preflight()
    merged = morphase._merge_sources(sources)
    normalized = morphase.compile()
    target, stats = naive_execute(normalized.program(), merged,
                                  morphase.target_plain)
    return MorphaseResult(target=target, normalized=normalized, stats=stats)


def naive_violations(instance: Instance, clauses: Iterable[Clause],
                     limit_per_clause: Optional[int] = None
                     ) -> List[Violation]:
    """The reference for
    :func:`repro.semantics.satisfaction.program_violations`: a fresh
    matcher with private lazy indexes per clause, body and head probe
    in the dynamic order."""
    violations: List[Violation] = []
    if limit_per_clause is not None and limit_per_clause <= 0:
        return violations
    for clause in clauses:
        matcher = Matcher(instance)
        body_vars = frozenset().union(
            *(atom.variables() for atom in clause.body))
        found = 0
        for binding in matcher.solutions(clause.body):
            projected = {name: value for name, value in binding.items()
                         if name in body_vars}
            if not matcher.satisfiable(clause.head, projected):
                violations.append(Violation(clause, projected))
                found += 1
                if found == limit_per_clause:
                    break
    return violations
