"""Parallel sharded execution: transforms and audits across processes.

The planned and incremental execution paths are single-process, so
throughput caps at one core.  This module adds the parallel engine: the
source instance's *driving* class extents are partitioned into shards
by a stable hash of each object identity
(:func:`repro.semantics.match.shard_of`), every worker process runs the
whole program over the full instance but with each clause's driving
membership generator restricted to its shard
(:func:`repro.engine.planner.shard_join_plan`), and the per-shard
results merge back into one target through the very same accumulation
rules sequential execution uses.

Why this is correct:

* every clause solution binds the driving atom to exactly one oid, and
  every oid belongs to exactly one shard, so the per-shard solution
  sets *partition* the sequential solution set — no solution is lost,
  none is found twice;
* head effects are idempotent or accumulative (object creation is
  keyed, attribute assignments must agree, set insertions union), so
  replaying the shards' pending stores through
  :meth:`~repro.engine.executor.Executor.absorb` rebuilds the exact
  sequential pending store, and
  :meth:`~repro.engine.executor.Executor.freeze` assembles a
  byte-identical target instance;
* a clause with no driving generator (or no static plan) runs whole on
  shard 0, exactly once globally;
* conflicts (the program not being functional) surface either inside a
  worker or at merge time — both raise
  :class:`~repro.engine.executor.ExecutionError`, as sequential
  execution would.

Constraint audits shard the same way: each worker enumerates its shard
of every constraint's *body* solutions (the head-satisfiability probe
always sees the whole instance) and the violation sets union.

Workers are plain :class:`concurrent.futures.ProcessPoolExecutor`
processes fed pickle-safe envelopes (clauses + instance + shard
coordinates); each worker re-plans deterministically and builds its own
index pool, so nothing unpicklable ever crosses a process boundary.
``use_processes=False`` runs the same shard pipeline sequentially
in-process — the differential fuzz harness uses it to exercise shard
compilation and merging without per-example process-pool cost.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..lang.ast import Clause
from ..model.instance import Instance
from ..model.schema import Schema
from ..model.values import Value
from ..semantics.match import Matcher
from ..semantics.satisfaction import Violation, clause_violations
from .executor import ExecutionStats, Executor
from .planner import (AuditPlan, ProgramPlan, plan_audit, plan_program,
                      shard_constraint_plan)


@dataclass(frozen=True)
class TransformEnvelope:
    """Everything one transform worker needs, all of it picklable.

    ``plan`` optionally carries the parent's compiled
    :class:`~repro.engine.planner.ProgramPlan` *including its prebuilt
    index pool*: the whole envelope pickles as one object graph, so the
    plan's pool still references the envelope's ``source`` after the
    round-trip, and a worker starts joining immediately instead of
    re-planning and re-building every index over the full instance.
    Without a plan the worker re-plans itself (planning is
    deterministic for a given program/instance pair, so the result is
    the same either way).
    """

    clauses: Tuple[Clause, ...]
    source: Instance
    target_schema: Schema
    shard_index: int
    shard_count: int
    plan: Optional[ProgramPlan] = None


@dataclass(frozen=True)
class AuditEnvelope:
    """One audit worker's share of a constraint family.

    ``plan`` optionally ships the parent's compiled
    :class:`~repro.engine.planner.AuditPlan` (with its prebuilt pool),
    exactly as :class:`TransformEnvelope` does for transforms.
    """

    constraints: Tuple[Clause, ...]
    instance: Instance
    shard_index: int
    shard_count: int
    limit_per_clause: Optional[int]
    plan: Optional[AuditPlan] = None


#: Per-process payload installed by the pool initializer: the clauses,
#: instance and target schema every shard of one run shares.  Shipping
#: them once per worker process (for free under ``fork``, one pickle
#: under ``spawn``) instead of once per task keeps the parent's serial
#: submission cost independent of the instance size.
_WORKER_PAYLOAD: Optional[Tuple] = None


def _install_payload(*payload) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _run_transform_shard(clauses: Tuple[Clause, ...], source: Instance,
                         target_schema: Schema, shard_index: int,
                         shard_count: int,
                         plan: Optional[ProgramPlan] = None
                         ) -> Tuple[Dict, ExecutionStats]:
    executor = Executor(source, target_schema,
                        shard=(shard_index, shard_count))
    executor.run_program(clauses, plan=plan)
    executor.stats.shards_run = 1
    return executor.pending_export(), executor.stats


def _transform_shard(envelope: TransformEnvelope
                     ) -> Tuple[Dict, ExecutionStats]:
    """Run one shard of a transformation (self-contained envelope)."""
    return _run_transform_shard(envelope.clauses, envelope.source,
                                envelope.target_schema,
                                envelope.shard_index,
                                envelope.shard_count,
                                plan=envelope.plan)


def _transform_shard_from_payload(coordinates: Tuple[int, int]
                                  ) -> Tuple[Dict, ExecutionStats]:
    """Run one shard against the process-wide installed payload."""
    clauses, source, target_schema, plan = _WORKER_PAYLOAD
    return _run_transform_shard(clauses, source, target_schema,
                                *coordinates, plan=plan)


def execute_parallel(program: Iterable[Clause], source: Instance,
                     target_schema: Schema, workers: int,
                     validate: bool = True,
                     defaults: Optional[Mapping[Tuple[str, str],
                                                Value]] = None,
                     use_processes: bool = True,
                     plan: Optional[ProgramPlan] = None
                     ) -> Tuple[Instance, ExecutionStats]:
    """Run a normal-form program across ``workers`` shards.

    The counterpart of :func:`repro.engine.executor.execute`: same
    arguments, same result — the target instance is byte-identical to
    the sequential one (the differential fuzz suite holds all four
    engines to that).  ``workers`` is both the shard count and the
    process-pool size; ``workers=1`` (or ``use_processes=False``) runs
    the shard pipeline in-process, which the degenerate-parallelism
    tests use to pin ``parallel=1 == sequential``.

    Merged stats sum the per-shard counters (``bindings_found`` adds up
    to the sequential count; ``clauses_run`` counts per-shard clause
    executions) while ``elapsed_seconds`` is wall-clock for the whole
    fan-out including the merge.  ``plan`` injects a precomputed
    :class:`~repro.engine.planner.ProgramPlan` for this program over
    this source (its prebuilt pool ships to the workers); without one
    the program is planned here.
    """
    clauses = tuple(program)
    if workers < 1:
        raise ValueError("parallel worker count must be >= 1")
    if plan is not None and plan.pool.instance is not source:
        raise ValueError(
            "injected program plan was built for a different instance; "
            "its indexes would silently produce a wrong target "
            "(re-plan with plan_program against this source)")
    shard_count = int(workers)
    start = time.perf_counter()
    # Plan once in the parent: the compiled plan and its prebuilt index
    # pool ship to every worker inside the payload, so no worker pays
    # the O(instance) planning and index-build cost again.
    program_plan = plan if plan is not None \
        else plan_program(clauses, source)
    in_process = shard_count == 1 or not use_processes
    if in_process:
        shard_results = [
            _transform_shard(TransformEnvelope(
                clauses, source, target_schema, index, shard_count,
                plan=program_plan))
            for index in range(shard_count)]
    else:
        with ProcessPoolExecutor(
                max_workers=shard_count,
                initializer=_install_payload,
                initargs=(clauses, source, target_schema,
                          program_plan)) as pool:
            shard_results = list(pool.map(
                _transform_shard_from_payload,
                [(index, shard_count) for index in range(shard_count)]))
    merger = Executor(source, target_schema)
    stats = ExecutionStats()
    contributors = Counter()
    for pending, _ in shard_results:
        contributors.update(pending.keys())
    for pending, shard_stats in shard_results:
        # Objects derived by exactly one shard adopt wholesale; only
        # objects with cross-shard contributions replay attribute by
        # attribute (with conflict detection) through absorb().
        shared = {oid: obj for oid, obj in pending.items()
                  if contributors[oid] > 1}
        merger.adopt({oid: obj for oid, obj in pending.items()
                      if contributors[oid] == 1})
        merger.absorb(shared)
        stats.add(shard_stats)
        stats.shards_run += shard_stats.shards_run
    # Shards each count their own first touch of a cross-shard object,
    # so the summed objects_created over-counts; the merger saw every
    # distinct object exactly once and has the sequential-parity count.
    stats.objects_created = merger.stats.objects_created
    stats.parallel_workers = 0 if in_process else shard_count
    target = merger.freeze(validate=validate, defaults=defaults)
    stats.elapsed_seconds = time.perf_counter() - start
    return target, stats


# ----------------------------------------------------------------------
# Constraint audits
# ----------------------------------------------------------------------

@dataclass
class ParallelAuditResult:
    """Union of the shards' violation sets plus merged audit counters.

    ``violations_by_clause`` is keyed by the constraint's position in
    the audited sequence; within a clause the merged violations are
    sorted by their textual form, so the result is deterministic
    whatever order the workers finish in.  The planner counters mirror
    :class:`~repro.constraints.audit.ConstraintReport`; per-shard index
    activity is summed.
    """

    violations_by_clause: Dict[int, List[Violation]]
    shards_run: int = 0
    planned_bodies: int = 0
    planned_heads: int = 0
    prebuilt_indexes: int = 0
    indexes_built: int = 0
    index_lookups: int = 0
    index_hits: int = 0
    index_misses: int = 0

    def violations(self, constraints: Sequence[Clause]
                   ) -> List[Violation]:
        """Flatten to the sequential reporting order (clause order)."""
        flat: List[Violation] = []
        for index in range(len(constraints)):
            flat.extend(self.violations_by_clause.get(index, []))
        return flat


def _run_audit_shard(constraints: Tuple[Clause, ...],
                     instance: Instance, shard_index: int,
                     shard_count: int,
                     limit_per_clause: Optional[int],
                     audit_plan: Optional[AuditPlan] = None
                     ) -> Tuple[List[Tuple[int, Violation]],
                                Tuple[int, int, int, int, int, int, int]]:
    """Audit one shard of a constraint family.

    Returns ``(violations, counters)`` where each violation is tagged
    with its constraint's position and ``counters`` packs the planner
    and index-pool numbers for this shard's run.
    """
    if audit_plan is None:
        audit_plan = plan_audit(constraints, instance)
    matcher = Matcher(instance, index_pool=audit_plan.pool)
    pool = audit_plan.pool
    baseline = (pool.builds, pool.lookups, pool.hits, pool.misses)
    found: List[Tuple[int, Violation]] = []
    for index, clause in enumerate(constraints):
        constraint_plan = audit_plan.plans[index]
        sharded = shard_constraint_plan(constraint_plan, shard_index,
                                        shard_count)
        if sharded is None:
            # No shardable body enumeration: shard 0 audits it whole.
            if shard_index != 0:
                continue
            sharded = constraint_plan
        # A sharded clause collects *all* its shard's violations even
        # under a cap: capping per shard would make the merged,
        # sorted, re-truncated set depend on the worker count.  The
        # cap still applies to clauses one shard audits whole.
        limit = limit_per_clause if sharded is constraint_plan else None
        for violation in clause_violations(
                instance, clause, limit,
                matcher=matcher, plan=sharded):
            found.append((index, violation))
    counters = (audit_plan.planned_bodies, audit_plan.planned_heads,
                audit_plan.prebuilt_indexes,
                pool.builds - baseline[0], pool.lookups - baseline[1],
                pool.hits - baseline[2], pool.misses - baseline[3])
    return found, counters


def _audit_shard(envelope: AuditEnvelope):
    """Audit one shard (self-contained envelope)."""
    return _run_audit_shard(envelope.constraints, envelope.instance,
                            envelope.shard_index, envelope.shard_count,
                            envelope.limit_per_clause,
                            audit_plan=envelope.plan)


def _audit_shard_from_payload(coordinates: Tuple[int, int]):
    """Audit one shard against the process-wide installed payload."""
    constraints, instance, limit_per_clause, plan = _WORKER_PAYLOAD
    return _run_audit_shard(constraints, instance, *coordinates,
                            limit_per_clause, audit_plan=plan)


def audit_parallel(constraints: Iterable[Clause], instance: Instance,
                   workers: int,
                   limit_per_clause: Optional[int] = None,
                   use_processes: bool = True) -> ParallelAuditResult:
    """Audit a constraint family across ``workers`` shards.

    The parent plans the audit once and ships the plan; each worker
    restricts every constraint's body enumeration to its shard and
    reports its violations, and the shards' sets union.  With
    ``limit_per_clause`` shards collect uncapped and the merged,
    textually-sorted list is truncated, so the reported subset is
    deterministic *and independent of the worker count* (though not
    the same subset a capped sequential audit happens to meet first —
    pass ``None``, as the differential tests do, for exact set
    equality with a sequential ``limit_per_clause=None`` audit).
    """
    family = tuple(constraints)
    if workers < 1:
        raise ValueError("parallel worker count must be >= 1")
    shard_count = int(workers)
    audit_plan = plan_audit(family, instance)
    if shard_count == 1 or not use_processes:
        shard_results = [
            _audit_shard(AuditEnvelope(family, instance, index,
                                       shard_count, limit_per_clause,
                                       plan=audit_plan))
            for index in range(shard_count)]
    else:
        with ProcessPoolExecutor(
                max_workers=shard_count,
                initializer=_install_payload,
                initargs=(family, instance, limit_per_clause,
                          audit_plan)) as pool:
            shard_results = list(pool.map(
                _audit_shard_from_payload,
                [(index, shard_count) for index in range(shard_count)]))
    merged: Dict[int, List[Violation]] = {}
    result = ParallelAuditResult(violations_by_clause=merged)
    for found, counters in shard_results:
        for index, violation in found:
            merged.setdefault(index, []).append(violation)
        result.shards_run += 1
        # Planning is deterministic, so the planner counters agree
        # across shards; the index activity is genuinely per-shard.
        result.planned_bodies = counters[0]
        result.planned_heads = counters[1]
        result.prebuilt_indexes = counters[2]
        result.indexes_built += counters[3]
        result.index_lookups += counters[4]
        result.index_hits += counters[5]
        result.index_misses += counters[6]
    for index, violations in merged.items():
        violations.sort(key=str)
        if limit_per_clause is not None:
            del violations[limit_per_clause:]
    return result


__all__ = [
    "AuditEnvelope", "ParallelAuditResult", "TransformEnvelope",
    "audit_parallel", "execute_parallel",
]
