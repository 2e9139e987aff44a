"""Incremental, delta-driven execution and auditing (semi-naive).

The batch engine answers "what does the program derive from *this*
instance?"; this module answers "what changes when the instance
changes?" — the question the paper's Section 6 vision of transformation
programs in front of evolving databases turns into the hot path.

Core idea (semi-naive delta joins): a clause's solution set only changes
on bindings that *read* a changed object.  Every read during body
evaluation and head application starts at an object bound by a body
member atom and follows stored references, so the bindings to
re-derive are exactly those that bind a member atom to an object in the
delta **or to a transitive referrer of one** (an object whose stored
value chain reaches a changed object).  :class:`ReverseIndex` maintains
the referrer relation; for each clause the planner compiles one seeded
variant of its join plan per member atom
(:func:`repro.engine.planner.plan_delta_seeds`), which collapses that
atom to a membership test of the seed oid and joins the remaining atoms
through the shared, delta-maintained
:class:`~repro.semantics.match.IndexPool`.

:class:`IncrementalTransform` is *production under deltas*: it starts
from :meth:`repro.engine.executor.Executor.run_program` and keeps the
counted :class:`~repro.engine.executor.TargetStore` that pass filled;
under a source delta each clause's retracted body rows go through the
pass's own batch head applier (:meth:`~repro.engine.executor._HeadPlan.apply`)
with sign -1, its new rows with +1, and only target objects whose counts
moved are re-assembled — by the batch pass's own freeze
(:meth:`~repro.engine.executor.TargetStore.freeze`), which checks only
what changed and so raises the error a full validation would.  The
same session maintains the violation set of constraint clauses over
that source the same way — WOL's point is that both are Horn clauses
in one language: new violations from inserted body solutions,
retracted violations from deleted ones, head-witness rechecks when the
delta could (un)satisfy existing heads.  Both kinds of clause run in
one three-phase step over one source instance, one
:class:`ReverseIndex` and one index pool.

A clause runs whole — its own join plan, through the columnar runner —
when seeding cannot be exact (a member atom that is not a plain
variable — a program clause is then retracted over the old instance
and re-derived over the new — or, for a constraint, a delta that
removes potential head witnesses).  A from-scratch run
stays on as the differential oracle: target bytes, violations *and
store counts* after every delta equal those of a fresh production pass
and audit, enforced by ``tests/engine/test_incremental.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import
    # cycle: evolution.operators builds on morphase, which imports the
    # engine package; deltas are plain data, so nothing here needs the
    # class at runtime)
    from ..evolution.delta import Delta

from ..lang.ast import (Clause, Const, EqAtom, InAtom, LeqAtom, LtAtom,
                        MemberAtom, NeqAtom, Proj, RecordTerm, SkolemTerm,
                        Term, Var, VariantTerm)
from ..model.types import (ClassType, ListType, RecordType, SetType, Type)
from ..model.instance import Instance
from ..model.values import Oid, Record, Value, oids_in, type_of_base
from ..obs.metrics import publish_engine_stats
from ..semantics.eval import Binding
from ..semantics.match import IndexPool
from ..semantics.satisfaction import Violation, clause_violations
from . import columnar
from .columnar import Columns, CompiledPlan
from .executor import ExecutionError, ExecutionStats, Executor, _HeadPlan
from .planner import (AuditPlan, ConstraintPlan, DeltaSeed, ProgramPlan,
                      plan_audit, plan_delta_seeds, plan_program)


class ReverseIndex:
    """Who stores a reference to whom: oid -> the oids whose value holds it.

    The read-set of any evaluation rooted at an object is that object
    plus everything reachable through stored references; inverting the
    reference relation therefore answers the incremental engine's key
    question — *which objects' derivations may a change to this object
    affect?* — as a transitive referrer closure.
    """

    def __init__(self, instance: Optional[Instance] = None) -> None:
        self._referrers: Dict[Oid, Set[Oid]] = {}
        if instance is not None:
            for cname in instance.schema.class_names():
                for oid in instance.objects_of(cname):
                    self._add_refs(oid, instance.value_of(oid))

    def _add_refs(self, oid: Oid, value: Value) -> None:
        for ref in oids_in(value):
            self._referrers.setdefault(ref, set()).add(oid)

    def _remove_refs(self, oid: Oid, value: Value) -> None:
        for ref in oids_in(value):
            holders = self._referrers.get(ref)
            if holders is not None:
                holders.discard(oid)
                if not holders:
                    del self._referrers[ref]

    def referrers(self, oid: Oid) -> frozenset:
        return frozenset(self._referrers.get(oid, ()))

    def closure(self, oids: Iterable[Oid]) -> Set[Oid]:
        """The given oids plus every transitive referrer of them."""
        seen: Set[Oid] = set(oids)
        queue = list(seen)
        while queue:
            current = queue.pop()
            for referrer in self._referrers.get(current, ()):
                if referrer not in seen:
                    seen.add(referrer)
                    queue.append(referrer)
        return seen

    def update_object(self, oid: Oid, old_value: Optional[Value],
                      new_value: Optional[Value]) -> None:
        """Replace one object's outgoing reference contributions."""
        if old_value is not None:
            self._remove_refs(oid, old_value)
        if new_value is not None:
            self._add_refs(oid, new_value)

    def apply_delta(self, old_instance: Instance, delta: Delta) -> None:
        """Maintain the relation across ``delta`` (old values looked up
        in ``old_instance``; new values read from the delta itself)."""
        for cname, oids in delta.deletes.items():
            for oid in oids:
                self._remove_refs(oid, old_instance.value_of(oid))
        for cname, objs in delta.updates.items():
            for oid, value in objs.items():
                self._remove_refs(oid, old_instance.value_of(oid))
                self._add_refs(oid, value)
        for cname, objs in delta.inserts.items():
            for oid, value in objs.items():
                self._add_refs(oid, value)


def _group_by_class(oids: Iterable[Oid]) -> Dict[str, List[Oid]]:
    grouped: Dict[str, List[Oid]] = {}
    for oid in sorted(oids, key=str):
        grouped.setdefault(oid.class_name, []).append(oid)
    return grouped


# ----------------------------------------------------------------------
# Static read-set analysis (attribute-level change pruning)
# ----------------------------------------------------------------------

class ClauseReads:
    """What a clause can observe of the instance, statically.

    ``attributes`` is the set of ``(class, attribute)`` pairs any
    evaluation of the clause may project from a stored object;
    ``member_classes`` the classes whose *extent membership* the clause
    tests or enumerates.  ``exact`` is False when some projection's
    subject could not be typed — the clause must then be treated as
    reading everything.

    The incremental engine uses this to skip seeding entirely for
    clauses that cannot observe a change: an update touching only
    attributes outside ``attributes`` (and no membership the clause
    sees) cannot alter the clause's solutions or head values.
    """

    def __init__(self, clause: Clause, class_type_of) -> None:
        self.exact = True
        self.attributes: Set[Tuple[str, str]] = set()
        self.member_classes: Set[str] = set()
        self._class_type_of = class_type_of
        atoms = list(clause.body) + list(clause.head)
        self._var_types: Dict[str, Type] = {}
        for _ in range(len(atoms) + 1):
            progressed = False
            for atom in atoms:
                progressed |= self._type_atom(atom)
            if not progressed:
                break
        for atom in atoms:
            if isinstance(atom, MemberAtom):
                self.member_classes.add(atom.class_name)
            for term in _atom_terms(atom):
                self._note_reads(term)

    # -- variable typing (fixpoint) ------------------------------------
    def _type_atom(self, atom) -> bool:
        progressed = False
        if isinstance(atom, MemberAtom) and isinstance(atom.element, Var):
            progressed = self._assign(atom.element.name,
                                      ClassType(atom.class_name))
        elif isinstance(atom, EqAtom):
            for side, other in ((atom.left, atom.right),
                                (atom.right, atom.left)):
                if isinstance(side, Var) and side.name not in self._var_types:
                    inferred = self._type_of(other)
                    if inferred is not None:
                        progressed |= self._assign(side.name, inferred)
        elif isinstance(atom, InAtom) and isinstance(atom.element, Var):
            if atom.element.name not in self._var_types:
                collection = self._type_of(atom.collection)
                if isinstance(collection, (SetType, ListType)):
                    progressed = self._assign(atom.element.name,
                                              collection.element)
        return progressed

    def _assign(self, name: str, inferred: Type) -> bool:
        if self._var_types.get(name) == inferred:
            return False
        if name in self._var_types:
            return False  # keep the first, don't oscillate
        self._var_types[name] = inferred
        return True

    def _type_of(self, term: Term) -> Optional[Type]:
        if isinstance(term, Var):
            return self._var_types.get(term.name)
        if isinstance(term, Const):
            return type_of_base(term.value)
        if isinstance(term, SkolemTerm):
            return ClassType(term.class_name)
        if isinstance(term, Proj):
            subject = self._type_of(term.subject)
            if isinstance(subject, ClassType):
                subject = self._class_type_of(subject.name)
            if isinstance(subject, RecordType) \
                    and subject.has_field(term.attr):
                return subject.field_type(term.attr)
            return None
        return None  # records/variants: not needed for pruning

    # -- projection reads ----------------------------------------------
    def _note_reads(self, term: Term) -> None:
        if isinstance(term, Proj):
            self._note_reads(term.subject)
            subject = self._type_of(term.subject)
            if isinstance(subject, ClassType):
                # Projecting through an object identity dereferences a
                # stored value: a read of (class, attribute).
                self.attributes.add((subject.name, term.attr))
            elif not isinstance(subject, RecordType):
                self.exact = False
        elif isinstance(term, RecordTerm):
            for _, sub in term.fields:
                self._note_reads(sub)
        elif isinstance(term, VariantTerm):
            self._note_reads(term.payload)
        elif isinstance(term, SkolemTerm):
            for _, sub in term.args:
                self._note_reads(sub)

    # -- relevance -----------------------------------------------------
    def observes(self, oid: Oid,
                 changed_attrs: Optional[frozenset]) -> bool:
        """Can this clause observe the given change at all?

        ``changed_attrs`` is None for an insert or delete (existence
        changed) and the set of differing attribute labels for an
        in-place update.
        """
        if not self.exact:
            return True
        cname = oid.class_name
        if changed_attrs is None:
            return (cname in self.member_classes
                    or any(read_class == cname
                           for read_class, _ in self.attributes))
        return any((cname, attr) in self.attributes
                   for attr in changed_attrs)


def _class_types(*schemas):
    """Class name -> class type over ``schemas`` (None when unknown)."""
    def class_type_of(cname: str):
        for schema in schemas:
            if schema.has_class(cname):
                return schema.class_type(cname)
        return None
    return class_type_of


def _atom_terms(atom) -> Tuple[Term, ...]:
    if isinstance(atom, MemberAtom):
        return (atom.element,)
    if isinstance(atom, (EqAtom, NeqAtom, LtAtom, LeqAtom)):
        return (atom.left, atom.right)
    if isinstance(atom, InAtom):
        return (atom.element, atom.collection)
    return ()


def changed_attributes(delta: "Delta", old_instance: Instance
                       ) -> Dict[Oid, Optional[frozenset]]:
    """Per changed object: the differing attribute labels, or None.

    None marks existence changes (inserts and deletes); updates map to
    the set of record labels whose values differ (or None when either
    value is not a record — every read must then be assumed affected).
    """
    changes: Dict[Oid, Optional[frozenset]] = {}
    for cname, objs in delta.inserts.items():
        for oid in objs:
            changes[oid] = None
    for cname, oids in delta.deletes.items():
        for oid in oids:
            changes[oid] = None
    for cname, objs in delta.updates.items():
        for oid, new_value in objs.items():
            changes[oid] = differing_labels(old_instance.value_of(oid),
                                            new_value)
    return changes


def differing_labels(old_value: Optional[Value], new_value: Optional[Value]
                     ) -> Optional[frozenset]:
    """The record labels whose values differ between an object's old
    and new value, or None when either is absent or not a record."""
    if not (isinstance(old_value, Record) and isinstance(new_value, Record)):
        return None
    labels = set(old_value.labels()) | set(new_value.labels())
    return frozenset(
        label for label in labels
        if not (old_value.has(label) and new_value.has(label)
                and old_value.get(label) == new_value.get(label)))


def _seeded_plans(clauses: Sequence[Clause], instance: Instance,
                  pool: IndexPool
                  ) -> Tuple[List[Tuple[DeltaSeed, ...]],
                             List[Tuple[Optional[CompiledPlan], ...]]]:
    """Per clause: its seeded plans and their batch stages, compiled
    once per session.  Seeded variants may probe selectors the batch
    plans never need; their indexes are built up front too."""
    cardinalities = instance.class_sizes()
    seeds = [plan_delta_seeds(clause, cardinalities) for clause in clauses]
    pool.prebuild(sorted(
        {key for per_clause in seeds for seed in per_clause
         if seed.plan is not None for key in seed.plan.index_paths}))
    stages = [tuple(None if seed.plan is None else columnar.compile_steps(
        instance.schema, seed.plan.steps, (seed.variable,))
        for seed in per_clause) for per_clause in seeds]
    return seeds, stages


def seeded_solutions(pool: IndexPool, seeds: Sequence[DeltaSeed],
                     stages: Sequence[Optional[CompiledPlan]],
                     seed_oids: Mapping[str, Sequence[Oid]],
                     counters: Optional[ExecutionStats] = None
                     ) -> Optional[Tuple[Columns, int]]:
    """All clause-body solutions binding a member atom to a seed oid,
    as one column batch ``(columns, count)`` over the body's variables.

    Each member atom is seeded independently with the seed oids of its
    class; solutions are deduplicated across seeds (a binding touching
    two seeds is found twice but reported once).  Returns ``None`` when
    a member atom with seed oids has no seeded plan — the clause cannot
    be delta-joined exactly and the caller must recompute it fully.

    The whole seed vector of each member atom runs as one batch through
    its precompiled stages (``stages``, parallel to ``seeds``); rows
    stay grouped by seed oid in seed order, so the deduplication keeps
    the first row in per-seed order.
    """
    relevant = [(seed, tuple(seed_oids.get(seed.class_name, ())))
                for seed in seeds]
    out: Columns = {}
    keys: Set[Tuple[Value, ...]] = set()
    for (seed, oids), compiled in zip(relevant, stages):
        if not oids:
            continue
        if seed.plan is None:
            return None
        if counters is not None:
            counters.seeds_probed += len(oids)
        names, columns, count = columnar.run_steps_columnar(
            pool, seed.plan.steps, {seed.variable: list(oids)}, len(oids),
            counters, compiled=compiled)
        if not count:
            continue
        if not out:  # the first rows fix the order of every row's key
            out = {name: [] for name in names}
        keep = []
        for row, key in enumerate(zip(*map(columns.__getitem__, out))):
            if key not in keys:
                keys.add(key)
                keep.append(row)
        for name, column in out.items():
            column.extend(map(columns[name].__getitem__, keep))
    return out, len(keys)


def _rows(columns: Columns, names: frozenset) -> List[Binding]:
    """The rows of a batch, each a binding of its columns in ``names``
    (how the constraint side reads a seeded batch)."""
    kept = [name for name in columns if name in names]
    return [dict(zip(kept, values))
            for values in zip(*(columns[name] for name in kept))]


def _pruned_seed_groups(reads: ClauseReads, all_changed: Sequence[Oid],
                        changes: Mapping[Oid, Optional[frozenset]],
                        rev: ReverseIndex,
                        cache: Dict[Oid, Set[Oid]]
                        ) -> Dict[str, List[Oid]]:
    """Seed oids for one clause: closures of the changes it observes."""
    seeds: Set[Oid] = set()
    for oid in all_changed:
        if reads.observes(oid, changes[oid]):
            closure = cache.get(oid)
            if closure is None:
                closure = rev.closure([oid])
                cache[oid] = closure
            seeds |= closure
    return _group_by_class(seeds)


def _violations_by_key(pool: IndexPool, plan: ConstraintPlan,
                       head: CompiledPlan) -> Dict[frozenset, Violation]:
    """Every violation of ``plan.clause`` over the pool's instance,
    keyed by its body binding."""
    return {frozenset(violation.binding.items()): violation
            for violation in clause_violations(pool, plan, head=head)}


def _in_order(per_clause_sets: Iterable[Mapping[frozenset, Violation]]
              ) -> List[Violation]:
    """Violations clause by clause, each clause's in a stable order."""
    return [per_clause[key] for per_clause in per_clause_sets
            for key in sorted(per_clause, key=lambda k: sorted(map(str, k)))]


@dataclass
class DeltaResult:
    """Outcome of one incremental step: the patched target, the target
    oids whose values it changed (absent on one side = inserted or
    removed) and the change to the session's constraint-violation
    set.  ``violation_sets`` is the session's violation set after the
    step, clause by clause; :attr:`violations` orders it when read."""

    target: Instance
    changed: List[Oid]
    added: List[Violation]
    removed: List[Violation]
    violation_sets: Tuple[Dict[frozenset, Violation], ...]
    stats: ExecutionStats
    delta: Delta

    @property
    def violations(self) -> List[Violation]:
        """The violation set after the step (stable order)."""
        return _in_order(self.violation_sets)

    @property
    def violation_count(self) -> int:
        """The size of the violation set after the step."""
        return sum(map(len, self.violation_sets))


class IncrementalTransform:
    """One incremental session: a program's target and its constraints'
    violation set, maintained together under source deltas.

    Construction is the production pass — :meth:`Executor.run_program`
    over the planned program, then ``freeze`` — and the session keeps
    the executor's counted :class:`TargetStore`; every
    :meth:`apply_delta` then patches the counts from seeded delta joins
    and hands the touched target objects to the same
    :meth:`TargetStore.freeze`, with the previous target and its
    :class:`ReverseIndex`.  ``target`` always
    equals what :func:`repro.engine.executor.execute` would produce from
    the current source — the differential tests enforce bit-equality —
    and construction raises exactly what ``execute`` raises.

    ``constraints`` are clauses over the same source; :meth:`violations`
    always equals their full audit (body solutions with no satisfying
    head extension).  Both kinds of clause read the one source through
    one :class:`ReverseIndex`, one :class:`IndexPool` and one
    three-phase step.  ``stats`` is the production pass's
    :class:`ExecutionStats` until the first delta, then the last
    step's.
    """

    def __init__(self, program: Iterable[Clause], source: Instance,
                 target_schema, constraints: Iterable[Clause] = (),
                 defaults: Optional[Mapping[Tuple[str, str], Value]] = None
                 ) -> None:
        self.clauses: List[Clause] = list(program)
        self.constraints: List[Clause] = list(constraints)
        self.source = source
        self.target_schema = target_schema
        self.defaults = dict(defaults or {})
        self._poisoned: Optional[str] = None

        self.plan: ProgramPlan = plan_program(self.clauses, source)
        pool = self.plan.pool
        self._seeds, self._stages = _seeded_plans(self.clauses, source, pool)

        executor = Executor(source, target_schema)
        executor.run_program(self.clauses, plan=self.plan)
        self.target = executor.freeze(defaults=self.defaults)
        self.store = executor.store
        self.stats = executor.stats
        self.source_rev = ReverseIndex(source)
        self.target_rev = ReverseIndex(self.target)
        # What reads of the target probe: built lazily by its readers,
        # rebased by every step that changes the target.
        self.target_pool = IndexPool(self.target)

        self._head_plans = [_HeadPlan(clause, target_schema)
                            for clause in self.clauses]
        class_type_of = _class_types(source.schema, target_schema)
        self._reads = [ClauseReads(clause, class_type_of)
                       for clause in self.clauses]

        # The constraints join the pool after the pass, so the pass
        # counts exactly what ``execute`` counts.
        self.audit_plan: AuditPlan = plan_audit(self.constraints, source,
                                                pool=pool)
        self._audit_seeds, self._audit_stages = _seeded_plans(
            self.constraints, source, pool)
        self._audit_reads = [ClauseReads(clause, class_type_of)
                             for clause in self.constraints]
        self._body_vars = [
            frozenset().union(*(atom.variables() for atom in clause.body))
            if clause.body else frozenset()
            for clause in self.constraints]
        # Head probes compile once a session, like the seeded bodies.
        self._head_stages = [
            columnar.compile_probe(source.schema, plan.head.steps,
                                   columnar.member_classes(plan.clause.body))
            for plan in self.audit_plan.plans]
        self._head_member_classes = [
            frozenset(atom.class_name for atom in clause.head
                      if isinstance(atom, MemberAtom))
            for clause in self.constraints]
        self._violations: List[Dict[frozenset, Violation]] = [
            _violations_by_key(pool, plan, head)
            for plan, head in zip(self.audit_plan.plans, self._head_stages)]

    # ------------------------------------------------------------------
    def violations(self) -> List[Violation]:
        """The current violation set (stable order)."""
        return _in_order(self._violations)

    def violation_count(self) -> int:
        """The size of the current violation set."""
        return sum(map(len, self._violations))

    def apply_delta(self, delta: Delta) -> DeltaResult:
        """Advance the source by ``delta``; patch the target and the
        violation set.

        A step that fails raises exactly what a batch pass over the
        updated source raises — the same :class:`ExecutionError` and
        message, also for a conflict, which the step itself meets only
        once its counts settle (:meth:`_batch_error`); after such an
        error the session is spent and must be rebuilt.
        """
        if self._poisoned is not None:
            raise ExecutionError(
                f"incremental session is spent ({self._poisoned}); "
                f"start a new one")
        start = time.perf_counter()
        stats = ExecutionStats(delta_size=delta.size())
        try:
            with stats.charging(self.plan.pool):
                changed, (added, removed) = self._apply_delta(delta, stats)
        except Exception as exc:
            if isinstance(exc, ExecutionError):
                exc = self._batch_error(exc)
            self._poisoned = str(exc)
            raise exc
        stats.elapsed_seconds = time.perf_counter() - start
        stats.violations_added = len(added)
        stats.violations_removed = len(removed)
        self.stats = stats
        publish_engine_stats("incremental", stats)
        return DeltaResult(target=self.target, changed=changed, added=added,
                           removed=removed,
                           violation_sets=tuple(map(dict, self._violations)),
                           stats=stats, delta=delta)

    def _batch_error(self, error: ExecutionError) -> ExecutionError:
        """What a batch pass over the current source raises in place of
        the step's ``error`` (a conflict's clauses, not its values)."""
        try:
            Executor(self.source, self.target_schema).run_program(
                self.clauses).freeze(self.defaults)
        except ExecutionError as batch:
            return batch
        return error

    def _apply_delta(self, delta: Delta, stats: ExecutionStats
                     ) -> Tuple[List[Oid],
                                Tuple[List[Violation], List[Violation]]]:
        old_source = self.source
        rev, pool = self.source_rev, self.plan.pool
        removed_by_class = delta.removed_by_class()
        added_by_class = delta.added_by_class()
        all_changed = list(dict.fromkeys(
            oid for group in (removed_by_class, added_by_class)
            for oids in group.values() for oid in oids))
        changes = changed_attributes(delta, old_source)
        # A clause with an unseedable member atom runs whole, on both
        # sides, whenever it can observe the delta at all.  Decided
        # here, not when a seeded join first gives up: that may be as
        # late as phase 3 (an object gaining an unread reference to a
        # changed one), when the pool no longer describes the old
        # instance the retraction has to run over.
        whole = {
            index for index, seeds in enumerate(self._seeds)
            if any(seed.plan is None for seed in seeds)
            and any(self._reads[index].observes(oid, changes[oid])
                    for oid in all_changed)}
        stats.clauses_recomputed = len(whole)
        seeded: Set[int] = set()
        touched: Set[Oid] = set()

        def seed_groups():
            """The seed-group function (with its closure cache) every
            clause of one phase shares."""
            return partial(_pruned_seed_groups, all_changed=all_changed,
                           changes=changes, rev=rev, cache={})

        def propagate(groups, sign: int) -> int:
            """Count ``sign`` for every program binding over the pool's
            current instance the delta can affect; returns how many
            the seeds found.  Each clause's batch goes through the
            pass's head applier unchecked, since a retraction later in
            the same step may lift a transient conflict (``assemble``
            reports what is left)."""
            found = 0
            for index, head in enumerate(self._head_plans):
                if index in whole:
                    _, columns, count = columnar.run_steps_columnar(
                        pool, self.plan.plans[index].steps, {}, 1,
                        needed=head.needed)
                else:  # every seed it can reach has a plan: never None
                    columns, count = seeded_solutions(
                        pool, self._seeds[index], self._stages[index],
                        groups(self._reads[index]), stats)
                    found += count
                    if count:
                        seeded.add(index)
                for column in head.apply(self.store, pool, columns, count,
                                         sign, checked=False):
                    touched.update(column)
            return found

        # Phase 1 — retracted bindings, enumerated over the *old*
        # instance.  Every clause seeds from the changed oids it can
        # *observe* (attribute-level read-set pruning) plus their
        # transitive referrers: the closure over-approximates the
        # affected bindings (a referrer need not actually read the
        # changed object), so a binding retracted here that still holds
        # is re-derived in phase 3 from the same surviving seeds —
        # retract-then-rederive makes the over-approximation harmless.
        removal_seeds = _group_by_class(rev.closure(all_changed))
        # The pool still indexes the old instance here.
        groups = seed_groups()
        stats.bindings_removed = propagate(groups, -1)
        retract_keys, full_recheck = self._retract_violations(
            pool, groups, removed_by_class, stats)

        # Phase 2 — swap in the updated instance; maintain the referrer
        # relation and patch the shared index pool in place (the seed
        # closures bound every index entry that can move, including
        # through dereferencing paths).  Permissive application: the
        # batch oracle tolerates dangling source references (affected
        # bindings simply die), so the incremental path must too.
        new_source = delta.apply_to(old_source, validate_changed=False)
        rev.apply_delta(old_source, delta)
        self.source = new_source

        # Deleted oids seed nothing themselves (their membership tests
        # fail) but their surviving referrers re-derive here; the
        # referrer edges survive in the maintained relation because
        # only changed objects' outgoing references were rewritten.
        addition_seeds = _group_by_class(rev.closure(all_changed))
        stats.indexes_maintained, stats.indexes_rebuilt = pool.rebase(
            new_source, removal_seeds, addition_seeds,
            strict_removed=removed_by_class,
            strict_added=added_by_class, changed_attrs=changes)

        # Phase 3 — bindings over the new instance, then re-assemble.
        groups = seed_groups()
        stats.bindings_added = propagate(groups, +1)
        stats.clauses_seeded = len(seeded)
        stats.clauses_skipped = (len(self.clauses) - len(seeded)
                                 - len(whole))
        diff = self._rederive_violations(pool, groups, retract_keys,
                                         full_recheck, added_by_class, stats)
        previous = self.target
        self.target, changed = self.store.freeze(
            touched, previous, self.defaults, self.target_rev.referrers)
        stats.target_objects_touched = len(changed)
        if changed:
            self._rebase_target(previous, changed, stats)
        return changed, diff

    def _rebase_target(self, previous: Instance, changed: List[Oid],
                       stats: ExecutionStats) -> None:
        """Advance the target's referrer relation and index pool over
        the ``changed`` oids — the source side's phase 2, on the
        target: closures on each side of the edit, plus strict sets
        (``changed`` is in ``str`` order, which is the order the freeze
        appended inserted objects in)."""
        rev, target = self.target_rev, self.target
        removal_seeds = _group_by_class(rev.closure(changed))
        changes: Dict[Oid, Optional[frozenset]] = {}
        for oid in changed:
            old_value = previous.valuations[oid.class_name].get(oid)
            new_value = target.valuations[oid.class_name].get(oid)
            rev.update_object(oid, old_value, new_value)
            changes[oid] = differing_labels(old_value, new_value)
        addition_seeds = _group_by_class(rev.closure(changed))
        (stats.target_indexes_maintained,
         stats.target_indexes_dropped) = self.target_pool.rebase(
            target, removal_seeds, addition_seeds,
            strict_removed=_group_by_class(
                oid for oid in changed
                if oid in previous.valuations[oid.class_name]),
            strict_added=_group_by_class(
                oid for oid in changed
                if oid in target.valuations[oid.class_name]),
            changed_attrs=changes)

    # ------------------------------------------------------------------
    # Constraint clauses: phases 1 and 3
    # ------------------------------------------------------------------
    def _retract_violations(self, pool: IndexPool, groups,
                            removed_by_class: Mapping[str, Sequence[Oid]],
                            stats: ExecutionStats
                            ) -> Tuple[Dict[int, Set[frozenset]], Set[int]]:
        """Over the old instance: the body solutions that read removed
        objects, and the clauses to recheck whole — those whose head
        draws witnesses from a class the delta removes objects of, the
        only case where a previously satisfied body can silently lose
        support.

        Bodies seed like the program's clauses; the head triggers stay
        narrow — witness *loss* needs removed-side objects, witness
        *gain* added-side.
        """
        removal_trigger = {oid.class_name for oid in self.source_rev.closure(
            oid for oids in removed_by_class.values() for oid in oids)}
        retract_keys: Dict[int, Set[frozenset]] = {}
        full_recheck: Set[int] = set()
        for index, body_vars in enumerate(self._body_vars):
            if self._head_member_classes[index] & removal_trigger:
                full_recheck.add(index)
                continue
            batch = seeded_solutions(
                pool, self._audit_seeds[index], self._audit_stages[index],
                groups(self._audit_reads[index]), stats)
            if batch is None:
                full_recheck.add(index)
            elif batch[1]:
                retract_keys[index] = {
                    frozenset(binding.items())
                    for binding in _rows(batch[0], body_vars)}
        return retract_keys, full_recheck

    def _satisfied(self, index: int, pool: IndexPool,
                   bindings: Sequence[Binding], stats: ExecutionStats
                   ) -> List[bool]:
        """Per body binding of constraint ``index``: does its head have
        a witness?  One batch probe for all of them
        (:func:`repro.engine.columnar.unextended_rows`), each counted
        in ``stats.violations_rechecked``."""
        stats.violations_rechecked += len(bindings)
        columns = {name: [binding[name] for binding in bindings]
                   for name in self._body_vars[index]}
        missing = set(columnar.unextended_rows(
            pool, self.audit_plan.plans[index].head.steps, columns,
            len(bindings), self._head_stages[index]))
        return [row not in missing for row in range(len(bindings))]

    def _rederive_violations(self, pool: IndexPool, groups,
                             retract_keys: Mapping[int, Set[frozenset]],
                             full_recheck: Set[int],
                             added_by_class: Mapping[str, Sequence[Oid]],
                             stats: ExecutionStats
                             ) -> Tuple[List[Violation], List[Violation]]:
        """Over the new instance: recheck the seeded body solutions and
        the flagged clauses; returns the added and removed violations."""
        addition_trigger = {oid.class_name for oid in self.source_rev.closure(
            oid for oids in added_by_class.values() for oid in oids)}
        added: List[Violation] = []
        removed: List[Violation] = []
        for index, clause in enumerate(self.constraints):
            per_clause = self._violations[index]
            if index not in full_recheck:
                batch = seeded_solutions(
                    pool, self._audit_seeds[index],
                    self._audit_stages[index],
                    groups(self._audit_reads[index]), stats)
                if batch is None:
                    full_recheck.add(index)
            if index in full_recheck:
                stats.clauses_recomputed += 1
                fresh = _violations_by_key(pool,
                                           self.audit_plan.plans[index],
                                           self._head_stages[index])
                added.extend(violation for key, violation in fresh.items()
                             if key not in per_clause)
                removed.extend(violation
                               for key, violation in per_clause.items()
                               if key not in fresh)
                self._violations[index] = fresh
                continue
            # Retract violations whose body solutions disappeared, then
            # re-derive the seeded solutions of the new instance.  A
            # violation retracted and immediately re-derived unchanged
            # is reinstated silently (it never left the set).
            rechecked: Set[frozenset] = set()
            retracted_now: Dict[frozenset, Violation] = {}
            for key in retract_keys.get(index, ()):
                violation = per_clause.pop(key, None)
                if violation is not None:
                    retracted_now[key] = violation
            projected = _rows(batch[0], self._body_vars[index])
            for binding, satisfied in zip(projected, self._satisfied(
                    index, pool, projected, stats)):
                key = frozenset(binding.items())
                rechecked.add(key)
                if satisfied:
                    prior = per_clause.pop(key, None)
                    if prior is not None:
                        removed.append(prior)
                    elif key in retracted_now:
                        removed.append(retracted_now.pop(key))
                elif key in retracted_now:
                    per_clause[key] = retracted_now.pop(key)
                elif key not in per_clause:
                    violation = Violation(clause, binding)
                    per_clause[key] = violation
                    added.append(violation)
            removed.extend(retracted_now.values())
            if projected or retract_keys.get(index):
                stats.clauses_seeded += 1
            else:
                stats.clauses_skipped += 1
            # Inserted objects of a head-witness class may satisfy
            # violations whose bodies the delta never touched.
            if self._head_member_classes[index] & addition_trigger:
                pending = [key for key in per_clause if key not in rechecked]
                for key, satisfied in zip(pending, self._satisfied(
                        index, pool, [dict(key) for key in pending],
                        stats)):
                    if satisfied:
                        removed.append(per_clause.pop(key))
        return added, removed
