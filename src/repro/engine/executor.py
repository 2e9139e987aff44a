"""One-pass execution of normal-form WOL programs (paper Section 5).

A normal-form transformation program "can easily be implemented in a single
pass" because every clause reads only source classes and completely
describes a target insert.  The executor:

1. enumerates body solutions by running each clause's join plan over
   an :class:`~repro.semantics.match.IndexPool` on the source instance;
2. evaluates each head: Skolem identities become keyed object identities
   (idempotent creation), attribute assignments accumulate on the keyed
   objects, set-valued attributes collect inserted elements — all as
   *counts* in the one :class:`TargetStore`, so the incremental engine
   (:mod:`repro.engine.incremental`) is this pass plus signed deltas
   over the same store, not a second pass;
3. detects *conflicts* (two firings disagreeing on an attribute value —
   the program is not functional) and, at freeze time, *incompleteness*
   (an object missing required attributes — the program is not complete,
   Section 3.2) and *ill-formed* targets (a value outside its class type,
   a reference to an object not in the target — Section 2.1).  There is
   one freeze, :meth:`TargetStore.freeze`: a batch pass is the step in
   which every object changed, an incremental step hands it the objects
   whose counts moved, and both check only what the step changed.

Execution is always **planned**: :meth:`Executor.run_program` plans the
whole program once via :mod:`repro.engine.planner` (unless handed a
precomputed plan): per clause a fixed atom order compiled into plan
steps, and across clauses one shared, prebuilt index pool — no
per-binding atom re-classification, no per-clause lazy index builds.
Every clause runs its plan as batch stages over whole binding columns
(:mod:`repro.engine.columnar`), with the scalar step expander serving
only as the per-step fallback inside a batch.  A clause the planner
cannot order raises :class:`~repro.engine.planner.PlanError` before
any clause runs.  Running every clause on the dynamic matcher instead
is the naive reference of the differential tests; it lives in
:mod:`repro.oracle`, not behind an option here (planned and naive
execution must produce identical target instances).

The executor is deliberately independent of the normaliser: any program
whose clause bodies mention only source classes can be run, which is what
lets tests compare direct execution against the WOL->CPL->interpreter path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple)

from ..lang.ast import (
    Clause, EqAtom, InAtom, MemberAtom, Program, Proj, SkolemTerm, Term, Var)
from ..model.instance import Instance, empty_instance
from ..model.schema import Schema
from ..model.types import RecordType, SetType
from ..model.values import (Oid, Record, Value, ValueError_, WolSet,
                            check_value, format_value, oids_in)
from ..obs.metrics import publish_engine_stats
from ..obs.trace import span
from ..semantics.eval import Binding, EvalError, evaluate
from ..semantics.match import IndexPool
from .planner import JoinPlan, ProgramPlan, plan_program


class ExecutionError(Exception):
    """Raised on conflicting or ill-formed inserts."""


#: Primitive head-effect kinds (the unit of incremental maintenance).
EFFECT_CREATE = "create"
EFFECT_SET = "set"
EFFECT_INSERT = "insert"

#: One primitive consequence of a clause firing:
#: ``(EFFECT_CREATE, oid)``, ``(EFFECT_SET, oid, attr, value)`` or
#: ``(EFFECT_INSERT, oid, attr, element)``.  :meth:`TargetStore.apply`
#: counts them, signed.
Effect = Tuple


@dataclass
class ExecutionStats:
    """The one record of an engine run: a batch pass
    (:meth:`Executor.run_program`), an incremental step
    (:meth:`~repro.engine.incremental.IncrementalTransform.apply_delta`)
    or a constraint audit
    (:func:`~repro.constraints.audit.audit_constraints`).  The CLI's
    ``--stats`` / ``--json`` views render it, and
    :func:`~repro.obs.metrics.publish_engine_stats` feeds the registry
    from it.

    The planner-related counters describe how the bodies were evaluated:
    ``clauses_planned`` clauses ran on a precompiled :class:`JoinPlan`
    (all of them, except under :mod:`repro.oracle`), ``atoms_reordered`` body
    atoms were moved from their textual position, and the index counters
    are the run's share of the shared
    :class:`~repro.semantics.match.IndexPool`'s activity
    (:meth:`charging`): ``index_hits + index_misses`` extent scans were
    replaced by hash probes, split into ``index_hits`` (probe produced
    candidates) and ``index_misses`` (probe proved no candidate exists).
    A batch pass counts ``clauses_run`` and ``bindings_found``; an
    incremental step reports its clauses and bindings in its own
    fields below instead.
    """

    clauses_run: int = 0
    bindings_found: int = 0
    objects_created: int = 0
    attributes_set: int = 0
    elapsed_seconds: float = 0.0
    clauses_planned: int = 0
    atoms_reordered: int = 0
    indexes_built: int = 0
    index_hits: int = 0
    index_misses: int = 0
    #: Vectorized execution (:mod:`repro.engine.columnar`): plan steps
    #: run as whole-batch array operations vs. steps that fell back to
    #: the scalar step expander, total rows entering vectorized steps,
    #: and the largest batch seen.
    vectorized_steps: int = 0
    fallback_steps: int = 0
    vectorized_rows: int = 0
    max_batch_rows: int = 0
    #: One incremental step (``IncrementalTransform.apply_delta``):
    #: the delta's size, seed oids probed, program bindings
    #: retracted and re-derived, clauses (program and constraint)
    #: skipped, seeded or run whole, source pool indexes patched vs.
    #: rebuilt, target objects changed and target pool indexes patched
    #: vs. dropped, and the violation-set diff with the body rows whose
    #: heads were rechecked.
    delta_size: int = 0
    seeds_probed: int = 0
    bindings_removed: int = 0
    bindings_added: int = 0
    clauses_skipped: int = 0
    clauses_seeded: int = 0
    clauses_recomputed: int = 0
    indexes_maintained: int = 0
    indexes_rebuilt: int = 0
    target_objects_touched: int = 0
    target_indexes_maintained: int = 0
    target_indexes_dropped: int = 0
    violations_added: int = 0
    violations_removed: int = 0
    violations_rechecked: int = 0

    @contextmanager
    def charging(self, pool: IndexPool) -> Iterator["ExecutionStats"]:
        """Charge ``pool``'s activity inside the block to this run.

        A pool outlives runs (a reused plan, an incremental session),
        so the run records the pool's *delta* over the block, not its
        lifetime counters.  Indexes a planner prebuilt before the block
        belong to the plan (its ``prebuilt_indexes``), not here.
        """
        builds, hits, misses = pool.builds, pool.hits, pool.misses
        yield self
        self.indexes_built += pool.builds - builds
        self.index_hits += pool.hits - hits
        self.index_misses += pool.misses - misses


class _PendingObject:
    """One target object's counted head effects (a :class:`TargetStore`
    entry): how often it was created, and per attribute how often each
    value was assigned / each element inserted."""

    __slots__ = ("creates", "attributes", "set_attributes", "provenance")

    def __init__(self) -> None:
        self.creates = 0
        self.attributes: Dict[str, Dict[Value, int]] = {}
        self.set_attributes: Dict[str, Dict[Value, int]] = {}
        self.provenance: Dict[str, str] = {}


class TargetStore:
    """The one pending target state: counted head effects per object.

    An object exists while any of its counts is live — ``objects``
    holds exactly those.  The batch appliers only ever add, and check
    functionality eagerly before they write; the incremental engine
    retracts and re-derives through the signed :meth:`apply`, unchecked,
    and :meth:`assemble` reports whatever conflict is left once a step's
    counts have settled.
    """

    def __init__(self, target_schema: Schema) -> None:
        self.target_schema = target_schema
        self.objects: Dict[Oid, _PendingObject] = {}

    def ensure(self, oid: Oid) -> _PendingObject:
        pending = self.objects.get(oid)
        if pending is None:
            if not self.target_schema.has_class(oid.class_name):
                raise ExecutionError(
                    f"object {oid} belongs to no target class")
            pending = self.objects[oid] = _PendingObject()
        return pending

    def apply(self, effect: Effect, sign: int) -> None:
        """Count one head effect ``sign`` (+1 derived, -1 retracted)."""
        kind, oid = effect[0], effect[1]
        pending = self.ensure(oid)
        if kind == EFFECT_CREATE:
            count = pending.creates = pending.creates + sign
        else:
            group = (pending.attributes if kind == EFFECT_SET
                     else pending.set_attributes)
            attr, value = effect[2], effect[3]
            counts = group.setdefault(attr, {})
            count = counts[value] = counts.get(value, 0) + sign
            if count <= 0:
                del counts[value]
                if not counts:
                    del group[attr]
        if count < 0:
            raise ExecutionError(
                f"bookkeeping underflow on {oid}: retracted "
                f"{effect[:3]} was never recorded")
        if not (pending.creates or pending.attributes
                or pending.set_attributes):
            del self.objects[oid]

    def assemble(self, oid: Oid,
                 defaults: Mapping[Tuple[str, str], Value]
                 ) -> Tuple[Optional[Value], List[str]]:
        """``(stored value, missing attributes)`` of one object — the
        assembler of :meth:`freeze`.  ``(None, [])`` means the object
        is not derived."""
        pending = self.objects.get(oid)
        if pending is None:
            return None, []
        attributes: Dict[str, Value] = {}
        for attr, values in pending.attributes.items():
            try:
                (attributes[attr],) = values
            except ValueError:
                raise ExecutionError(
                    f"conflict on {oid}.{attr}: clauses derive "
                    f"{len(values)} distinct values (the program is not "
                    f"functional)") from None
        return assemble_target_value(
            oid.class_name, oid,
            self.target_schema.class_type(oid.class_name), attributes,
            pending.set_attributes, defaults)

    def freeze(self, touched: Iterable[Oid], previous: Instance,
               defaults: Mapping[Tuple[str, str], Value],
               referrers: Optional[Callable[[Oid], Iterable[Oid]]] = None
               ) -> Tuple[Instance, List[Oid]]:
        """Re-assemble the ``touched`` objects over ``previous``, the
        target before this step: ``(new target, changed oids)`` — an
        oid's old and new values are those of ``previous`` and the new
        target (absent = removed or inserted).

        A batch pass touches every object against the empty target; an
        incremental step touches the objects whose counts moved and
        passes ``referrers`` (who in ``previous`` references an oid)
        for the oids it removes.  Only changed values and the live
        referrers of removed oids can make the target ill-formed, so
        only they are checked — in the order :meth:`Instance.validate`
        visits objects (schema class order, then ``str(oid)``; type
        before references), so the first error is a full validation's.
        """
        order = sorted(touched, key=str)
        with span("freeze", touched=len(order)) as freeze_span:
            valuations = {cname: dict(objs)
                          for cname, objs in previous.valuations.items()}
            checked: Dict[str, List[Oid]] = {cname: [] for cname in valuations}
            changed: List[Oid] = []
            removed: List[Oid] = []
            incomplete: List[str] = []
            for oid in order:
                new, missing = self.assemble(oid, defaults)
                objs = valuations[oid.class_name]
                old = objs.get(oid)
                if missing:
                    incomplete.append(f"{oid}: missing attributes {missing}")
                # Spelled out: ``new != old`` would run Record's dataclass
                # ``__eq__`` against None for every object of a batch pass.
                elif new is not None if old is None else new != old:
                    changed.append(oid)
                    if new is None:
                        del objs[oid]
                        removed.append(oid)
                    else:
                        objs[oid] = new
                        checked[oid.class_name].append(oid)
            freeze_span.set(changed=len(changed))
            if incomplete:
                raise ExecutionError(
                    "incomplete transformation (the program does not "
                    "fully describe these objects): "
                    + "; ".join(incomplete))
            if not changed:
                return previous, changed
            if removed:
                live = {oid for group in checked.values() for oid in group}
                live.update(referrer for oid in removed
                            for referrer in referrers(oid)
                            if referrer in valuations[referrer.class_name])
                checked = {cname: [] for cname in valuations}
                for oid in sorted(live, key=str):
                    checked[oid.class_name].append(oid)
            for cname in self.target_schema.class_names():
                ctype = self.target_schema.class_type(cname)
                objs = valuations[cname]
                for oid in checked[cname]:
                    value, problem = objs[oid], None
                    try:
                        check_value(value, ctype)
                    except ValueError_ as exc:
                        problem = str(exc)
                    else:
                        for dangling in oids_in(value):
                            if dangling not in valuations.get(
                                    dangling.class_name, ()):
                                break
                        else:
                            continue
                    raise ExecutionError(
                        f"transformation produced an ill-formed instance: "
                        f"class {cname}, object {oid}: "
                        + (problem or f"value references {dangling}, "
                           f"which is not in the instance"))
            return Instance(self.target_schema, valuations), changed


class Executor:
    """Runs source-only clauses against a source instance.

    :meth:`run_program` plans the program once (fixed atom orders,
    shared prebuilt index pool) and every clause runs its precompiled
    steps as batch stages on the plan's pool.
    """

    def __init__(self, source: Instance, target_schema: Schema) -> None:
        self.source = source
        self.target_schema = target_schema
        self.store = TargetStore(target_schema)
        self.stats = ExecutionStats()

    # ------------------------------------------------------------------
    def run_program(self, program: Iterable[Clause],
                    plan: Optional[ProgramPlan] = None) -> "Executor":
        """Execute a whole program, planning it once.

        ``plan`` supplies a precomputed :class:`ProgramPlan`, which
        must have been planned over this executor's source (a
        :class:`ValueError` otherwise); by default one is planned here,
        on a fresh pool.  Running the same program again on this
        executor doubles the store's counts, not its values: the frozen
        target is the same.
        """
        start = time.perf_counter()
        clauses = list(program)
        # Planning here is part of this run: its prebuilds count.  An
        # injected plan's pool may be shared across runs.
        pool = (IndexPool(self.source) if plan is None
                else plan.pool.checked_for(self.source))
        with self.stats.charging(pool):
            if plan is None:
                plan = plan_program(clauses, self.source, pool=pool)
            for clause in clauses:
                self.run_clause(clause, plan.plan_for(clause), pool)
        self.stats.elapsed_seconds += time.perf_counter() - start
        publish_engine_stats("columnar", self.stats)
        return self

    def run_clause(self, clause: Clause, join_plan: JoinPlan,
                   pool: IndexPool) -> None:
        """Execute one normal-form clause: the precompiled steps run as
        batch stages on ``pool`` and the head effects apply
        column-wise."""
        self._check_source_only(clause)
        plan = _HeadPlan(clause, self.target_schema)
        self.stats.clauses_run += 1
        before = self.stats.bindings_found
        with span(f"clause {clause.name or clause}",
                  mode="columnar") as clause_span:
            self.stats.clauses_planned += 1
            self.stats.atoms_reordered += join_plan.atoms_reordered
            self._run_clause_columnar(clause, plan, join_plan, pool)
            clause_span.set(rows=self.stats.bindings_found - before)

    def _run_clause_columnar(self, clause: Clause, plan: "_HeadPlan",
                             join_plan: JoinPlan, pool: IndexPool) -> None:
        """Vectorized clause execution: body as batch stages, head
        effects applied column-wise.

        The head path is *optimistic*: identity, assignment, insertion
        and check terms are evaluated as whole columns and applied
        row-major (preserving the scalar conflict-detection order).  On
        any anomaly a column cannot express — a failed evaluation, a
        non-oid identity, a failed check — the batch replays row by row
        through the scalar :func:`head_effects`, so errors surface with
        exactly the scalar message at exactly the scalar position.
        Every head identity is recomputed and compared with what the
        body bound — also when the body evaluated the same Skolem term.
        """
        from .columnar import member_classes, run_steps_columnar
        # The head reads exactly these variables (``head_effects``'s
        # evaluation surface); every other binding column is dead after
        # the body and gets dropped between stages.
        needed = set(plan.created)
        for var, skolem in plan.identity_order:
            needed.add(var)
            needed |= skolem.variables()
        for var, _attr, term in plan.assignments:
            needed.add(var)
            needed |= term.variables()
        for var, _attr, term in plan.insertions:
            needed.add(var)
            needed |= term.variables()
        for check in plan.checks:
            needed |= check.variables()
        names, columns, count = run_steps_columnar(
            pool, join_plan.steps, {}, 1, self.stats,
            needed=frozenset(needed))
        self.stats.bindings_found += count
        if count == 0:
            return
        label = clause.name or str(clause)
        # Head terms compile against the same class typing the body
        # derived (membership-bound vars), so head projections gather
        # from attribute columns and reuse the hidden row columns the
        # scans threaded through.
        var_class = member_classes(step.atom for step in join_plan.steps)
        if not self._apply_heads_batch(plan, pool, columns, count, label,
                                       var_class=var_class):
            # Liveness filtering may have dropped columns `names`
            # mentions; the surviving ones are exactly what the head
            # reads, so replay bindings from the batch itself.
            for row in range(count):
                binding = {name: column[row]
                           for name, column in columns.items()}
                self._apply_head(plan, binding, clause)

    def _apply_heads_batch(self, plan: "_HeadPlan", pool: IndexPool,
                           columns: Mapping, count: int, label: str,
                           var_class: Optional[Dict[str, str]] = None
                           ) -> bool:
        """Apply a whole batch of head effects; False = replay scalar.

        Every anomaly the scalar path reports with an error — a failed
        evaluation, an identity mismatch, an unknown target class, a
        functionality conflict — is detected *before* any attribute is
        written, so a False return leaves the pending attributes
        untouched and the scalar replay raises exactly the scalar
        error at exactly the scalar position.  (Pending *objects* may
        already exist by then: creation is idempotent and observable
        only through the class check, which is part of the precheck.)

        After the precheck every head shape applies the same way:
        resolve each subject column to its pending objects, scan for
        functionality conflicts — within the batch and against whatever
        earlier clauses left in the store — then add every row to the
        store's counts.
        """
        from ..semantics.columns import MISSING
        from .columnar import compile_term
        local: Dict[str, List[Value]] = dict(columns)

        def evaluate_column(term: Term) -> Optional[List[Value]]:
            try:
                column = compile_term(term, var_class)(pool, local, count)
            except NotImplementedError:
                return None
            if MISSING in column:  # identity-first C scan, no genexpr
                return None
            return column

        for var, skolem in plan.identity_order:
            column = evaluate_column(skolem)
            if column is None:
                return False
            existing = local.get(var)
            if existing is not None and existing != column:
                return False  # identity mismatch somewhere in the batch
            local[var] = column

        has_class = self.target_schema.has_class
        # A subject column is scanned for validity at most once even
        # when several attributes write through it (same list object).
        valid_subjects: Set[int] = set()

        def subjects_ok(column: List[Value]) -> bool:
            if id(column) in valid_subjects:
                return True
            if any(not isinstance(oid, Oid) or not has_class(oid.class_name)
                   for oid in column):
                return False
            valid_subjects.add(id(column))
            return True

        creates: List[List[Value]] = []
        for var, class_name in plan.created.items():
            column = local.get(var)
            if column is None or any(
                    not isinstance(oid, Oid) or oid.class_name != class_name
                    for oid in column):
                return False
            if has_class(class_name):
                valid_subjects.add(id(column))
            creates.append(column)

        assignments: List[Tuple[List[Value], str, List[Value]]] = []
        for var, attr, value_term in plan.assignments:
            subjects = local.get(var)
            if subjects is None or not subjects_ok(subjects):
                return False
            column = evaluate_column(value_term)
            if column is None:
                return False
            assignments.append((subjects, attr, column))
        # Two entries writing the same attribute could conflict across
        # columns; the per-entry conflict scan below would miss that.
        attrs = [attr for _, attr, _ in assignments]
        if len(set(attrs)) != len(attrs):
            return False

        insertions: List[Tuple[List[Value], str, List[Value]]] = []
        for var, attr, element_term in plan.insertions:
            subjects = local.get(var)
            if subjects is None or not subjects_ok(subjects):
                return False
            column = evaluate_column(element_term)
            if column is None:
                return False
            insertions.append((subjects, attr, column))

        for check in plan.checks:
            lefts = evaluate_column(check.left)
            rights = evaluate_column(check.right)
            if lefts is None or rights is None or lefts != rights:
                return False

        # Materialise every pending object column-wise (idempotent, so
        # safe before the conflict scan; class validity is prechecked).
        # Each distinct subject column resolves to its pending objects
        # exactly once.  Identity columns intern their oids (the skolem
        # stages hand every duplicate key the same object), so the
        # id()-keyed memo turns the per-row probe into an int hash and
        # the value-hashing pending-store lookup runs once per *unique*
        # oid, not once per row.
        objects = self.store.objects
        get, ensure = objects.get, self.store.ensure
        known = len(objects)
        resolved_columns: Dict[int, List[_PendingObject]] = {}
        by_identity: Dict[int, _PendingObject] = {}

        def resolve(column: List[Value]) -> List[_PendingObject]:
            pendings = resolved_columns.get(id(column))
            if pendings is not None:
                return pendings
            pendings = []
            append = pendings.append
            memo_get = by_identity.get
            for oid in column:
                pending = memo_get(id(oid))
                if pending is None:
                    pending = by_identity[id(oid)] = get(oid) or ensure(oid)
                append(pending)
            resolved_columns[id(column)] = pendings
            return pendings

        creates = [resolve(column) for column in creates]
        assignments = [(resolve(subjects), attr, column)
                       for subjects, attr, column in assignments]
        insertions = [(resolve(subjects), attr, column)
                      for subjects, attr, column in insertions]
        self.stats.objects_created += len(objects) - known

        # Functionality conflict scan — within the batch and against
        # attributes earlier clauses derived.  Nothing has been written
        # yet, so a conflict can still hand the whole batch to the
        # scalar replay for the canonical error.
        for pendings, attr, column in assignments:
            seen: Dict[int, Value] = {}
            seen_get = seen.get
            for pending, value in zip(pendings, column):
                prev = seen_get(id(pending))
                if prev is None:
                    existing = pending.attributes.get(attr)
                    if existing is not None and value not in existing:
                        return False
                    seen[id(pending)] = value
                elif prev is not value and prev != value:
                    return False

        # Apply.  The precheck proved no effect can fail, so the
        # column-major order is observationally identical to the scalar
        # row-major order, and every row counts once — in the store and
        # in ``attributes_set`` — as it does on the scalar path (rows
        # sharing a subject were just proved to agree on the value).
        attributes_set = 0
        for pendings in creates:
            for pending in pendings:
                pending.creates += 1
        for pendings, attr, column in assignments:
            for pending, value in zip(pendings, column):
                counts = pending.attributes.get(attr)
                if counts is None:
                    pending.attributes[attr] = {value: 1}
                else:
                    counts[value] += 1
                pending.provenance[attr] = label
            attributes_set += len(column)
        for pendings, attr, column in insertions:
            for pending, value in zip(pendings, column):
                counts = pending.set_attributes.get(attr)
                if counts is None:
                    counts = pending.set_attributes[attr] = {}
                counts[value] = counts.get(value, 0) + 1
            attributes_set += len(column)
        self.stats.attributes_set += attributes_set
        return True

    def _check_source_only(self, clause: Clause) -> None:
        source_classes = set(self.source.schema.class_names())
        for atom in clause.body:
            if (isinstance(atom, MemberAtom)
                    and atom.class_name not in source_classes):
                raise ExecutionError(
                    f"clause {clause.name or clause}: body mentions "
                    f"non-source class {atom.class_name}; not in normal "
                    f"form")

    # ------------------------------------------------------------------
    def _apply_head(self, plan: "_HeadPlan", binding: Binding,
                    clause: Clause) -> None:
        """The scalar applier: each effect of one firing, checked
        eagerly, counted +1 by the store's signed ``apply``."""
        label = clause.name or str(clause)
        objects = self.store.objects
        known = len(objects)
        for effect in head_effects(plan, binding, self.source, label):
            if effect[0] == EFFECT_SET:
                self._set_attribute(effect[1], effect[2], effect[3], label)
            if effect[0] != EFFECT_CREATE:
                self.stats.attributes_set += 1
            self.store.apply(effect, +1)
        self.stats.objects_created += len(objects) - known

    def provenance(self) -> Dict[Oid, Dict[str, str]]:
        """Which clause derived each attribute of each pending object.

        Normal-form clause names encode their ancestry (e.g. ``T1+T3``),
        so this answers "where did this value come from?" for debugging
        transformation programs.
        """
        return {oid: dict(pending.provenance)
                for oid, pending in self.store.objects.items()}

    def explain(self, oid: Oid) -> str:
        """A human-readable derivation summary for one object."""
        pending = self.store.objects.get(oid)
        if pending is None:
            return f"{oid}: not derived by this execution"
        lines = [f"{oid}:"]
        for attr in sorted(set(pending.attributes)
                           | set(pending.set_attributes)):
            source = pending.provenance.get(attr, "<set accumulation>")
            lines.append(f"  .{attr} from clause {source}")
        return "\n".join(lines)

    def _set_attribute(self, oid: Oid, attr: str, value: Value,
                       label: str) -> None:
        """The eager functionality check of one scalar assignment."""
        pending = self.store.ensure(oid)
        existing = pending.attributes.get(attr)
        if existing is not None and value not in existing:
            raise ExecutionError(
                f"conflict on {oid}.{attr}: clause {label} derives "
                f"{format_value(value)} but clause "
                f"{pending.provenance.get(attr, '?')} derived "
                f"{format_value(next(iter(existing)))} (the program is "
                f"not functional)")
        pending.provenance[attr] = label

    # ------------------------------------------------------------------
    def freeze(self,
               defaults: Optional[Mapping[Tuple[str, str], Value]] = None
               ) -> Instance:
        """Assemble the batch target: :meth:`TargetStore.freeze` of
        every object against the empty target, raising
        :class:`ExecutionError` on an *incomplete* (Section 3.2) or
        ill-formed result.

        ``defaults`` maps ``(class, attribute)`` to a fill-in value for
        attributes no clause derived — the paper's "insert a default
        value for the attribute wherever it is omitted" reading of an
        optional-to-required schema change (Section 1).  WOL itself
        cannot express absence (no negation), so the default is applied
        here, after all clauses have run.
        """
        instance, _ = self.store.freeze(
            self.store.objects, empty_instance(self.target_schema),
            defaults or {})
        return instance


def head_effects(plan: "_HeadPlan", binding: Binding, source: Instance,
                 label: str) -> List[Effect]:
    """The primitive effects of one clause firing under ``binding``.

    This is the single scalar evaluation path for clause heads: the
    batch replay and the oracle count the effects +1 into the store,
    the incremental engine -1 / +1 — all therefore create the same
    objects, set the same attributes and fail on the same inputs.
    Residual head checks are verified here and raise
    :class:`ExecutionError` when they fail.
    """
    effects: List[Effect] = []
    # 1. Evaluate identities for created objects (fixpoint order).
    local = dict(binding)
    for var, skolem in plan.identity_order:
        try:
            oid = evaluate(skolem, local, source)
        except EvalError as exc:
            raise ExecutionError(
                f"clause {label}: cannot evaluate identity "
                f"{skolem}: {exc}") from exc
        assert isinstance(oid, Oid)
        if var in local and local[var] != oid:
            raise ExecutionError(
                f"clause {label}: identity mismatch for {var}: body "
                f"binds {local[var]} but the head identity is {oid}")
        local[var] = oid

    # 2. Create objects.
    for var, class_name in plan.created.items():
        oid = local.get(var)
        if not isinstance(oid, Oid):
            raise ExecutionError(
                f"clause {label}: created object {var} has no "
                f"identity")
        if oid.class_name != class_name:
            raise ExecutionError(
                f"clause {label}: identity {oid} does not belong to "
                f"class {class_name}")
        effects.append((EFFECT_CREATE, oid))

    # 3. Assignments.
    for var, attr, value_term in plan.assignments:
        oid = local.get(var)
        if not isinstance(oid, Oid):
            raise ExecutionError(
                f"clause {label}: assignment to {var}.{attr} but "
                f"{var} is not an object")
        try:
            value = evaluate(value_term, local, source)
        except EvalError as exc:
            raise ExecutionError(
                f"clause {label}: cannot evaluate value of "
                f"{var}.{attr}: {exc}") from exc
        effects.append((EFFECT_SET, oid, attr, value))

    # 4. Set insertions.
    for var, attr, element_term in plan.insertions:
        oid = local.get(var)
        if not isinstance(oid, Oid):
            raise ExecutionError(
                f"clause {label}: insertion into {var}.{attr} but "
                f"{var} is not an object")
        try:
            element = evaluate(element_term, local, source)
        except EvalError as exc:
            raise ExecutionError(
                f"clause {label}: cannot evaluate element of "
                f"{var}.{attr}: {exc}") from exc
        effects.append((EFFECT_INSERT, oid, attr, element))

    # 5. Residual checks (equalities between evaluated values).
    for check in plan.checks:
        try:
            left = evaluate(check.left, local, source)
            right = evaluate(check.right, local, source)
        except EvalError as exc:
            raise ExecutionError(
                f"clause {label}: cannot evaluate head check "
                f"{check}: {exc}") from exc
        if left != right:
            raise ExecutionError(
                f"clause {label}: head check {check} failed "
                f"({format_value(left)} != {format_value(right)})")
    return effects


def assemble_target_value(class_name: str, oid: Oid, ctype,
                          attributes: Dict[str, Value],
                          set_attributes: Mapping[str, Iterable[Value]],
                          defaults: Mapping[Tuple[str, str], Value]
                          ) -> Tuple[Optional[Value], List[str]]:
    """Assemble one target object's stored value from derived pieces.

    Returns ``(value, missing_attributes)``; ``value`` is None exactly
    when attributes are missing (an *incomplete* program, Section 3.2).
    Called only by :meth:`TargetStore.assemble`, which picks the live
    values out of the counts into a fresh ``attributes`` dict — filled
    in here and consumed.
    """
    if not isinstance(ctype, RecordType):
        if list(attributes) != []:
            raise ExecutionError(
                f"{oid}: attribute assignments on non-record "
                f"class {class_name}")
        raise ExecutionError(
            f"class {class_name} has non-record type; "
            f"direct value inserts are not supported")
    fields = attributes
    for attr, elements in set_attributes.items():
        fields[attr] = WolSet(frozenset(elements))
    for label, fty in ctype.fields:
        if label not in fields and isinstance(fty, SetType):
            fields[label] = WolSet(frozenset())
    for label in ctype.labels():
        if label not in fields:
            filler = defaults.get((class_name, label))
            if filler is not None:
                fields[label] = filler
    missing = [label for label in ctype.labels() if label not in fields]
    if missing:
        return None, missing
    extra = [label for label in fields if not ctype.has_field(label)]
    if extra:
        raise ExecutionError(
            f"{oid}: attributes {extra} not in class type")
    return Record(tuple(fields.items())), []


class _HeadPlan:
    """Decomposition of a normal-form head into executable pieces."""

    def __init__(self, clause: Clause, target_schema: Schema) -> None:
        self.created: Dict[str, str] = {}
        identities: Dict[str, SkolemTerm] = {}
        self.assignments: List[Tuple[str, str, Term]] = []
        self.insertions: List[Tuple[str, str, Term]] = []
        self.checks: List[EqAtom] = []

        set_collectors: Dict[str, Tuple[str, str]] = {}

        for atom in clause.head:
            if isinstance(atom, MemberAtom):
                if not isinstance(atom.element, Var):
                    raise ExecutionError(
                        f"head membership with non-variable element: {atom}")
                if not target_schema.has_class(atom.class_name):
                    raise ExecutionError(
                        f"head creates object in unknown class "
                        f"{atom.class_name}")
                self.created[atom.element.name] = atom.class_name
            elif isinstance(atom, EqAtom):
                if (isinstance(atom.left, Var)
                        and isinstance(atom.right, SkolemTerm)):
                    identities[atom.left.name] = atom.right
                elif (isinstance(atom.right, Proj)
                        and isinstance(atom.right.subject, Var)):
                    subject = atom.right.subject.name
                    attr = atom.right.attr
                    # A pair  V = X.attr  plus  E in V  encodes insertion.
                    if isinstance(atom.left, Var):
                        set_collectors[atom.left.name] = (subject, attr)
                    self.assignments.append((subject, attr, atom.left))
                elif (isinstance(atom.left, Proj)
                        and isinstance(atom.left.subject, Var)):
                    self.assignments.append(
                        (atom.left.subject.name, atom.left.attr,
                         atom.right))
                else:
                    self.checks.append(atom)
            elif isinstance(atom, InAtom):
                if isinstance(atom.collection, Var) and (
                        atom.collection.name in set_collectors):
                    subject, attr = set_collectors[atom.collection.name]
                    self.insertions.append((subject, attr, atom.element))
                elif (isinstance(atom.collection, Proj)
                        and isinstance(atom.collection.subject, Var)):
                    self.insertions.append(
                        (atom.collection.subject.name,
                         atom.collection.attr, atom.element))
                else:
                    raise ExecutionError(
                        f"unsupported head insertion: {atom}")
            else:
                raise ExecutionError(
                    f"unsupported head atom in normal form: {atom}")

        # Remove assignment entries that were really set collectors.
        self.assignments = [
            (subject, attr, value) for subject, attr, value in self.assignments
            if not (isinstance(value, Var)
                    and value.name in set_collectors
                    and set_collectors[value.name] == (subject, attr)
                    and any(ins_subject == subject and ins_attr == attr
                            for ins_subject, ins_attr, _ in self.insertions))]

        # Identity evaluation order: an identity may reference another
        # created object (e.g. a keyed city embeds its keyed country).
        self.identity_order = _order_identities(identities, self.created)


def _order_identities(identities: Dict[str, SkolemTerm],
                      created: Dict[str, str]
                      ) -> List[Tuple[str, SkolemTerm]]:
    ordered: List[Tuple[str, SkolemTerm]] = []
    placed: Set[str] = set()
    remaining = dict(identities)
    for _ in range(len(identities) + 1):
        progressed = False
        for var, skolem in sorted(remaining.items()):
            depends = {name for name in skolem.variables()
                       if name in identities and name not in placed
                       and name != var}
            if not depends:
                ordered.append((var, skolem))
                placed.add(var)
                del remaining[var]
                progressed = True
        if not progressed:
            break
    if remaining:
        raise ExecutionError(
            f"cyclic identity dependencies among {sorted(remaining)}")
    return ordered


def execute(program: Program, source: Instance,
            target_schema: Schema,
            defaults: Optional[Mapping[Tuple[str, str], Value]] = None,
            plan: Optional[ProgramPlan] = None
            ) -> Tuple[Instance, ExecutionStats]:
    """Run a normal-form program and return (target instance, stats).

    The program is planned here unless a precomputed ``plan`` is given;
    each planned clause executes as batch stages over whole binding
    columns.
    """
    executor = Executor(source, target_schema)
    executor.run_program(program, plan=plan)
    return executor.freeze(defaults=defaults), executor.stats
