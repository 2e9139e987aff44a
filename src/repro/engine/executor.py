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
(:mod:`repro.engine.columnar`), one stage per plan step.  A clause the
planner cannot order raises :class:`~repro.engine.planner.PlanError`
before any clause runs.  Running every clause on the dynamic matcher instead
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
                    NoReturn, Optional, Set, Tuple)

from ..lang.ast import (Clause, Const, EqAtom, InAtom, MemberAtom, Program,
                        Proj, SkolemTerm, Term, Var)
from ..model.instance import Instance, empty_instance
from ..model.schema import Schema
from ..model.types import RecordType, SetType
from ..model.values import (Oid, Record, Value, ValueError_, WolSet,
                            check_value, format_value, oids_in)
from ..obs.metrics import publish_engine_stats
from ..obs.trace import span
from ..semantics.columns import MISSING, first_missing
from ..semantics.eval import Binding, EvalError, evaluate
from ..semantics.match import IndexPool
from .planner import JoinPlan, ProgramPlan, plan_program


class ExecutionError(Exception):
    """Raised on conflicting or ill-formed inserts."""


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
    #: run as whole-batch stages, total rows entering them, and the
    #: largest batch seen.
    vectorized_steps: int = 0
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
    holds exactly those.  The one head applier (:meth:`_HeadPlan.apply`)
    counts whole body batches into it: a batch pass adds and checks
    functionality eagerly before it writes; an incremental step retracts
    and re-derives with a sign, unchecked, :meth:`settle` drops what a
    retraction zeroed, and :meth:`assemble` reports whatever conflict is
    left once the step's counts have settled.
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

    def settle(self, oids: Iterable[Oid]) -> None:
        """Drop what a retraction counted down to zero among ``oids``:
        values, then attributes and objects left with no count.  Below
        zero, a retracted effect was never recorded."""
        for oid in oids:
            pending = self.objects.get(oid)
            if pending is None:
                continue
            groups = (pending.attributes, pending.set_attributes)
            if pending.creates < 0 or any(
                    count < 0 for group in groups
                    for counts in group.values() for count in counts.values()):
                raise ExecutionError(
                    f"bookkeeping underflow on {oid}: a retracted effect "
                    f"was never recorded")
            for group in groups:
                for attr, counts in list(group.items()):
                    if 0 in counts.values():
                        group[attr] = {value: count for value, count
                                       in counts.items() if count}
                        if not group[attr]:
                            del group[attr]
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
        batch stages on ``pool`` and the head applies to the whole
        batch, functionality checked eagerly."""
        from .columnar import run_steps_columnar
        self._check_source_only(clause)
        head = _HeadPlan(clause, self.target_schema)
        self.stats.clauses_run += 1
        self.stats.clauses_planned += 1
        self.stats.atoms_reordered += join_plan.atoms_reordered
        with span(f"clause {head.label}", mode="columnar") as clause_span:
            _, columns, count = run_steps_columnar(
                pool, join_plan.steps, {}, 1, self.stats,
                needed=head.needed)
            self.stats.bindings_found += count
            known = len(self.store.objects)
            head.apply(self.store, pool, columns, count)
            self.stats.objects_created += len(self.store.objects) - known
            self.stats.attributes_set += count * (len(head.assignments)
                                                  + len(head.insertions))
            clause_span.set(rows=count)

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
    """Decomposition of a normal-form head into executable pieces, and
    the one head applier (:meth:`apply`): a batch pass and an
    incremental step alike count whole body batches through it."""

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
        self.label = clause.name or str(clause)
        # What the head reads; every other body column is dead.
        self.needed = frozenset().union(
            *(atom.variables() for atom in clause.head))
        # Column evaluators, compiled once, typed as the body binds its
        # variables: head projections gather from attribute columns.
        from .columnar import compile_term, member_classes
        var_class = member_classes(clause.body)

        def compiled(term: Term):
            # A variable's or a constant's column cannot hold MISSING.
            return (term.variables(), compile_term(term, var_class),
                    isinstance(term, (Var, Const)))
        self._identities = [compiled(skolem)
                            for _, skolem in self.identity_order]
        self._values = [compiled(term) for _, _, term in self.assignments]
        self._elements = [compiled(term) for _, _, term in self.insertions]
        self._sides = [(compiled(check.left), compiled(check.right))
                       for check in self.checks]

    def apply(self, store: TargetStore, pool: IndexPool,
              columns: Mapping[str, List[Value]], count: int,
              sign: int = 1, checked: bool = True) -> List[List[Value]]:
        """Count the effects of every row of a body batch into
        ``store``, ``sign`` times (+1 derived, -1 retracted); returns
        the object columns written through (created objects, subjects).

        ``checked`` (a batch pass) tests functionality eagerly, against
        the store and every row before; an incremental step leaves a
        conflict to :meth:`TargetStore.assemble`, since a later
        retraction of the step may lift it.  Nothing is written until
        the whole batch is known to apply; otherwise :meth:`_fail`
        raises what applying the rows one at a time would meet first.
        """
        if not count:
            return []
        local: Dict[str, List[Value]] = dict(columns)
        clean = True

        def column_of(compiled) -> List[Value]:
            """A term's column; a row it fails on fails the batch."""
            nonlocal clean
            variables, evaluator, total = compiled
            if not local.keys() >= variables:
                clean = False  # an unbound variable fails every row
                return [MISSING] * count
            column = evaluator(pool, local, count)
            if not total and first_missing(column) is not None:
                clean = False
            return column

        identities: List[List[Value]] = []
        for (var, _), compiled in zip(self.identity_order, self._identities):
            column = column_of(compiled)
            bound = local.get(var)
            clean = clean and (bound is None or bound == column)
            identities.append(column)
            local[var] = column
        for var, class_name in self.created.items():
            column = local.get(var)
            clean = clean and column is not None and all(
                isinstance(oid, Oid) and oid.class_name == class_name
                for oid in column)
        sets = [(local.get(var), attr, column_of(compiled))
                for (var, attr, _), compiled in zip(self.assignments,
                                                    self._values)]
        inserts = [(local.get(var), attr, column_of(compiled))
                   for (var, attr, _), compiled in zip(self.insertions,
                                                       self._elements)]
        checks = [(column_of(left), column_of(right))
                  for left, right in self._sides]
        # Created columns were just proved to hold target objects.
        targets = {id(local[var]) for var in self.created if var in local}
        has_class = store.target_schema.has_class
        clean = clean and all(
            subjects is not None and (id(subjects) in targets or all(
                isinstance(oid, Oid) and has_class(oid.class_name)
                for oid in subjects))
            for subjects, _, _ in sets + inserts) and all(
            lefts == rights for lefts, rights in checks)
        if not clean:
            self._fail(store, pool.instance, columns, count, checked,
                       identities, sets, inserts, checks)

        # Each distinct subject column resolves to its pending objects
        # once.  Identity columns intern their oids (the Skolem stages
        # hand every duplicate key the same object), so the id()-keyed
        # memo turns the per-row probe into an int hash and the
        # value-hashing store lookup runs once per *unique* oid.
        get, ensure = store.objects.get, store.ensure
        by_identity: Dict[int, _PendingObject] = {}
        resolved: Dict[int, List[_PendingObject]] = {}

        def resolve(column: List[Value]) -> List[_PendingObject]:
            pendings = resolved.get(id(column))
            if pendings is None:
                pendings = resolved[id(column)] = []
                append, memo = pendings.append, by_identity.get
                for oid in column:
                    pending = memo(id(oid))
                    if pending is None:
                        pending = by_identity[id(oid)] = (get(oid)
                                                          or ensure(oid))
                    append(pending)
            return pendings

        creates = [resolve(local[var]) for var in self.created]
        set_pendings = [resolve(subjects) for subjects, _, _ in sets]
        insert_pendings = [resolve(subjects) for subjects, _, _ in inserts]
        if checked and not _functional(sets, set_pendings):
            self._fail(store, pool.instance, columns, count, checked,
                       identities, sets, inserts, checks)

        label = self.label
        for pendings in creates:
            for pending in pendings:
                pending.creates += sign
        for (_, attr, values), pendings in zip(sets, set_pendings):
            for pending, value in zip(pendings, values):
                counts = pending.attributes.get(attr)
                if counts is None:
                    pending.attributes[attr] = {value: sign}
                else:
                    counts[value] = counts.get(value, 0) + sign
                pending.provenance[attr] = label
        for (_, attr, values), pendings in zip(inserts, insert_pendings):
            for pending, value in zip(pendings, values):
                counts = pending.set_attributes.get(attr)
                if counts is None:
                    counts = pending.set_attributes[attr] = {}
                counts[value] = counts.get(value, 0) + sign
        written = [local[var] for var in self.created]
        written += [subjects for subjects, _, _ in sets + inserts]
        if sign < 0:
            store.settle({oid for column in written for oid in column})
        return written

    def _fail(self, store: TargetStore, instance: Instance,
              columns: Mapping[str, List[Value]], count: int,
              checked: bool, identities, sets, inserts, checks) -> NoReturn:
        """Raise the error of the first failing row of a batch
        :meth:`apply` refused: row by row, the checks one firing makes
        in order — identities, created objects, assignments, insertions,
        head checks — then per effect its subject's class and, when
        ``checked``, its functionality against the store and the
        effects before it.  A failed evaluation's reason is the scalar
        evaluator's, at that one row."""
        label = self.label

        def reason(term: Term, binding: Binding) -> EvalError:
            try:
                evaluate(term, binding, instance)
            except EvalError as exc:
                return exc
            raise AssertionError(f"{term} fails as a column, not at a row")

        body = [(name, column) for name, column in columns.items()
                if not name.startswith("\0")]
        written: Dict[Tuple[Value, str], Tuple[Value, str]] = {}
        for row in range(count):
            binding = {name: column[row] for name, column in body}
            for (var, skolem), column in zip(self.identity_order,
                                             identities):
                oid = column[row]
                if oid is MISSING:
                    raise ExecutionError(
                        f"clause {label}: cannot evaluate identity "
                        f"{skolem}: {reason(skolem, binding)}")
                if var in binding and binding[var] != oid:
                    raise ExecutionError(
                        f"clause {label}: identity mismatch for {var}: "
                        f"body binds {binding[var]} but the head identity "
                        f"is {oid}")
                binding[var] = oid
            for var, class_name in self.created.items():
                oid = binding.get(var)
                if not isinstance(oid, Oid):
                    raise ExecutionError(
                        f"clause {label}: created object {var} has no "
                        f"identity")
                if oid.class_name != class_name:
                    raise ExecutionError(
                        f"clause {label}: identity {oid} does not belong "
                        f"to class {class_name}")
            for entries, evaluated, noun, part in (
                    (self.assignments, sets, "assignment to", "value"),
                    (self.insertions, inserts, "insertion into", "element")):
                for (var, attr, term), (_, _, values) in zip(entries,
                                                              evaluated):
                    if not isinstance(binding.get(var), Oid):
                        raise ExecutionError(
                            f"clause {label}: {noun} {var}.{attr} but "
                            f"{var} is not an object")
                    if values[row] is MISSING:
                        raise ExecutionError(
                            f"clause {label}: cannot evaluate {part} of "
                            f"{var}.{attr}: {reason(term, binding)}")
            for check, (lefts, rights) in zip(self.checks, checks):
                for term, values in ((check.left, lefts),
                                     (check.right, rights)):
                    if values[row] is MISSING:
                        raise ExecutionError(
                            f"clause {label}: cannot evaluate head check "
                            f"{check}: {reason(term, binding)}")
                if lefts[row] != rights[row]:
                    raise ExecutionError(
                        f"clause {label}: head check {check} failed "
                        f"({format_value(lefts[row])} != "
                        f"{format_value(rights[row])})")
            # The effects: ``ensure`` refuses an object outside the
            # target classes.
            for (var, attr, _), (_, _, values) in zip(self.assignments,
                                                       sets):
                oid, value = binding[var], values[row]
                pending = store.ensure(oid)
                if checked:
                    existing = pending.attributes.get(attr)
                    derived, provenance = written.setdefault((oid, attr), (
                        next(iter(existing)),
                        pending.provenance.get(attr, "?"))
                        if existing else (value, label))
                    if value != derived:
                        raise ExecutionError(
                            f"conflict on {oid}.{attr}: clause {label} "
                            f"derives {format_value(value)} but clause "
                            f"{provenance} derived {format_value(derived)} "
                            f"(the program is not functional)")
                    written[oid, attr] = (derived, label)
            for var, _, _ in self.insertions:
                store.ensure(binding[var])
        raise AssertionError("a refused head batch has no failing row")


def _functional(sets, pendings) -> bool:
    """Does every (object, attribute) the batch assigns take one value,
    the one the store already holds if any?  One scan over all entries,
    keyed by attribute and pending object."""
    seen_by_attr: Dict[str, Dict[int, Value]] = {}
    for (_, attr, values), targets in zip(sets, pendings):
        seen = seen_by_attr.setdefault(attr, {})
        seen_get = seen.get
        for pending, value in zip(targets, values):
            prev = seen_get(id(pending))
            if prev is None:
                existing = pending.attributes.get(attr)
                if existing is not None and value not in existing:
                    return False
                seen[id(pending)] = value
            elif prev is not value and prev != value:
                return False
    return True


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
