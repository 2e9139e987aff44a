"""What every join plan runs on: plan steps, the index pool, unification.

A clause body is a conjunctive query; production evaluates it one way,
as its join plan (:mod:`repro.engine.planner`) run in batch stages
(:mod:`repro.engine.columnar`).  This module holds what those stages
share with the planner: the :class:`PlanStep` records and their modes,
the :class:`IndexPool` of hash indexes (and columns) over one instance,
the boundness check :func:`checked_steps`, and :func:`_is_pattern`, the
planner's test for a term a generator or equation can destructure.
The dynamic, per-binding enumeration those plans are tested against,
and its value-at-a-time pattern unification, are the reference
matcher's in :mod:`repro.oracle`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..lang.ast import (Atom, Const, RecordTerm, SkolemTerm, Term, Var,
                        VariantTerm)
from ..model.instance import Instance
from ..model.values import Oid, Value, WolList, WolSet
from ..obs.metrics import LATENCY_BUCKETS, REGISTRY
from .columns import ColumnStore
from .eval import EvalError, project


class MatchError(Exception):
    """Raised when a plan does not fit the variables bound before it, or
    when the reference matcher finds no atom ready to evaluate."""


#: Path step marking an element-of hop through a collection-valued
#: attribute.  A path ``("gene", "[]", "symbol", "[]")`` reads: project
#: ``gene``, take each element, project ``symbol``, take each element —
#: indexing joins that go *through* sets, not just equality chains.
ELEMENT_STEP = "[]"


#: Wall time spent materialising hash indexes (labelled by the indexed
#: class so hot classes stand out on a dashboard).
_BUILD_SECONDS = REGISTRY.histogram(
    "repro_index_build_seconds",
    "Time spent materialising one (class, path) hash index.",
    ("class_name",), buckets=LATENCY_BUCKETS)


class IndexPool:
    """Shared hash indexes over one instance: (class, path) -> value -> oids.

    A pool turns equality joins over class extents into hash lookups.  It
    is shareable: the program planner (:mod:`repro.engine.planner`) builds
    one pool per source instance and every clause's stages run on it, so
    an index over e.g. ``(SequenceT, name)`` is built once for the whole
    program instead of once per clause.  Stages read the instance, the
    indexes and :meth:`columns` all from the pool; :meth:`checked_for`
    is what every entry point handed a pool (or a plan holding one)
    asks before running.

    Paths may contain :data:`ELEMENT_STEP` hops; the index then maps each
    value *reachable* through the path (fanning out over collection
    elements) to the oids that reach it.  Such an index narrows a
    membership generator to a candidate superset — the clause's remaining
    atoms still verify the chain, so correctness never depends on the
    index being exact.

    Counters record the pool's lifetime use: ``builds`` indexes
    materialised, and the indexed probes (each one replaces a full
    extent scan), split into ``hits`` (non-empty candidate list) and
    ``misses`` (provably no match, no scan needed).  A run charges its
    share to its own record with
    :meth:`~repro.engine.executor.ExecutionStats.charging`.
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._indexes: Dict[Tuple[str, Tuple[str, ...]],
                            Dict[Value, Tuple[Oid, ...]]] = {}
        self.builds = 0
        self.hits = 0
        self.misses = 0
        # path_dependencies per (class, path): a schema walk, and every
        # rebase asks it for every built index.
        self._dependencies: Dict[Tuple[str, Tuple[str, ...]],
                                 Optional[frozenset]] = {}
        # Columnar arrays over the same instance, shared like the
        # indexes themselves (built lazily, patched by rebase).
        self._column_store: Optional[ColumnStore] = None

    def columns(self) -> ColumnStore:
        """The shared :class:`ColumnStore` over the pool's instance."""
        store = self._column_store
        if store is None or store.instance is not self.instance:
            store = ColumnStore(self.instance)
            self._column_store = store
        return store

    def checked_for(self, instance: Instance) -> "IndexPool":
        """This pool, once it is known to index ``instance``.

        A pool built over another instance addresses other oids: its
        probes would silently return wrong rows, so a plan, compiled
        program or pool handed in from outside is refused here.
        """
        if self.instance is not instance:
            raise ValueError(
                "plan or index pool was built for a different instance; "
                "its indexes would silently produce wrong results "
                "(re-plan against this instance)")
        return self

    def index_for(self, class_name: str, path: Tuple[str, ...]
                  ) -> Dict[Value, Tuple[Oid, ...]]:
        """The index for one (class, projection path), built on demand."""
        key = (class_name, path)
        index = self._indexes.get(key)
        if index is not None:
            return index
        started = time.perf_counter()
        built: Dict[Value, List[Oid]] = {}
        for oid in self.instance.objects_of(class_name):
            for value in _reached_values(self.instance, oid, path):
                built.setdefault(value, []).append(oid)
        frozen = {value: tuple(oids) for value, oids in built.items()}
        self._indexes[key] = frozen
        self.builds += 1
        _BUILD_SECONDS.labels(class_name).observe(
            time.perf_counter() - started)
        return frozen

    def prebuild(self, keys: Sequence[Tuple[str, Tuple[str, ...]]]) -> None:
        """Materialise a batch of indexes up front (planner entry point)."""
        for class_name, path in keys:
            self.index_for(class_name, path)

    def lookup(self, class_name: str, path: Tuple[str, ...],
               value: Value) -> Tuple[Oid, ...]:
        """Indexed probe: the oids whose ``path`` projects to ``value``."""
        candidates = self.index_for(class_name, path).get(value, ())
        if candidates:
            self.hits += 1
        else:
            self.misses += 1
        return candidates

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------
    def path_dependencies(self, class_name: str, path: Tuple[str, ...]
                          ) -> Optional[frozenset]:
        """Classes whose object values the index over ``path`` may read.

        The first step always reads the indexed object's own value;
        every time the walk crosses a class-typed position it
        dereferences a *stored* object of that class, whose value the
        index therefore also depends on.  Returns ``None`` when the
        schema walk cannot determine the read set (conservative).
        """
        key = (class_name, path)
        if key not in self._dependencies:
            self._dependencies[key] = self._walk_dependencies(class_name,
                                                              path)
        return self._dependencies[key]

    def _walk_dependencies(self, class_name: str, path: Tuple[str, ...]
                           ) -> Optional[frozenset]:
        from ..model.schema import SchemaError
        from ..model.types import (ClassType, ListType, RecordType, SetType)
        schema = self.instance.schema
        deps = {class_name}
        try:
            current = schema.class_type(class_name)
        except SchemaError:
            return None
        for step in path:
            while isinstance(current, ClassType):
                deps.add(current.name)
                try:
                    current = schema.class_type(current.name)
                except SchemaError:
                    return None
            if step == ELEMENT_STEP:
                if not isinstance(current, (SetType, ListType)):
                    return None
                current = current.element
            else:
                if not (isinstance(current, RecordType)
                        and current.has_field(step)):
                    return None
                current = current.field_type(step)
        return frozenset(deps)

    def rebase(self, new_instance: Instance,
               removed: Mapping[str, Sequence[Oid]],
               added: Mapping[str, Sequence[Oid]],
               strict_removed: Mapping[str, Sequence[Oid]],
               strict_added: Mapping[str, Sequence[Oid]],
               changed_attrs: Optional[Mapping[Oid, Optional[frozenset]]]
               = None) -> Tuple[int, int]:
        """Point the pool at an updated instance, patching built indexes
        in place: each entry a listed oid reaches is rebuilt (a removal
        keeps the order of the oids left, an addition appends, an
        emptied entry is deleted), so the cost is per touched entry and
        every index keeps its identity.  Nothing may read an index while
        it is rebased.

        ``removed``/``added`` list, per class, the oids whose reachable
        value set may have changed: the old entries to retract
        (computed over the *old* instance, still held by the pool) and
        the new entries to add.  For a delta this means the changed
        objects **plus their transitive referrers** on each side — an
        index path may dereference stored references, moving the entry
        of an object the delta never names; the referrer closure (which
        :mod:`repro.engine.incremental` maintains anyway) bounds exactly
        the entries that can move.  Oids absent from an instance
        contribute nothing on that side, so over-approximating either
        set is harmless.

        ``strict_removed``/``strict_added`` are the objects the delta
        itself names, per class.  They narrow the work for *local*
        paths (ones that never dereference another class): a
        referrer's entry in such an index cannot move, so only those
        objects need patching — and with
        ``changed_attrs`` (per-oid differing labels, None for
        existence changes) an update that leaves the path's root
        attribute untouched is skipped entirely.  They also patch the
        pool's columns, which read only each object's own value.

        An index whose path the schema walk cannot bound
        (:meth:`path_dependencies` returns None) is dropped and lazily
        rebuilt on next use.  Returns ``(maintained, dropped)`` counts.
        """
        maintained = 0
        dropped = []
        for (class_name, path), index in self._indexes.items():
            deps = self.path_dependencies(class_name, path)
            if deps is None:
                dropped.append((class_name, path))
                continue
            local = deps == {class_name}
            if local:
                removed_here: Sequence[Oid] = [
                    oid for oid in strict_removed.get(class_name, ())
                    if _attr_touched(oid, path, changed_attrs)]
                added_here: Sequence[Oid] = [
                    oid for oid in strict_added.get(class_name, ())
                    if _attr_touched(oid, path, changed_attrs)]
            else:
                removed_here = removed.get(class_name, ())
                added_here = added.get(class_name, ())
            if not removed_here and not added_here:
                continue
            for oid in removed_here:
                for value in _reached_values(self.instance, oid, path):
                    entry = index.get(value)
                    if entry is None:
                        continue
                    try:
                        at = entry.index(oid)
                    except ValueError:
                        continue
                    if len(entry) > 1:
                        index[value] = entry[:at] + entry[at + 1:]
                    else:
                        del index[value]
            for oid in added_here:
                for value in _reached_values(new_instance, oid, path):
                    entry = index.get(value, ())
                    # A local path's added oid is either new or was
                    # just removed from every entry: no scan for it.
                    if local or oid not in entry:
                        index[value] = entry + (oid,)
            maintained += 1
        for key in dropped:
            del self._indexes[key]
        if self._column_store is not None:
            self._column_store.patch(new_instance, strict_removed,
                                     strict_added)
        self.instance = new_instance
        return maintained, len(dropped)


def _attr_touched(oid: Oid, path: Tuple[str, ...],
                  changed_attrs: Optional[Mapping[Oid,
                                                  Optional[frozenset]]]
                  ) -> bool:
    """Could a change to ``oid`` move its entry in a local-path index?

    A local path reads only the object's own stored value, starting at
    its first attribute; an update whose differing labels exclude it
    cannot move the entry.  Unknown changes (no map, or existence
    changes marked None) are conservatively touched.
    """
    if changed_attrs is None:
        return True
    attrs = changed_attrs.get(oid)
    if attrs is None:
        return True
    return bool(path) and path[0] in attrs


def _reached_values(instance: Instance, oid: Oid,
                    path: Tuple[str, ...]) -> Tuple[Value, ...]:
    """The distinct values ``oid`` reaches through ``path`` (build order).

    Shared by the initial index build and the in-place delta
    maintenance so both compute identical entry sets.
    """
    reached: List[Value] = [oid]
    for step in path:
        advanced: List[Value] = []
        if step == ELEMENT_STEP:
            for value in reached:
                if isinstance(value, (WolSet, WolList)):
                    advanced.extend(value)
        else:
            for value in reached:
                try:
                    advanced.append(project(value, step, instance))
                except EvalError:
                    continue  # this branch dies, others survive
        reached = advanced
        if not reached:
            break
    seen: set = set()
    distinct: List[Value] = []
    for value in reached:
        if value not in seen:
            seen.add(value)
            distinct.append(value)
    return tuple(distinct)


#: Plan step modes (computed statically by :mod:`repro.engine.planner`).
STEP_MEMBER_TEST = "member-test"
STEP_MEMBER_SCAN = "member-scan"
STEP_MEMBER_INDEX = "member-index"
STEP_IN_TEST = "in-test"
STEP_IN_GENERATE = "in-generate"
STEP_EQ_TEST = "eq-test"
STEP_EQ_BIND = "eq-bind"
STEP_COMPARE = "compare-test"


@dataclass(frozen=True)
class PlanStep:
    """One precompiled evaluation step of a clause body.

    The program planner classifies each atom once, statically — instead of
    the dynamic matcher re-deriving readiness (and re-discovering index
    selectors) for every partial binding.  ``binds`` lists the variables
    this step introduces; they are guaranteed unbound when the step runs.

    * ``member-index`` carries ``selector_path``/``selector_term``: the
      candidates come from an :class:`IndexPool` probe with the value of
      ``selector_term`` (bound by earlier steps) instead of an extent scan.
    * ``eq-bind`` carries ``eval_term`` (evaluable now) and
      ``pattern_term`` (the side being unified/bound).
    """

    atom: Atom
    mode: str
    binds: Tuple[str, ...] = ()
    selector_path: Optional[Tuple[str, ...]] = None
    selector_term: Optional[Term] = None
    eval_term: Optional[Term] = None
    pattern_term: Optional[Term] = None

    @cached_property
    def requires(self) -> FrozenSet[str]:
        """Variables that must already be bound when the step runs.

        What the boundness check (:func:`checked_steps`) reads,
        derived from the syntax once per step instead of once per
        probe.  ``cached_property`` writes the instance ``__dict__``
        directly, which a frozen dataclass permits; the fields above
        stay the only state compared, hashed or copied by ``replace``.
        """
        required = self.atom.variables() - frozenset(self.binds)
        if self.selector_term is not None:
            required |= self.selector_term.variables()
        return required


def _is_pattern(term: Term) -> bool:
    """Can ``term`` be driven by unification against a value?  (What
    :func:`repro.engine.columnar.compile_pattern` compiles: variables
    and constants under record, variant and Skolem constructors.)"""
    if isinstance(term, (Var, Const)):
        return True
    if isinstance(term, RecordTerm):
        return all(_is_pattern(sub) for _, sub in term.fields)
    if isinstance(term, VariantTerm):
        return _is_pattern(term.payload)
    if isinstance(term, SkolemTerm):
        return all(_is_pattern(sub) for _, sub in term.args)
    return False  # projections need evaluation


def checked_steps(steps: Sequence[PlanStep],
                  bound: Iterable[str]) -> Tuple[PlanStep, ...]:
    """``steps`` as a tuple, once the ``bound`` variable names are known
    to fit them.

    The one boundness check every plan entry point shares, so a
    mismatch raises :class:`MatchError` at call time.  Two mismatch
    directions: a step *re-binds* a variable the caller pre-bound (the
    plan was compiled without it), or a step *requires* a variable that
    neither the caller nor any earlier step binds (the plan was compiled
    with an ``initial_bound`` the caller didn't supply).  Either way the
    steps would silently compute wrong solutions.
    """
    steps = tuple(steps)
    pre_bound = frozenset(bound)
    available = set(pre_bound)
    for step in steps:
        if not (pre_bound.isdisjoint(step.binds)
                and step.requires <= available):
            raise MatchError(
                "plan boundness assumptions do not match the initial "
                "binding (re-plan with matching initial_bound)")
        available.update(step.binds)
    return steps
