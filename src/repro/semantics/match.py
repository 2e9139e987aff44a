"""Conjunctive matching: enumerate variable bindings satisfying atoms.

This is the shared evaluation core of the satisfaction checker
(:mod:`repro.semantics.satisfaction`) and the one-pass execution engine
(:mod:`repro.engine.executor`): given a set of atoms and an instance,
enumerate all bindings of the atoms' variables that make every atom true.

Atoms are processed in a data-driven order: at each step the matcher picks
an atom that is *ready* under the current binding — one that can either be
tested outright or used to generate/propagate bindings.  Range-restricted
clauses always admit such an order; if no atom is ever ready the clause is
reported as non-evaluable rather than silently dropped.

Pattern unification against values supports the invertible positions of
:mod:`repro.lang.range_restriction`: variables, record fields, variant
payloads and Skolem arguments (recovering arguments from keyed identities).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import (Dict, FrozenSet, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..lang.ast import (Atom, Const, EqAtom, InAtom, LeqAtom, LtAtom,
                        MemberAtom, NeqAtom, Proj, RecordTerm, SkolemTerm,
                        Term, Var, VariantTerm)
from ..model.instance import Instance
from ..model.values import Oid, Record, Value, Variant, WolList, WolSet
from ..obs.metrics import LATENCY_BUCKETS, REGISTRY
from .columns import ColumnStore, deterministic_order
from .eval import Binding, EvalError, evaluate, is_evaluable, project


class MatchError(Exception):
    """Raised when atoms cannot be ordered for evaluation."""


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

#: A supplied plan dropped by :meth:`Matcher.solutions` because the
#: caller's initial binding did not fit the boundness it was compiled
#: for: the probe still answers, but on the dynamic matcher.
_PLAN_FALLBACKS = REGISTRY.counter(
    "repro_matcher_plan_fallback_total",
    "Supplied join plans dropped for the dynamic matcher because their "
    "boundness assumptions did not fit the initial binding.")


class IndexPool:
    """Shared hash indexes over one instance: (class, path) -> value -> oids.

    A pool turns equality joins over class extents into hash lookups.  It
    is shareable: the program planner (:mod:`repro.engine.planner`) builds
    one pool per source instance and injects it into every clause's
    matcher, so an index over e.g. ``(SequenceT, name)`` is built once for
    the whole program instead of once per :class:`Matcher`.

    Paths may contain :data:`ELEMENT_STEP` hops; the index then maps each
    value *reachable* through the path (fanning out over collection
    elements) to the oids that reach it.  Such an index narrows a
    membership generator to a candidate superset — the clause's remaining
    atoms still verify the chain, so correctness never depends on the
    index being exact.

    Counters record how the pool was used (``ExecutionStats`` reads them):
    ``builds`` indexes materialised, ``lookups`` total indexed probes (each
    one replaces a full extent scan), split into ``hits`` (non-empty
    candidate list) and ``misses`` (provably no match, no scan needed).
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._indexes: Dict[Tuple[str, Tuple[str, ...]],
                            Dict[Value, Tuple[Oid, ...]]] = {}
        self.builds = 0
        self.lookups = 0
        self.hits = 0
        self.misses = 0
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
        self.lookups += 1
        candidates = self.index_for(class_name, path).get(value, ())
        if candidates:
            self.hits += 1
        else:
            self.misses += 1
        return candidates

    def indexed_keys(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        return tuple(sorted(self._indexes))

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
               strict_removed: Optional[Mapping[str,
                                                Sequence[Oid]]] = None,
               strict_added: Optional[Mapping[str,
                                              Sequence[Oid]]] = None,
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

        ``strict_removed``/``strict_added`` optionally narrow the work
        for *local* paths (ones that never dereference another class):
        a referrer's entry in such an index cannot move, so only the
        objects the delta itself names need patching — and with
        ``changed_attrs`` (per-oid differing labels, None for
        existence changes) an update that leaves the path's root
        attribute untouched is skipped entirely.

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
            if local and strict_removed is not None \
                    and strict_added is not None:
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
                    if entry is not None and oid in entry:
                        kept = tuple(other for other in entry
                                     if other != oid)
                        if kept:
                            index[value] = kept
                        else:
                            del index[value]
            for oid in added_here:
                for value in _reached_values(new_instance, oid, path):
                    entry = index.get(value, ())
                    if oid not in entry:
                        index[value] = entry + (oid,)
            maintained += 1
        for key in dropped:
            del self._indexes[key]
        store = self._column_store
        if store is not None:
            # Columns depend only on each object's *own* stored value,
            # so the strict per-class edit sets patch extents exactly;
            # without them, drop the touched classes for lazy rebuild.
            if strict_removed is not None and strict_added is not None:
                store.patch(new_instance, strict_removed, strict_added)
            else:
                store.refresh(new_instance,
                              set(removed) | set(added))
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

        What the boundness check (:func:`_plan_conflicts_with`) reads,
        derived from the syntax once per step instead of once per
        probe.  ``cached_property`` writes the instance ``__dict__``
        directly, which a frozen dataclass permits; the fields above
        stay the only state compared, hashed or copied by ``replace``.
        """
        required = self.atom.variables() - frozenset(self.binds)
        if self.selector_term is not None:
            required |= self.selector_term.variables()
        return required


def unify_term(term: Term, value: Value, binding: Binding,
               instance: Optional[Instance]) -> Optional[Binding]:
    """Unify a term pattern against a concrete value.

    Returns an extended binding, or None when the unification fails.  The
    input binding is never mutated.
    """
    if isinstance(term, Var):
        bound = binding.get(term.name)
        if bound is None:
            extended = dict(binding)
            extended[term.name] = value
            return extended
        return binding if bound == value else None
    if isinstance(term, Const):
        return binding if term.value == value else None
    if isinstance(term, RecordTerm):
        if not isinstance(value, Record):
            return None
        if set(term.labels()) != set(value.labels()):
            return None
        current: Optional[Binding] = binding
        for label, sub in term.fields:
            current = unify_term(sub, value.get(label), current, instance)
            if current is None:
                return None
        return current
    if isinstance(term, VariantTerm):
        if not isinstance(value, Variant) or value.label != term.label:
            return None
        return unify_term(term.payload, value.value, binding, instance)
    if isinstance(term, SkolemTerm):
        if not (isinstance(value, Oid) and value.is_keyed
                and value.class_name == term.class_name):
            return None
        return _unify_skolem_args(term, value.key, binding, instance)
    if isinstance(term, Proj):
        # Projections are not invertible: only usable when evaluable.
        if not is_evaluable(term, binding):
            return None
        try:
            actual = evaluate(term, binding, instance)
        except EvalError:
            return None
        return binding if actual == value else None
    return None


def _unify_skolem_args(term: SkolemTerm, key: Value, binding: Binding,
                       instance: Optional[Instance]) -> Optional[Binding]:
    """Recover Skolem arguments from a keyed oid's key and unify them."""
    args = list(term.args)
    if not args:
        return binding if key == Record(()) else None
    if args[0][0] is None:
        if len(args) == 1:
            return unify_term(args[0][1], key, binding, instance)
        if not isinstance(key, Record):
            return None
        current: Optional[Binding] = binding
        for index, (_, sub) in enumerate(args):
            label = f"arg{index}"
            if not key.has(label):
                return None
            current = unify_term(sub, key.get(label), current, instance)
            if current is None:
                return None
        return current
    if not isinstance(key, Record):
        return None
    if set(key.labels()) != {label for label, _ in args}:
        return None
    current = binding
    for label, sub in args:
        current = unify_term(sub, key.get(label), current, instance)
        if current is None:
            return None
    return current


def _is_pattern(term: Term) -> bool:
    """Can ``term`` be driven by unification against a value?"""
    if isinstance(term, (Var, Const)):
        return True
    if isinstance(term, RecordTerm):
        return all(_is_pattern(sub) for _, sub in term.fields)
    if isinstance(term, VariantTerm):
        return _is_pattern(term.payload)
    if isinstance(term, SkolemTerm):
        return all(_is_pattern(sub) for _, sub in term.args)
    return False  # projections need evaluation


class Matcher:
    """Enumerates bindings satisfying a conjunction of atoms.

    ``prefer_tests`` enables the join-ordering heuristic: among ready
    atoms, run cheap tests before opening generators, pruning partial
    bindings as early as possible.  Disabling it (atoms processed in
    textual order, generators included) is the A2 ablation — the results
    are identical but the search explores more bindings.

    ``index_pool`` injects a shared :class:`IndexPool`; when omitted the
    matcher owns a private pool (the pre-planner behaviour, indexes built
    lazily per matcher).  ``run_plan`` executes a precompiled sequence of
    :class:`PlanStep` (a fixed atom order chosen once by the program
    planner) instead of re-deriving the order per binding.
    """

    def __init__(self, instance: Instance,
                 prefer_tests: bool = True,
                 use_indexes: bool = True,
                 index_pool: Optional[IndexPool] = None) -> None:
        self.instance = instance
        self.prefer_tests = prefer_tests
        self.use_indexes = use_indexes
        # Hash indexes turning equality joins over class extents into
        # lookups, keeping normal-form execution one-pass in spirit *and*
        # in cost.  Shared across clauses when a pool is injected.
        self.pool = index_pool if index_pool is not None else \
            IndexPool(instance)
        # Private columnar arrays, used only when the pool tracks a
        # different instance than this matcher (see :meth:`columns`).
        self._own_columns: Optional[ColumnStore] = None

    def columns(self) -> ColumnStore:
        """Columnar arrays over this matcher's instance.

        Shared through the pool whenever the pool tracks the same
        instance (the planned/incremental configuration, where
        ``rebase`` keeps the arrays patched); otherwise a matcher-
        private store is built lazily.
        """
        pool = self.pool
        if pool.instance is self.instance:
            return pool.columns()
        store = self._own_columns
        if store is None or store.instance is not self.instance:
            store = ColumnStore(self.instance)
            self._own_columns = store
        return store

    # ------------------------------------------------------------------
    def solutions(self, atoms: Sequence[Atom],
                  initial: Optional[Binding] = None,
                  plan: Optional[Sequence[PlanStep]] = None
                  ) -> Iterator[Binding]:
        """All bindings extending ``initial`` that satisfy ``atoms``.

        With ``plan`` the atoms are processed in the fixed, precompiled
        order instead of the dynamic readiness order; the solution set is
        identical (differential tests enforce this).  The plan runs only
        after the one boundness check every plan entry point makes
        (:func:`_plan_conflicts_with`, set operations over each step's
        cached ``requires``): a plan compiled with a
        different ``initial_bound`` than ``initial`` supplies would
        re-bind a pre-bound variable or read an unbound one, so such
        calls fall back to the dynamic order rather than return wrong
        solutions — counted in ``repro_matcher_plan_fallback_total``.
        """
        if plan is not None:
            if not _plan_conflicts_with(plan, initial):
                yield from self._run_steps(plan, 0, dict(initial or {}))
                return
            _PLAN_FALLBACKS.inc()
        yield from self._solve(list(atoms), dict(initial or {}))

    def satisfiable(self, atoms: Sequence[Atom],
                    initial: Optional[Binding] = None,
                    plan: Optional[Sequence[PlanStep]] = None) -> bool:
        """True iff at least one satisfying binding exists.

        With ``plan`` (a precompiled step order whose ``initial_bound``
        matches ``initial``'s variables — the constraint auditor's head
        probe), the search runs the fixed order; mismatches fall back to
        the dynamic order via :meth:`solutions`.
        """
        for _ in self.solutions(atoms, initial, plan=plan):
            return True
        return False

    # ------------------------------------------------------------------
    def _solve(self, atoms: List[Atom],
               binding: Binding) -> Iterator[Binding]:
        if not atoms:
            yield binding
            return
        index = self._pick_ready(atoms, binding)
        if index is None:
            pending = ", ".join(str(a) for a in atoms)
            raise MatchError(
                f"no atom is ready under the current binding; "
                f"pending: {pending} (is the clause range-restricted?)")
        atom = atoms[index]
        rest = atoms[:index] + atoms[index + 1:]
        for extended in self._expand(atom, binding, rest):
            yield from self._solve(rest, extended)

    def _pick_ready(self, atoms: Sequence[Atom],
                    binding: Binding) -> Optional[int]:
        """Index of the best ready atom.

        Priority: tests (filter immediately) > binds (deterministic
        definitions — they never multiply bindings and make values
        available to index selectors) > generators (enumerations).
        """
        bind_index: Optional[int] = None
        generator_index: Optional[int] = None
        for index, atom in enumerate(atoms):
            readiness = self._readiness(atom, binding)
            if readiness == "test":
                return index
            if readiness is None:
                continue
            if not self.prefer_tests:
                return index
            if readiness == "bind":
                if bind_index is None:
                    bind_index = index
            elif generator_index is None:
                generator_index = index
        if bind_index is not None:
            return bind_index
        return generator_index

    def _readiness(self, atom: Atom, binding: Binding) -> Optional[str]:
        if isinstance(atom, MemberAtom):
            if is_evaluable(atom.element, binding):
                return "test"
            if _is_pattern(atom.element):
                return "generate"
            return None
        if isinstance(atom, InAtom):
            if not is_evaluable(atom.collection, binding):
                return None
            if is_evaluable(atom.element, binding):
                return "test"
            if _is_pattern(atom.element):
                return "generate"
            return None
        if isinstance(atom, EqAtom):
            left_ok = is_evaluable(atom.left, binding)
            right_ok = is_evaluable(atom.right, binding)
            if left_ok and right_ok:
                return "test"
            if left_ok and _is_pattern(atom.right):
                return "bind"
            if right_ok and _is_pattern(atom.left):
                return "bind"
            return None
        if isinstance(atom, (NeqAtom, LtAtom, LeqAtom)):
            if (is_evaluable(atom.left, binding)
                    and is_evaluable(atom.right, binding)):
                return "test"
            return None
        return None

    def _expand(self, atom: Atom, binding: Binding,
                rest: Sequence[Atom] = ()) -> Iterator[Binding]:
        if isinstance(atom, MemberAtom):
            if is_evaluable(atom.element, binding):
                value = self._try_eval(atom.element, binding)
                if (isinstance(value, Oid)
                        and value.class_name == atom.class_name
                        and self.instance.has_object(value)):
                    yield binding
                return
            candidates = self._member_candidates(atom, binding, rest)
            for oid in candidates:
                extended = unify_term(atom.element, oid, binding,
                                      self.instance)
                if extended is not None:
                    yield extended
            return
        if isinstance(atom, InAtom):
            collection = self._try_eval(atom.collection, binding)
            if not isinstance(collection, (WolSet, WolList)):
                return
            if is_evaluable(atom.element, binding):
                value = self._try_eval(atom.element, binding)
                if any(value == element for element in collection):
                    yield binding
                return
            for element in _deterministic(collection):
                extended = unify_term(atom.element, element, binding,
                                      self.instance)
                if extended is not None:
                    yield extended
            return
        if isinstance(atom, EqAtom):
            left_ok = is_evaluable(atom.left, binding)
            right_ok = is_evaluable(atom.right, binding)
            if left_ok and right_ok:
                left = self._try_eval(atom.left, binding)
                right = self._try_eval(atom.right, binding)
                if left is not None and left == right:
                    yield binding
                return
            if left_ok:
                value = self._try_eval(atom.left, binding)
                if value is None:
                    return
                extended = unify_term(atom.right, value, binding,
                                      self.instance)
            else:
                value = self._try_eval(atom.right, binding)
                if value is None:
                    return
                extended = unify_term(atom.left, value, binding,
                                      self.instance)
            if extended is not None:
                yield extended
            return
        if isinstance(atom, NeqAtom):
            left = self._try_eval(atom.left, binding)
            right = self._try_eval(atom.right, binding)
            if left is not None and right is not None and left != right:
                yield binding
            return
        if isinstance(atom, (LtAtom, LeqAtom)):
            left = self._try_eval(atom.left, binding)
            right = self._try_eval(atom.right, binding)
            if left is None or right is None:
                return
            try:
                holds = (left < right if isinstance(atom, LtAtom)
                         else left <= right)
            except TypeError:
                return
            if holds:
                yield binding
            return

    def _try_eval(self, term: Term, binding: Binding) -> Optional[Value]:
        try:
            return evaluate(term, binding, self.instance)
        except EvalError:
            return None

    # ------------------------------------------------------------------
    # Index-assisted generation
    # ------------------------------------------------------------------
    def _member_candidates(self, atom: MemberAtom, binding: Binding,
                           rest: Sequence[Atom]) -> Sequence[Oid]:
        """Candidate oids for a membership generator.

        When the pending atoms determine the value of some projection
        path of the element (``X.country.name = <bound>``), a lazily
        built hash index narrows the candidates to the matching oids —
        the equality join becomes a lookup instead of a scan.
        """
        extent = self.instance.objects_of(atom.class_name)
        if not self.use_indexes or not isinstance(atom.element, Var):
            return extent
        selector = self._find_selector(atom.element.name, binding, rest)
        if selector is None:
            return extent
        path, value = selector
        return self.pool.lookup(atom.class_name, path, value)

    def _find_selector(self, element: str, binding: Binding,
                       rest: Sequence[Atom]
                       ) -> Optional[Tuple[Tuple[str, ...], Value]]:
        """A (projection path, known value) pair selecting the element.

        Follows chains of SNF definitions ``V = X.a``, ``W = V.b`` ...
        from the element variable, and values known either from the
        binding or from constant equations among the pending atoms.
        """
        chains: Dict[str, Tuple[str, ...]] = {element: ()}
        constants: Dict[str, Value] = {}
        for atom in rest:
            if (isinstance(atom, EqAtom) and isinstance(atom.left, Var)
                    and isinstance(atom.right, Const)):
                constants[atom.left.name] = atom.right.value
            elif (isinstance(atom, EqAtom)
                    and isinstance(atom.left, Const)
                    and isinstance(atom.right, Var)):
                constants[atom.right.name] = atom.left.value

        best: Optional[Tuple[Tuple[str, ...], Value]] = None
        for _ in range(4):  # bounded chain depth
            progressed = False
            for atom in rest:
                if not (isinstance(atom, EqAtom)
                        and isinstance(atom.left, Var)
                        and isinstance(atom.right, Proj)
                        and isinstance(atom.right.subject, Var)):
                    continue
                subject = atom.right.subject.name
                defined = atom.left.name
                if subject not in chains or defined in chains:
                    continue
                chains[defined] = chains[subject] + (atom.right.attr,)
                progressed = True
                value = binding.get(defined, constants.get(defined))
                if value is not None and best is None:
                    best = (chains[defined], value)
            if best is not None or not progressed:
                break
        return best

    # ------------------------------------------------------------------
    # Planned execution
    # ------------------------------------------------------------------
    def run_plan(self, steps: Sequence[PlanStep],
                 initial: Optional[Binding] = None) -> Iterator[Binding]:
        """Execute a precompiled step sequence one binding at a time.

        Each step's readiness, direction and index selector were resolved
        statically by the planner, so the loop does no atom
        re-classification, no term-evaluability walks and no per-binding
        selector discovery — just evaluation, unification and (indexed)
        candidate enumeration.  This is the early-exit form: the
        constraint audit's head-satisfiability probe stops at the first
        binding, which the batch model cannot shortcut.  Whole-clause
        enumeration goes through :meth:`run_plan_columnar`.

        ``initial``'s variables must have been declared to the planner
        (``plan_clause(..., initial_bound=...)``): a step compiled to
        *bind* a variable would silently overwrite a pre-bound value.
        Such mismatches raise :class:`MatchError` at call time; use
        :meth:`solutions`, which falls back to the dynamic order instead.
        """
        steps = _checked_steps(steps, initial)
        return self._run_steps(steps, 0, dict(initial or {}))

    def run_plan_columnar(self, steps: Sequence[PlanStep],
                          initial: Optional[Binding] = None,
                          stats=None) -> Iterator[Binding]:
        """Execute a plan batch-at-a-time (the vectorized hot path).

        Same contract and same binding sequence as :meth:`run_plan` —
        the plan runs over whole candidate columns instead of one
        binding dict at a time, falling back per-step to the scalar
        step expander for steps the vectorizer cannot compile (see
        :func:`repro.engine.columnar.step_vectorizable`).  ``stats``
        optionally collects vectorized/fallback step and batch-size
        counters (``ExecutionStats`` shape).
        """
        steps = _checked_steps(steps, initial)
        from ..engine.columnar import stream_plan_columnar
        return stream_plan_columnar(self, steps, initial, stats)

    def _run_steps(self, steps: Sequence[PlanStep], position: int,
                   binding: Binding) -> Iterator[Binding]:
        if position == len(steps):
            yield binding
            return
        step = steps[position]
        following = position + 1
        for extended in self._expand_step(step, binding):
            yield from self._run_steps(steps, following, extended)

    def _expand_step(self, step: PlanStep,
                     binding: Binding) -> Iterator[Binding]:
        atom = step.atom
        mode = step.mode
        if mode == STEP_MEMBER_SCAN or mode == STEP_MEMBER_INDEX:
            assert isinstance(atom, MemberAtom)
            if mode == STEP_MEMBER_INDEX and self.use_indexes:
                selector = step.selector_term
                if isinstance(selector, Var):
                    value = binding.get(selector.name)
                elif isinstance(selector, Const):
                    value = selector.value
                else:
                    # Constraint plans select on projection chains
                    # (``X.a.b = Y.a.b``); evaluate under the binding.
                    # An EvalError means no object can pass the equality
                    # test either, so the empty candidate set is exact.
                    value = self._try_eval(selector, binding)
                if value is None:
                    candidates: Sequence[Oid] = ()
                else:
                    candidates = self.pool.lookup(
                        atom.class_name, step.selector_path, value)
            else:
                candidates = self.instance.objects_of(atom.class_name)
            element = atom.element
            if isinstance(element, Var):
                name = element.name
                for oid in candidates:
                    extended = dict(binding)
                    extended[name] = oid
                    yield extended
            else:
                for oid in candidates:
                    extended = unify_term(element, oid, binding,
                                          self.instance)
                    if extended is not None:
                        yield extended
            return
        if mode == STEP_MEMBER_TEST:
            assert isinstance(atom, MemberAtom)
            element = atom.element
            if isinstance(element, Var):
                value = binding.get(element.name)
            else:
                value = self._try_eval(element, binding)
            if (isinstance(value, Oid)
                    and value.class_name == atom.class_name
                    and self.instance.has_object(value)):
                yield binding
            return
        if mode == STEP_IN_GENERATE:
            assert isinstance(atom, InAtom)
            collection = self._try_eval(atom.collection, binding)
            if not isinstance(collection, (WolSet, WolList)):
                return
            element = atom.element
            if isinstance(element, Var):
                name = element.name
                for value in _deterministic(collection):
                    extended = dict(binding)
                    extended[name] = value
                    yield extended
            else:
                for value in _deterministic(collection):
                    extended = unify_term(element, value, binding,
                                          self.instance)
                    if extended is not None:
                        yield extended
            return
        if mode == STEP_IN_TEST:
            assert isinstance(atom, InAtom)
            collection = self._try_eval(atom.collection, binding)
            if not isinstance(collection, (WolSet, WolList)):
                return
            value = self._try_eval(atom.element, binding)
            if any(value == element for element in collection):
                yield binding
            return
        if mode == STEP_EQ_BIND:
            value = self._try_eval(step.eval_term, binding)
            if value is None:
                return
            pattern = step.pattern_term
            if isinstance(pattern, Var):
                extended = dict(binding)
                extended[pattern.name] = value
                yield extended
                return
            extended = unify_term(pattern, value, binding, self.instance)
            if extended is not None:
                yield extended
            return
        if mode == STEP_EQ_TEST:
            assert isinstance(atom, EqAtom)
            left = self._try_eval(atom.left, binding)
            right = self._try_eval(atom.right, binding)
            if left is not None and left == right:
                yield binding
            return
        if mode == STEP_COMPARE:
            yield from self._expand(atom, binding)
            return
        raise MatchError(f"unknown plan step mode {mode!r}")


def _checked_steps(steps: Sequence[PlanStep],
                   initial: Optional[Binding]) -> Tuple[PlanStep, ...]:
    """``steps`` as a tuple, once ``initial`` is known to fit them.

    The one boundness check both plan entry points share, so a mismatch
    raises :class:`MatchError` at call time on either.
    """
    steps = tuple(steps)
    if _plan_conflicts_with(steps, initial):
        raise MatchError(
            "plan boundness assumptions do not match the initial "
            "binding (re-plan with matching initial_bound, or use "
            "solutions() for the dynamic fallback)")
    return steps


def _plan_conflicts_with(steps: Sequence[PlanStep],
                         initial: Optional[Binding]) -> bool:
    """True when the plan's boundness assumptions don't match ``initial``.

    Two mismatch directions: a step *re-binds* a variable the caller
    pre-bound (the plan was compiled without it), or a step *requires* a
    variable that neither the caller nor any earlier step binds (the plan
    was compiled with an ``initial_bound`` the caller didn't supply).
    Either way the steps would silently compute wrong solutions.
    """
    pre_bound = initial.keys() if initial else frozenset()
    available = set(pre_bound)
    for step in steps:
        if not pre_bound.isdisjoint(step.binds):
            return True
        if not step.requires <= available:
            return True
        available.update(step.binds)
    return False


def _deterministic(collection) -> List[Value]:
    """Iterate a collection in a deterministic order (the single
    definition lives in :mod:`repro.semantics.columns` so pre-sorted
    set columns and the scalar path can never diverge)."""
    return deterministic_order(collection)
