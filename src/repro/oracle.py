"""The naive reference that planned execution is differentially tested against.

Production always plans (:mod:`repro.engine.planner`) and runs batch
stages (:mod:`repro.engine.columnar`) over a shared
:class:`~repro.semantics.match.IndexPool`.  This module is the other end
of the differential chain naive ⇄ production ⇄ cpl ⇄ incremental: every
clause goes through the dynamic :class:`Matcher` defined here, which
re-derives the atom order per binding and builds private lazy indexes —
no plan, no shared pool, no batches.  Tests and benchmarks reach it
through these functions; inside ``repro`` only
:meth:`repro.query.Query.run` delegates here (its rows are the read
oracle of the end-to-end harness), and the module publishes no engine
metrics.

The matcher's readiness rule (:meth:`Matcher._readiness`) is a second,
independent copy of the planner's static one
(:func:`repro.engine.planner._classify`): the two legs agree because
readiness depends only on *which* variables are bound, and
``tests/fuzz/test_join_order.py`` pins them together (a body the
planner refuses is one this matcher stops on).

The naive executor shares the production head applier
(``Executor._apply_head``) and :meth:`TargetStore.freeze`, so this
chain does not test head application; the cpl leg
(``tests/fuzz/test_differential.py::test_naive_planned_cpl_byte_equal``)
does, which is why the fuzz keeps cpl in its chain.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from .engine.executor import ExecutionStats, Executor, _HeadPlan
from .lang.ast import (Atom, Clause, Const, EqAtom, InAtom, LeqAtom, LtAtom,
                       MemberAtom, NeqAtom, Proj, RecordTerm, SkolemTerm, Term,
                       Var, VariantTerm)
from .model.instance import Instance
from .model.schema import Schema
from .model.values import Oid, Record, Value, Variant, WolList, WolSet
from .morphase.system import Morphase, MorphaseResult
from .semantics.columns import deterministic_order
from .semantics.eval import Binding, EvalError, evaluate, is_evaluable
from .semantics.match import IndexPool, MatchError, _is_pattern
from .semantics.satisfaction import Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .query.query import Query, Row


def unify_term(term: Term, value: Value,
               binding: Binding) -> Optional[Binding]:
    """Unify a pattern against a concrete value, one value at a time:
    the reference for :func:`repro.engine.columnar.compile_pattern`.

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
            current = unify_term(sub, value.get(label), current)
            if current is None:
                return None
        return current
    if isinstance(term, VariantTerm):
        if not isinstance(value, Variant) or value.label != term.label:
            return None
        return unify_term(term.payload, value.value, binding)
    if isinstance(term, SkolemTerm):
        if not (isinstance(value, Oid) and value.is_keyed
                and value.class_name == term.class_name):
            return None
        return _unify_skolem_args(term, value.key, binding)
    return None  # projections are not patterns (``_is_pattern``)


def _unify_skolem_args(term: SkolemTerm, key: Value,
                       binding: Binding) -> Optional[Binding]:
    """Recover Skolem arguments from a keyed oid's key and unify them:
    the inverse of :func:`~repro.semantics.eval.skolem_key`, so a key
    must carry exactly the labels the term's arguments pack into."""
    args = term.args
    if not args:
        return binding if key == Record(()) else None
    if args[0][0] is None:
        if len(args) == 1:
            return unify_term(args[0][1], key, binding)
        labels = [f"arg{index}" for index in range(len(args))]
    else:
        labels = [label for label, _ in args]
    if not isinstance(key, Record) or set(key.labels()) != set(labels):
        return None
    current: Optional[Binding] = binding
    for label, (_, sub) in zip(labels, args):
        current = unify_term(sub, key.get(label), current)
        if current is None:
            return None
    return current


class Matcher:
    """Enumerates bindings satisfying a conjunction of atoms, in the
    dynamic order: at each step it picks an atom that is *ready* under
    the current binding — one that can either be tested outright or
    used to generate/propagate bindings.  If no atom is ever ready the
    body is reported as non-evaluable (:class:`MatchError`) rather than
    silently dropped.

    ``prefer_tests`` enables the join-ordering heuristic: among ready
    atoms, run cheap tests before opening generators, pruning partial
    bindings as early as possible.  Disabling it (atoms processed in
    textual order, generators included) is the A2 ablation — the results
    are identical but the search explores more bindings.

    Membership generators narrow their candidates through a private
    :class:`IndexPool`, built lazily per matcher.
    """

    def __init__(self, instance: Instance,
                 prefer_tests: bool = True) -> None:
        self.instance = instance
        self.prefer_tests = prefer_tests
        self.pool = IndexPool(instance)

    # ------------------------------------------------------------------
    def solutions(self, atoms: Sequence[Atom],
                  initial: Optional[Binding] = None) -> Iterator[Binding]:
        """All bindings extending ``initial`` that satisfy ``atoms``, in
        the dynamic readiness order (the reference enumeration)."""
        yield from self._solve(list(atoms), dict(initial or {}))

    def satisfiable(self, atoms: Sequence[Atom],
                    initial: Optional[Binding] = None) -> bool:
        """True iff at least one satisfying binding exists (dynamic)."""
        for _ in self.solutions(atoms, initial):
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
                extended = unify_term(atom.element, oid, binding)
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
            for element in deterministic_order(collection):
                extended = unify_term(atom.element, element, binding)
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
                extended = unify_term(atom.right, value, binding)
            else:
                value = self._try_eval(atom.right, binding)
                if value is None:
                    return
                extended = unify_term(atom.left, value, binding)
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
        if not isinstance(atom.element, Var):
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


def naive_query(query: "Query", instance: Instance) -> Iterator["Row"]:
    """The reference for the rows of the column batch
    :meth:`repro.query.Query.run_planned` returns (and the body of
    :meth:`~repro.query.Query.run`): the query's rows, lazily, in the
    dynamic matcher's order."""
    columns = query.projection or query.variables()
    for binding in Matcher(instance).solutions(query.body):
        yield {name: binding[name] for name in columns if name in binding}
