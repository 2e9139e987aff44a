"""Program-level join planning for normal-form execution.

The dynamic matcher (the reference, :class:`repro.oracle.Matcher`)
re-derives an atom order for every partial binding, rediscovers index
selectors per candidate enumeration and builds its hash indexes lazily
and privately.  For multi-clause programs (the genome and Relibase
workloads) that cost would be paid over and over.

This module plans a whole :class:`~repro.lang.ast.Program` once:

* per clause, a :class:`JoinPlan` — a fixed atom order computed statically
  by simulating variable boundness (tests first, deterministic binds next,
  generators last: index probes before collection hops before extent
  scans, smaller extents before larger ones), compiled into
  :class:`~repro.semantics.match.PlanStep` records the batch stages of
  :mod:`repro.engine.columnar` execute without any per-binding
  re-analysis.  *Which extent drives* is the one
  choice extent size cannot settle: ``Y in SequenceT`` (966) is smaller
  than ``C in Clone`` (1 200), but only ``Clone`` reaches the other by
  index (``Q in C.seq, Y.name = Q.name``), so opening ``SequenceT``
  first scans the product.  When — and only when — the greedy order
  nests one extent scan inside another, :func:`plan_clause` completes
  the greedy once per alternative driving extent and keeps the order
  with the lowest ``estimated_cost``; every other plan is the greedy's,
  unchanged;
* across clauses, one shared :class:`~repro.semantics.match.IndexPool`
  whose indexes are prebuilt from the union of every clause's selectors,
  so an index over e.g. ``(SequenceT, name)`` used by three clauses is
  built exactly once.

Planning is purely static: it reads only clause syntax plus class
cardinalities of the source instance, so a plan is deterministic for a
given (program, instance-size) pair and ``explain()`` output is stable.
Plans are total: a body with no static order raises :class:`PlanError`
when it is planned, and no production path runs a body any other way.
Planned execution and the naive reference (:mod:`repro.oracle`, every
clause through the dynamic matcher) enumerate identical solution sets —
the differential tests in ``tests/engine/test_planner.py`` and
``benchmarks/bench_planner.py`` hold the planner to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..lang.ast import (
    Atom, Clause, EqAtom, InAtom, LeqAtom, LtAtom, MemberAtom, NeqAtom, Proj,
    Term, Var)
from ..model.instance import Instance
from ..normalization.optimize import constant_bindings, definition_chains
from ..obs.metrics import REGISTRY
from ..semantics.match import (IndexPool, PlanStep, STEP_COMPARE,
                               STEP_EQ_BIND, STEP_EQ_TEST, STEP_IN_GENERATE,
                               STEP_IN_TEST, STEP_MEMBER_INDEX,
                               STEP_MEMBER_SCAN, STEP_MEMBER_TEST,
                               _is_pattern)

#: Assumed cardinality of a collection-valued generator (``X in Q.tags``)
#: and of a class whose extent size is unknown at planning time.
DEFAULT_COLLECTION_CARDINALITY = 8.0
DEFAULT_CLASS_CARDINALITY = 64.0
#: Assumed cost of an indexed candidate enumeration (a hash probe that
#: typically returns zero or one oid).
INDEXED_CARDINALITY = 1.0


#: Plans handed out that still scan an extent inside another scan —
#: bodies no equality links (inequality joins, genuine products).
_NESTED_SCANS_TOTAL = REGISTRY.counter(
    "repro_planner_nested_scans_total",
    "Join plans emitted that contain a nested extent scan.")


class PlanError(Exception):
    """Raised when a clause body admits no static evaluation order."""


@dataclass(frozen=True)
class JoinPlan:
    """A fixed evaluation order for one clause body.

    ``order`` maps step position to the atom's position in the clause
    body; ``atoms_reordered`` counts positions the planner moved.
    ``index_paths`` names the (class, projection path) indexes the plan
    probes — the program planner prebuilds their union across clauses.
    ``estimated_cost`` is the product-sum of generator cardinalities used
    to pick the order; it is an ordinal, not a time prediction.
    """

    clause: Clause
    steps: Tuple[PlanStep, ...]
    order: Tuple[int, ...]
    atoms_reordered: int
    index_paths: Tuple[Tuple[str, Tuple[str, ...]], ...]
    estimated_cost: float

    @property
    def label(self) -> str:
        return self.clause.name or str(self.clause)

    @property
    def nested_scans(self) -> int:
        """Extent scans after the first: each one multiplies the batch
        by a whole extent (a cross product the body's equalities could
        not turn into an index probe)."""
        scans = sum(1 for step in self.steps
                    if step.mode == STEP_MEMBER_SCAN)
        return max(0, scans - 1)

    def explain(self) -> str:
        """A stable, human-readable rendering of the plan: one line
        per step, each of which runs as one batch stage
        (:mod:`repro.engine.columnar`).  An index probe names its
        index, and every extent scan after the first reads
        ``[nested scan C]``.
        """
        lines = [
            f"plan {self.label}: {len(self.steps)} steps, "
            f"{self.atoms_reordered} reordered, "
            f"est. cost {self.estimated_cost:g}"
        ]
        scanned = False
        for position, step in enumerate(self.steps):
            note = ""
            if step.mode == STEP_MEMBER_INDEX:
                path = ".".join(step.selector_path or ())
                note = f"  [index ({step.atom.class_name}, {path}) = " \
                       f"{step.selector_term}]"
            elif step.mode == STEP_MEMBER_SCAN:
                nested = "nested " if scanned else ""
                note = f"  [{nested}scan {step.atom.class_name}]"
                scanned = True
            lines.append(
                f"  {position + 1}. {step.mode:<12} {step.atom}{note}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ProgramPlan:
    """Join plans for every clause of a program plus the shared pool.

    ``prebuilt_indexes`` counts the indexes materialised at planning
    time; per-run :class:`~repro.engine.executor.ExecutionStats` report
    only in-run deltas, so this is the number to add when attributing
    total index builds to one planned run.
    """

    plans: Tuple[JoinPlan, ...]
    pool: IndexPool
    prebuilt_indexes: int = 0

    def plan_for(self, clause: Clause) -> JoinPlan:
        for plan in self.plans:
            if plan.clause is clause or plan.clause == clause:
                return plan
        raise KeyError(f"no join plan for clause {clause.name or clause}")

    def index_paths(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """Union of index keys across clauses, deduplicated and sorted."""
        keys: Set[Tuple[str, Tuple[str, ...]]] = set()
        for plan in self.plans:
            keys.update(plan.index_paths)
        return tuple(sorted(keys))

    def explain(self) -> str:
        lines = [f"program plan: {len(self.plans)} clause(s), "
                 f"{len(self.index_paths())} shared index(es)"]
        for class_name, path in self.index_paths():
            lines.append(f"  index ({class_name}, {'.'.join(path)})")
        for plan in self.plans:
            lines.append(plan.explain())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Static readiness (mirrors the oracle's Matcher._readiness over a
# boundness set)
# ----------------------------------------------------------------------

def _known(term: Term, bound: Set[str]) -> bool:
    """Static mirror of ``is_evaluable``: every variable already bound."""
    return term.variables() <= bound


def _classify(atom: Atom, bound: Set[str]) -> Optional[str]:
    """The step mode ``atom`` admits under ``bound``, or None.

    Exactly mirrors :meth:`repro.oracle.Matcher._readiness`, with the
    binding replaced by the set of statically-bound variables —
    readiness depends only on *which* variables are bound, never on
    their values, so the static and dynamic classifications agree on
    every execution path.  The two are separate copies on purpose, so
    the reference stays an independent leg;
    ``tests/fuzz/test_join_order.py`` pins them together.
    """
    if isinstance(atom, MemberAtom):
        if _known(atom.element, bound):
            return STEP_MEMBER_TEST
        if _is_pattern(atom.element):
            return STEP_MEMBER_SCAN
        return None
    if isinstance(atom, InAtom):
        if not _known(atom.collection, bound):
            return None
        if _known(atom.element, bound):
            return STEP_IN_TEST
        if _is_pattern(atom.element):
            return STEP_IN_GENERATE
        return None
    if isinstance(atom, EqAtom):
        left_known = _known(atom.left, bound)
        right_known = _known(atom.right, bound)
        if left_known and right_known:
            return STEP_EQ_TEST
        if left_known and _is_pattern(atom.right):
            return STEP_EQ_BIND
        if right_known and _is_pattern(atom.left):
            return STEP_EQ_BIND
        return None
    if isinstance(atom, (NeqAtom, LtAtom, LeqAtom)):
        if _known(atom.left, bound) and _known(atom.right, bound):
            return STEP_COMPARE
        return None
    return None


def _proj_chain(term: Term) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """Decompose a pure projection chain ``X.a.b`` into (root, path)."""
    path: List[str] = []
    while isinstance(term, Proj):
        path.append(term.attr)
        term = term.subject
    if not isinstance(term, Var):
        return None
    return term.name, tuple(reversed(path))


class _SelectorFinder:
    """Static index-selector discovery, cached per clause.

    Definition chains from a generator's element variable and the body's
    constant equations never change while planning one clause (a chain
    atom whose subject derives from the still-unbound element cannot have
    executed yet), so both are computed once and reused across the greedy
    loop's candidate evaluations — the static twin of
    the oracle's ``Matcher._find_selector`` without its per-call
    re-analysis.

    Beyond SNF definition chains (``V = X.a``), direct projection
    equations ``X.a.b = t`` — the shape of un-normalised *constraint*
    bodies like keys and functional dependencies — also yield selectors:
    when ``t`` is evaluable under the bound set, a scan of ``X``'s class
    narrows to an index probe on path ``a.b`` with ``t``'s value.  That
    turns the quadratic self-joins of key/FD audits into linear probes.
    """

    def __init__(self, body: Sequence[Atom]) -> None:
        self._body = body
        self._constants = constant_bindings(body)
        self._chains: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        self._eq_selectors: Dict[str, List[Tuple[Tuple[str, ...], Term]]] = {}
        for atom in body:
            if not isinstance(atom, EqAtom):
                continue
            for side, other in ((atom.left, atom.right),
                                (atom.right, atom.left)):
                chain = _proj_chain(side)
                if chain is None or not chain[1]:
                    continue
                root, path = chain
                self._eq_selectors.setdefault(root, []).append((path, other))

    def selector_for(self, element: str, bound: Set[str]
                     ) -> Optional[Tuple[Tuple[str, ...], Term]]:
        """A (path, value term) pair whose value is known at this point."""
        chains = self._chains.get(element)
        if chains is None:
            chains = definition_chains(self._body, element)
            self._chains[element] = chains
        candidates: List[Tuple[Tuple[str, ...], Term]] = []
        for name, path in chains.items():
            if not path:
                continue
            if name in bound:
                candidates.append((path, Var(name)))
            elif name in self._constants:
                candidates.append((path, self._constants[name]))
        for path, term in self._eq_selectors.get(element, ()):
            if term.variables() <= bound:
                candidates.append((path, term))
        if not candidates:
            return None
        # Prefer the shortest path (cheapest index build), then the
        # lexicographically first path/term, for deterministic plans.
        return min(candidates,
                   key=lambda cand: (len(cand[0]), cand[0], str(cand[1])))


def _compile_step(atom: Atom, mode: str, bound: Set[str],
                  selectors: Optional[_SelectorFinder] = None) -> PlanStep:
    """Freeze one classified atom into an executable step."""
    if (mode == STEP_MEMBER_SCAN and selectors is not None
            and isinstance(atom.element, Var)):
        selector = selectors.selector_for(atom.element.name, bound)
        if selector is not None:
            path, value_term = selector
            return PlanStep(atom, STEP_MEMBER_INDEX,
                            binds=tuple(sorted(atom.element.variables()
                                               - bound)),
                            selector_path=path, selector_term=value_term)
    if mode == STEP_EQ_BIND:
        assert isinstance(atom, EqAtom)
        if _known(atom.left, bound):
            eval_term, pattern = atom.left, atom.right
        else:
            eval_term, pattern = atom.right, atom.left
        return PlanStep(atom, mode,
                        binds=tuple(sorted(pattern.variables() - bound)),
                        eval_term=eval_term, pattern_term=pattern)
    new_vars: Set[str] = set()
    if mode == STEP_MEMBER_SCAN:
        new_vars = set(atom.element.variables()) - bound
    elif mode == STEP_IN_GENERATE:
        new_vars = set(atom.element.variables()) - bound
    return PlanStep(atom, mode, binds=tuple(sorted(new_vars)))


def _generator_cost(step: PlanStep,
                    cardinalities: Mapping[str, int]) -> float:
    """Estimated number of candidate bindings the step enumerates."""
    if step.mode == STEP_MEMBER_INDEX:
        return INDEXED_CARDINALITY
    if step.mode == STEP_MEMBER_SCAN:
        return float(cardinalities.get(step.atom.class_name,
                                       DEFAULT_CLASS_CARDINALITY))
    if step.mode == STEP_IN_GENERATE:
        return DEFAULT_COLLECTION_CARDINALITY
    return 1.0


# ----------------------------------------------------------------------
# Clause and program planning
# ----------------------------------------------------------------------

#: One branch point of a greedy ordering: the body position of the
#: extent scan the greedy opened, then those of the other un-indexed
#: extent scans that were ready at that moment.
_Branch = Tuple[int, Tuple[int, ...]]


def _greedy_plan(clause: Clause, cardinalities: Mapping[str, int],
                 initial_bound: Iterable[str], selectors: _SelectorFinder,
                 drivers: Sequence[int] = ()
                 ) -> Tuple[JoinPlan, List[_Branch]]:
    """One greedy ordering of the body, plus the branch points it met.

    At each point run every ready test immediately (prune first), then
    a deterministic bind (they never multiply bindings), and only then
    open the cheapest ready generator — indexed probes before scans,
    smaller extents before larger ones.  Whenever that generator is an
    un-indexed extent scan and at least one other is ready too, the
    choice is a *branch point*: which extent drives decides whether the
    rest of the body joins by index probe or by cross product, and
    extent size alone cannot tell.  ``drivers`` overrides the choice at
    the first ``len(drivers)`` branch points (body positions of the
    member atoms to open there); later ones take the cheapest scan.
    All branch points are returned so :func:`plan_clause` can try the
    alternatives.
    """
    bound: Set[str] = set(initial_bound)
    remaining: List[Tuple[int, Atom]] = list(enumerate(clause.body))
    steps: List[PlanStep] = []
    order: List[int] = []
    estimated = 0.0
    frontier = 1.0
    index_paths: Set[Tuple[str, Tuple[str, ...]]] = set()
    branches: List[_Branch] = []

    while remaining:
        chosen: Optional[int] = None
        chosen_step: Optional[PlanStep] = None
        best_cost = float("inf")
        # ready un-indexed extent scans, as (slot, step, cost)
        scans: List[Tuple[int, PlanStep, float]] = []
        for slot, (position, atom) in enumerate(remaining):
            mode = _classify(atom, bound)
            if mode is None:
                continue
            step = _compile_step(atom, mode, bound, selectors)
            if step.mode in (STEP_MEMBER_TEST, STEP_IN_TEST,
                             STEP_EQ_TEST, STEP_COMPARE):
                chosen, chosen_step = slot, step
                best_cost = 0.0
                break
            if step.mode == STEP_EQ_BIND:
                chosen, chosen_step = slot, step
                best_cost = 0.0
                break
            cost = _generator_cost(step, cardinalities)
            if step.mode == STEP_MEMBER_SCAN:
                scans.append((slot, step, cost))
            if cost < best_cost:
                chosen, chosen_step = slot, step
                best_cost = cost
        if chosen is None or chosen_step is None:
            pending_text = ", ".join(str(a) for _, a in remaining)
            raise PlanError(
                f"clause {clause.name or clause}: no atom is statically "
                f"ready; pending: {pending_text} (is the clause "
                f"range-restricted?)")
        if chosen_step.mode == STEP_MEMBER_SCAN and len(scans) > 1:
            # A branch point.  Atoms are named by body position: slots
            # shift as ``remaining`` shrinks, positions do not.
            if len(branches) < len(drivers):
                forced = drivers[len(branches)]
                chosen, chosen_step, best_cost = next(
                    scan for scan in scans
                    if remaining[scan[0]][0] == forced)
            branches.append((remaining[chosen][0], tuple(
                remaining[slot][0] for slot, _, _ in scans
                if slot != chosen)))
        position, _ = remaining.pop(chosen)
        order.append(position)
        steps.append(chosen_step)
        bound.update(chosen_step.binds)
        if chosen_step.mode == STEP_MEMBER_INDEX:
            index_paths.add((chosen_step.atom.class_name,
                             chosen_step.selector_path))
        if best_cost > 0.0:
            frontier *= best_cost
            estimated += frontier

    reordered = sum(1 for step_pos, body_pos in enumerate(order)
                    if step_pos != body_pos)
    plan = JoinPlan(clause=clause, steps=tuple(steps), order=tuple(order),
                    atoms_reordered=reordered,
                    index_paths=tuple(sorted(index_paths)),
                    estimated_cost=estimated)
    return plan, branches


def plan_clause(clause: Clause,
                cardinalities: Optional[Mapping[str, int]] = None,
                initial_bound: Iterable[str] = ()) -> JoinPlan:
    """Compute a fixed evaluation order for one clause body.

    The order is the greedy one of :func:`_greedy_plan` (tests, then
    binds, then the cheapest ready generator) — and for almost every
    body that is the whole story.  Only when the greedy plan scans a
    *second* extent (a nested scan: the signature of a cross product)
    is the choice of driving extent revisited: at each branch point of
    the best plan so far, in turn, the greedy is completed once per
    other ready extent scan, and the alternative is kept when its
    ``estimated_cost`` is strictly lower.  So ``C in Clone, ..., Q in
    C.seq, Y in SequenceT, Y.name = Q.name`` drives from ``Clone`` (1
    scan, then an index probe into ``SequenceT``) even though
    ``SequenceT`` is the smaller extent; a body whose extents no
    equality links keeps its smallest-first cross product, and a plan
    with at most one extent scan is returned exactly as the greedy
    built it.  The search completes at most ``1 + m(m-1)/2`` greedy
    orderings for ``m`` member atoms.

    Raises :class:`PlanError` when no atom is ever ready (the body
    admits no join order); the dynamic matcher would stop at the same
    atoms, so no caller has anything to fall back to.
    """
    cardinalities = cardinalities or {}
    initial_bound = tuple(initial_bound)
    selectors = _SelectorFinder(clause.body)
    best, branches = _greedy_plan(clause, cardinalities, initial_bound,
                                  selectors)
    if best.nested_scans:
        drivers: Tuple[int, ...] = ()
        while len(branches) > len(drivers):
            opened, others = branches[len(drivers)]
            pick = opened
            for other in others:
                plan, met = _greedy_plan(clause, cardinalities,
                                         initial_bound, selectors,
                                         drivers + (other,))
                if plan.estimated_cost < best.estimated_cost:
                    best, branches, pick = plan, met, other
            drivers += (pick,)
        if best.nested_scans:
            _NESTED_SCANS_TOTAL.inc()
    return best


def plan_program(program: Iterable[Clause], instance: Instance,
                 pool: Optional[IndexPool] = None,
                 prebuild: bool = True) -> ProgramPlan:
    """Plan every clause of a program against one source instance.

    Builds (or reuses) a shared :class:`IndexPool` and, with ``prebuild``,
    materialises the union of all clauses' index selectors up front so no
    clause pays a lazy index build mid-join.  A clause with no join
    order raises :class:`PlanError`.
    """
    pool = IndexPool(instance) if pool is None \
        else pool.checked_for(instance)
    cardinalities = instance.class_sizes()
    plans = [plan_clause(clause, cardinalities) for clause in program]
    prebuilt = 0
    if prebuild:
        keys = sorted({key for plan in plans for key in plan.index_paths})
        before = pool.builds
        pool.prebuild(keys)
        prebuilt = pool.builds - before
    return ProgramPlan(plans=tuple(plans), pool=pool,
                       prebuilt_indexes=prebuilt)


# ----------------------------------------------------------------------
# Delta-seed planning (semi-naive incremental execution)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaSeed:
    """One seeded variant of a clause plan for incremental execution.

    ``position`` is the member atom's index in the clause body,
    ``class_name`` the extent it generates from and ``variable`` its
    element variable.  ``plan`` is the clause's join order recompiled
    with ``variable`` pre-bound: the member atom collapses to a
    membership test and the remaining atoms join outward from the seed,
    probing the shared index pool.  Running the plan once per changed
    oid of ``class_name`` enumerates exactly the clause's solutions
    that bind this atom to a changed object — the delta-join of
    semi-naive evaluation.
    """

    position: int
    class_name: str
    variable: str
    plan: Optional[JoinPlan]


def plan_delta_seeds(clause: Clause,
                     cardinalities: Optional[Mapping[str, int]] = None
                     ) -> Tuple[DeltaSeed, ...]:
    """Seeded join plans, one per member atom of the clause body.

    A member atom whose element is not a plain variable (a pattern the
    seed oid would have to be unified into) gets ``plan=None``; the
    incremental engine treats such clauses as unseedable and recomputes
    them whole under deltas that touch them.  Pre-binding a variable
    only makes more atoms ready, so the seeded variant of a plannable
    body is always plannable.
    """
    seeds: List[DeltaSeed] = []
    for position, atom in enumerate(clause.body):
        if not isinstance(atom, MemberAtom):
            continue
        if not isinstance(atom.element, Var):
            seeds.append(DeltaSeed(position, atom.class_name, "", None))
            continue
        plan = plan_clause(clause, cardinalities,
                           initial_bound={atom.element.name})
        seeds.append(DeltaSeed(position, atom.class_name,
                               atom.element.name, plan))
    return tuple(seeds)


# ----------------------------------------------------------------------
# Constraint-audit planning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintPlan:
    """Join plans for one constraint clause's audit.

    Auditing a clause is an anti-join: enumerate every *body* solution,
    then run the *head* once over all of them and keep the solutions it
    never extends (:func:`repro.semantics.satisfaction.clause_violations`).
    Both are compiled here — the head with the body's variables declared
    as ``initial_bound``, since every body solution binds exactly them.
    """

    clause: Clause
    body: JoinPlan
    head: JoinPlan

    @property
    def label(self) -> str:
        return self.clause.name or str(self.clause)

    def index_paths(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        return tuple(sorted(set(self.body.index_paths)
                            | set(self.head.index_paths)))

    def explain(self) -> str:
        lines = [f"constraint {self.label}:"]
        for half in (self.body, self.head):
            lines.append("  " + half.explain().replace("\n", "\n  "))
        return "\n".join(lines)


@dataclass(frozen=True)
class AuditPlan:
    """One plan per constraint plus the shared, prebuilt index pool.

    ``plans`` is index-aligned with the clause sequence given to
    :func:`plan_audit`.  ``prebuilt_indexes`` counts the indexes
    materialised at planning time; an audit's
    :class:`~repro.engine.executor.ExecutionStats` charges only the
    pool activity of its run, so a
    :class:`~repro.constraints.audit.ConstraintReport` reads the
    prebuilt count off its plan.
    """

    plans: Tuple[ConstraintPlan, ...]
    pool: IndexPool
    prebuilt_indexes: int = 0

    @property
    def nested_scans(self) -> int:
        """Nested extent scans over every body and head probe."""
        return sum(half.nested_scans for plan in self.plans
                   for half in (plan.body, plan.head))

    def plan_for(self, clause: Clause) -> ConstraintPlan:
        for plan in self.plans:
            if plan.clause is clause or plan.clause == clause:
                return plan
        raise KeyError(f"no audit plan for clause {clause.name or clause}")

    def index_paths(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        keys: Set[Tuple[str, Tuple[str, ...]]] = set()
        for plan in self.plans:
            keys.update(plan.index_paths())
        return tuple(sorted(keys))

    def explain(self) -> str:
        count = len(self.plans)  # every body and head probe is planned
        lines = [f"audit plan: {count} constraint(s), "
                 f"{count} planned bodies, {count} planned head probes, "
                 f"{len(self.index_paths())} shared index(es)"]
        for class_name, path in self.index_paths():
            lines.append(f"  index ({class_name}, {'.'.join(path)})")
        for plan in self.plans:
            lines.append(plan.explain())
        return "\n".join(lines)


def plan_constraint(clause: Clause,
                    cardinalities: Optional[Mapping[str, int]] = None
                    ) -> ConstraintPlan:
    """Compile one constraint clause's body and head-probe join plans.

    Unlike transformation bodies, constraint bodies are usually *not* in
    SNF — key and FD shapes join two extents on raw projection equations
    — so the selector discovery of :class:`_SelectorFinder` matters most
    here.  A half with no static order raises :class:`PlanError`.
    """
    body_plan = plan_clause(clause, cardinalities)
    body_vars: Set[str] = set()
    for atom in clause.body:
        body_vars |= atom.variables()
    # plan_clause orders a clause's *body*; wrap the head atoms as a
    # body (Clause insists on a non-empty head, so mirror them there).
    head_probe = Clause(tuple(clause.head), tuple(clause.head),
                        name=f"{clause.name or 'constraint'}::head")
    head_plan = plan_clause(head_probe, cardinalities,
                            initial_bound=body_vars)
    return ConstraintPlan(clause=clause, body=body_plan, head=head_plan)


def plan_audit(constraints: Iterable[Clause], instance: Instance,
               pool: Optional[IndexPool] = None,
               prebuild: bool = True) -> AuditPlan:
    """Plan an entire constraint audit against one instance.

    Builds (or reuses) a shared :class:`IndexPool` and, with
    ``prebuild``, materialises the union of every constraint's body and
    head-probe selectors up front — the whole audit then runs over one
    set of indexes instead of N private per-clause ones.
    """
    pool = IndexPool(instance) if pool is None \
        else pool.checked_for(instance)
    cardinalities = instance.class_sizes()
    plans = tuple(plan_constraint(clause, cardinalities)
                  for clause in constraints)
    prebuilt = 0
    if prebuild:
        keys = sorted({key for plan in plans for key in plan.index_paths()})
        before = pool.builds
        pool.prebuild(keys)
        prebuilt = pool.builds - before
    return AuditPlan(plans=plans, pool=pool, prebuilt_indexes=prebuilt)
