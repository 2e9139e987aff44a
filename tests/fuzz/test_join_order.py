"""Join-order fuzzing: the driving-extent search against the greedy
plan it starts from and against the dynamic matcher.

Hypothesis draws small join bodies — two to four member atoms over a
three-class schema, linked (or not) by equalities between their
attributes and by hops through a set-valued reference attribute (the
one-directional ``Q in C.seq, Y.name = Q.name`` shape of the genome
audit) — so connected, chain-shaped, one-directional and disconnected
bodies all occur, and random extent sizes for the planner to read.
The sizes are statistics only: they are drawn independently of the
small instance the plan then runs on (from empty to thousands, the
range over which scans, probes and collection hops trade places), and
no statistic may change the answer.  Whatever order ``plan_clause``
picks:

* its ``estimated_cost`` never exceeds the single greedy ordering's;
* a body whose extents are all linked by attribute equalities scans
  exactly one extent (extents of size <= 1 aside, where a scan and a
  probe cost the same);
* the planned solution set is the dynamic matcher's.

Some draws add a record pattern with a projection field,
``(k = S, v = Xi.v) in Xi.refs``: an atom that is never ready unless
another atom binds ``S``.  ``plan_clause`` must raise ``PlanError``
exactly when the readiness fixpoint leaves atoms over, and then the
dynamic matcher yields no binding either — it stops at the same atom
with ``MatchError``, or never reaches it.  That is why no production
path needs a dynamic fallback.

Runs derandomised under ``HYPOTHESIS_PROFILE=ci`` like
``test_differential.py``.
"""

import contextlib

from hypothesis import given, settings, strategies as st

from repro.engine import PlanError, plan_clause
from repro.engine import planner
from repro.lang import parse_clause
from repro.model import InstanceBuilder, Record
from repro.model.schema import parse_schema
from repro.model.values import WolSet
from repro.oracle import Matcher
from repro.semantics.match import IndexPool, MatchError, STEP_MEMBER_SCAN

from tests.batches import plan_rows

CLASSES = ("A", "B", "C")
SCHEMA = parse_schema("""
schema Src {
  class A = (k: int, v: int, refs: {C});
  class B = (k: int, v: int, refs: {C});
  class C = (k: int, v: int, refs: {C});
}
""")


@st.composite
def join_bodies(draw):
    """(body text, member classes, equality links, planner
    cardinalities, instance)."""
    members = draw(st.lists(st.sampled_from(CLASSES),
                            min_size=2, max_size=4))
    atoms = [f"X{i} in {cname}" for i, cname in enumerate(members)]
    attrs = st.sampled_from(("k", "v"))
    equalities = []

    def equate(left, right):
        equalities.append((left, right))
        atoms.append(f"X{left}.{draw(attrs)} = X{right}.{draw(attrs)}")

    def hop(holder, other):
        # One-directional: only the side holding the set can probe.
        name = f"E{len(atoms)}"
        atoms.append(f"{name} in X{holder}.refs")
        atoms.append(f"X{other}.k = {name}.k")

    # Each member after the first is tied to an earlier one (or left
    # unlinked), then a few extra equalities close cycles.
    for right in range(1, len(members)):
        left = draw(st.integers(0, right - 1))
        kind = draw(st.sampled_from(("none", "eq", "hop", "hop-back")))
        if kind == "eq":
            equate(left, right)
        elif kind == "hop":
            hop(left, right)
        elif kind == "hop-back":
            hop(right, left)
    positions = st.integers(0, len(members) - 1)
    for left, right in draw(st.lists(st.tuples(positions, positions),
                                     max_size=2)):
        if left != right:
            equate(left, right)
    # A projection inside a record pattern: the atom can neither test
    # nor drive a unification until something else binds S.
    stuck = draw(st.sampled_from(("none", "none", "stuck", "unstuck")))
    if stuck != "none":
        holder = draw(positions)
        atoms.append(f"(k = S, v = X{holder}.v) in X{holder}.refs")
        if stuck == "unstuck":
            atoms.append(f"S = X{draw(positions)}.k")
    atoms = draw(st.permutations(atoms))

    small = st.integers(0, 3)
    row = st.tuples(small, small, st.frozensets(small, max_size=2))
    builder = InstanceBuilder(SCHEMA)
    targets = [builder.new("C", Record.of(k=k, v=k, refs=WolSet.of()))
               for k in range(draw(small))]
    for cname in CLASSES:
        size = draw(st.integers(0, 8))
        for k, v, picks in draw(st.lists(row, min_size=size,
                                         max_size=size)):
            refs = WolSet.of(*(targets[pick] for pick in picks
                               if pick < len(targets)))
            builder.new(cname, Record.of(k=k, v=v, refs=refs))
    sizes = {cname: draw(st.sampled_from((0, 1, 2, 7, 9, 60, 1200)))
             for cname in CLASSES}
    return ", ".join(atoms), members, equalities, sizes, builder.freeze()


def _linked(count, equalities):
    """Is the equality graph over the member atoms connected?"""
    reached, frontier = {0}, [0]
    while frontier:
        node = frontier.pop()
        for left, right in equalities:
            for here, there in ((left, right), (right, left)):
                if here == node and there not in reached:
                    reached.add(there)
                    frontier.append(there)
    return len(reached) == count


def _left_over(body):
    """Atoms the static readiness fixpoint never reaches."""
    bound, remaining = set(), list(body)
    while True:
        ready = [atom for atom in remaining
                 if planner._classify(atom, bound) is not None]
        if not ready:
            return remaining
        for atom in ready:
            bound |= atom.variables()
            remaining.remove(atom)


def _canonical(bindings):
    return sorted(tuple(sorted((name, str(value))
                               for name, value in binding.items()))
                  for binding in bindings)


@settings(max_examples=300, deadline=None)
@given(join_bodies())
def test_driving_extent_search(case):
    body, members, equalities, sizes, instance = case
    clause = parse_clause(f"T = T <= {body};", classes=list(CLASSES))
    left_over = _left_over(clause.body)
    try:
        plan = plan_clause(clause, sizes)
    except PlanError:
        assert left_over
        found = []
        with contextlib.suppress(MatchError):
            found.extend(Matcher(instance).solutions(clause.body))
        assert found == []
        return
    assert not left_over
    greedy, _ = planner._greedy_plan(
        clause, sizes, (), planner._SelectorFinder(clause.body))
    assert plan.estimated_cost <= greedy.estimated_cost
    if greedy.nested_scans == 0:
        assert plan == greedy   # the fast path changes nothing

    if (_linked(len(members), equalities)
            and all(sizes[cname] >= 2 for cname in members)):
        scans = [s for s in plan.steps if s.mode == STEP_MEMBER_SCAN]
        assert len(scans) == 1, plan.explain()

    planned = IndexPool(instance)
    assert _canonical(plan_rows(planned, plan.steps, None)) \
        == _canonical(Matcher(instance).solutions(clause.body))
