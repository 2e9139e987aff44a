"""Pattern steps against the reference matcher, row for row.

A plan step whose element (a membership scan or an ``in`` generator)
or whose bound side (an equation) is a *pattern* — a record, variant
or Skolem term over variables and constants — destructures each
candidate value.  Every body below puts such a step behind a scan of
``C``, so it runs over a multi-row batch, and the batch runner must
produce exactly the reference matcher's bindings, in the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import compile_pattern
from repro.engine.planner import plan_clause
from repro.lang import parse_clause
from repro.lang.ast import Const, RecordTerm, SkolemTerm, Var, VariantTerm
from repro.model import (INT, STR, ClassType, InstanceBuilder, Oid, Record,
                         Schema, Variant, WolSet, record, set_of, variant)
from repro.oracle import Matcher, unify_term
from repro.query import Query
from repro.semantics.eval import skolem_key
from repro.semantics.match import (STEP_EQ_BIND, STEP_IN_GENERATE,
                                   STEP_MEMBER_SCAN, IndexPool)

from tests.batches import plan_rows

POINT = record(x=INT, y=INT)
KEY = ClassType("K")

SCHEMA = Schema.of(
    "Patterns",
    C=record(n=INT, pt=POINT, nest=record(p=POINT, q=STR),
             opt=POINT, pts=set_of(POINT),
             v=variant(l=INT, m=STR), vs=set_of(variant(l=INT, m=STR)),
             k=KEY, ks=set_of(KEY)),
    K=record(w=INT))


def pattern_instance():
    """Three ``C`` rows and nine ``K`` objects whose keys take every
    Skolem packing shape (none, one bare value, positional, named),
    plus one anonymous ``K``.  Only the first ``C`` has ``opt``."""
    builder = InstanceBuilder(SCHEMA)
    keys = [Record(()), 7, 3, Record.of(arg0=1, arg1=2),
            Record.of(arg0=3, arg1=3), Record.of(a=1, b=2),
            Record.of(a=4), Record.of(arg0=Oid.keyed("K", Record(())),
                                      arg1=5)]
    ks = [builder.make("K", key, Record.of(w=index))
          for index, key in enumerate(keys)]
    ks.append(builder.new("K", Record.of(w=99)))
    rows = [
        (1, (1, 2), (3, 1), [(1, 1), (1, 5), (2, 2)],
         Variant("l", 1), [Variant("l", 1), Variant("m", "a")], ks[3]),
        (3, (3, 3), None, [(3, 4)],
         Variant("m", "b"), [Variant("m", "b")], ks[5]),
        (7, (0, 9), None, [],
         Variant("l", 7), [Variant("l", 2), Variant("l", 7)], ks[7]),
    ]
    for index, (n, pt, opt, pts, v, vs, k) in enumerate(rows):
        fields = dict(
            n=n, pt=Record.of(x=pt[0], y=pt[1]),
            nest=Record.of(p=Record.of(x=pt[1], y=pt[0]), q=f"q{index}"),
            pts=WolSet.of(*(Record.of(x=x, y=y) for x, y in pts)),
            v=v, vs=WolSet.of(*vs), k=k,
            ks=WolSet.of(*ks[index:index + 5]))
        if opt is not None:
            fields["opt"] = Record.of(x=opt[0], y=opt[1])
        builder.make("C", f"c{index}", Record.of(**fields))
    return builder.freeze(validate=False)


def pattern_step(plan):
    """The plan's one step that unifies a pattern (not a plain
    variable) against its candidates."""
    steps = [step for step in plan.steps
             if (step.mode in (STEP_MEMBER_SCAN, STEP_IN_GENERATE)
                 and not isinstance(step.atom.element, Var))
             or (step.mode == STEP_EQ_BIND
                 and not isinstance(step.pattern_term, Var))]
    assert len(steps) == 1, plan.explain()
    return steps[0]


def both(body, instance=None):
    """(batch runner rows, reference matcher rows, the pattern step)."""
    instance = instance or pattern_instance()
    clause = parse_clause(f"T = T <= {body};", classes=["C", "K"])
    plan = plan_clause(clause, instance.class_sizes())
    columnar = list(plan_rows(IndexPool(instance), plan.steps))
    reference = list(Matcher(instance).solutions(clause.body))
    return columnar, reference, pattern_step(plan)


#: (body, mode of its pattern step, rows the reference finds).
CASES = [
    # Skolem patterns scanned over a class extent.
    ("C in C, Mk_K(X) in K", STEP_MEMBER_SCAN, 3 * 8),
    ("C in C, Mk_K(X, Y) in K", STEP_MEMBER_SCAN, 3 * 3),
    ("C in C, Mk_K(Mk_K(), Y) in K", STEP_MEMBER_SCAN, 3),
    ("C in C, Mk_K(X, X) in K", STEP_MEMBER_SCAN, 3),
    ("C in C, Mk_K(a = X, b = Y) in K", STEP_MEMBER_SCAN, 3),
    ("C in C, N = C.n, Mk_K(N, Y) in K", STEP_MEMBER_SCAN, 2),
    ("C in C, Mk_K((x = X)) in K", STEP_MEMBER_SCAN, 0),
    # A record pattern never matches an oid.
    ("C in C, (name = N, a = A, b = B) in K", STEP_MEMBER_SCAN, 0),
    # Patterns over collection elements.
    ("C in C, (x = X, y = Y) in C.pts", STEP_IN_GENERATE, 4),
    ("C in C, (x = 1, y = Y) in C.pts", STEP_IN_GENERATE, 2),
    ("C in C, (x = X, y = X) in C.pts", STEP_IN_GENERATE, 2),
    ("C in C, N = C.n, (x = N, y = Y) in C.pts", STEP_IN_GENERATE, 3),
    ("C in C, ins_l(X) in C.vs", STEP_IN_GENERATE, 3),
    ("C in C, ins_m(S) in C.vs", STEP_IN_GENERATE, 2),
    ("C in C, ins_z(X) in C.vs", STEP_IN_GENERATE, 0),
    ("C in C, Mk_K(X, Y) in C.ks", STEP_IN_GENERATE, 6),
    ("C in C, Mk_K(a = X, b = Y) in C.ks", STEP_IN_GENERATE, 2),
    ("C in C, Mk_K(X) in C.ks", STEP_IN_GENERATE, 15),
    # Patterns bound by an equation.
    ("C in C, (x = X, y = Y) = C.pt", STEP_EQ_BIND, 3),
    ("C in C, (p = (x = X, y = Y), q = Q) = C.nest", STEP_EQ_BIND, 3),
    ("C in C, (x = X, y = X) = C.pt", STEP_EQ_BIND, 1),
    ("C in C, (x = 0, y = Y) = C.pt", STEP_EQ_BIND, 1),
    ("C in C, N = C.n, (x = N, y = Y) = C.pt", STEP_EQ_BIND, 2),
    ("C in C, (x = X, y = Y) = C.opt", STEP_EQ_BIND, 1),
    ("C in C, ins_l(X) = C.v", STEP_EQ_BIND, 2),
    ("C in C, ins_z(X) = C.v", STEP_EQ_BIND, 0),
    ("C in C, Mk_K(X) = C.k", STEP_EQ_BIND, 3),
    ("C in C, Mk_K(X, Y) = C.k", STEP_EQ_BIND, 2),
    ("C in C, Mk_K(Mk_K(), Y) = C.k", STEP_EQ_BIND, 1),
    ("C in C, Mk_K(a = X, b = Y) = C.k", STEP_EQ_BIND, 1),
]


@pytest.mark.parametrize("body, mode, rows", CASES)
def test_pattern_step_enumerates_the_reference_rows(body, mode, rows):
    columnar, reference, step = both(body)
    assert step.mode == mode
    assert len(reference) == rows
    assert columnar == reference


LONG_KEY_SCHEMA = Schema.of("LongKey", K=record(a=INT, b=INT))


def long_key_instance():
    """One ``K`` object, keyed by three positional arguments."""
    builder = InstanceBuilder(LONG_KEY_SCHEMA)
    builder.make("K", Record.of(arg0=1, arg1=2, arg2=3), Record.of(a=1, b=2))
    return builder.freeze()


@pytest.mark.parametrize("text", [
    "X, Y | Mk_K(X, Y) in K",
    "X, Y | O in K, X = O.a, Y = O.b, O = Mk_K(X, Y)",
])
def test_positional_skolem_pattern_needs_the_exact_key(text):
    """``Mk_K(1, 2)`` is keyed ``(arg0 = 1, arg1 = 2)``: an object keyed
    ``(arg0 = 1, arg1 = 2, arg2 = 3)`` is another identity, so neither
    destructuring it nor comparing against it finds a row, whatever
    the join order."""
    query = Query.parse(text, classes=["K"])
    instance = long_key_instance()
    assert query.run_planned(instance) == (("X", "Y"), {"X": [], "Y": []}, 0)
    assert list(query.run(instance)) == []


# ----------------------------------------------------------------------
# compile_pattern against the oracle's unify_term, value by value
# ----------------------------------------------------------------------

LEAVES = (0, 1, "a")
LABELS = ("x", "y")
NAMES = ("X", "Y", "Z")


def _labelled(children):
    """Distinct labels from :data:`LABELS`, each with a child."""
    return st.lists(st.tuples(st.sampled_from(LABELS), children),
                    max_size=2, unique_by=lambda pair: pair[0])


def _skolem_args(children):
    """Positional (0-3) or named arguments, as ``(label, child)``."""
    return st.one_of(
        st.lists(children, max_size=3).map(
            lambda subs: tuple((None, sub) for sub in subs)),
        _labelled(children).map(tuple))


def _values(children):
    return st.one_of(
        _labelled(children).map(Record),
        st.builds(Variant, st.sampled_from(("l", "m")), children),
        st.builds(lambda name, args: Oid.keyed(name, skolem_key(name, args)),
                  st.sampled_from(("K", "J")), _skolem_args(children)))


def _patterns(children):
    return st.one_of(
        _labelled(children).map(lambda fields: RecordTerm(tuple(fields))),
        st.builds(VariantTerm, st.sampled_from(("l", "m")), children),
        st.builds(SkolemTerm, st.sampled_from(("K", "J")),
                  _skolem_args(children)))


VALUES = st.recursive(
    st.sampled_from(LEAVES) | st.just(Oid.fresh("K")), _values,
    max_leaves=6)
PATTERNS = st.recursive(
    st.sampled_from(NAMES).map(Var) | st.sampled_from(LEAVES).map(Const),
    _patterns, max_leaves=6)


def _instance(draw, term):
    """A value shaped like ``term``: each variable a random leaf, so
    repeated and batch-bound variables agree often enough to test, and
    sometimes one field or Skolem argument too many."""
    if isinstance(term, Var):
        return draw(st.sampled_from(LEAVES))
    if isinstance(term, Const):
        return term.value
    if isinstance(term, VariantTerm):
        return Variant(term.label, _instance(draw, term.payload))
    parts = [(label, _instance(draw, sub)) for label, sub in (
        term.fields if isinstance(term, RecordTerm) else term.args)]
    if parts and draw(st.booleans()):
        parts.append((parts[0][0] and "z", 0))
    if isinstance(term, RecordTerm):
        return Record(tuple(parts))
    return Oid.keyed(term.class_name, skolem_key(term.class_name, parts))


@settings(max_examples=300, deadline=None)
@given(pattern=PATTERNS, data=st.data(), batch_binds_z=st.booleans())
def test_compile_pattern_agrees_with_unify_term(pattern, data,
                                                batch_binds_z):
    """Over random patterns and candidate values (random ones, and
    ones shaped like the pattern), with ``Z`` optionally bound by the
    batch, the compiled pattern keeps exactly the rows ``unify_term``
    extends, in row order, with the same bindings."""
    rows = [(_instance(data.draw, pattern) if shaped
             else data.draw(VALUES), data.draw(st.sampled_from(LEAVES)))
            for shaped in data.draw(st.lists(st.booleans(), max_size=6))]
    columns = {"Z": [z for _, z in rows]} if batch_binds_z else {}
    binds = pattern.variables() - set(columns)
    expected = []
    for row, (candidate, z) in enumerate(rows):
        binding = {"Z": z} if batch_binds_z else {}
        extended = unify_term(pattern, candidate, binding)
        if extended is not None:
            expected.append((row, {name: extended[name]
                                   for name in binds}))
    keep, bound = compile_pattern(pattern, binds)(
        columns, [candidate for candidate, _ in rows])
    assert set(bound) == binds
    assert [(row, {name: bound[name][index] for name in binds})
            for index, row in enumerate(keep)] == expected
