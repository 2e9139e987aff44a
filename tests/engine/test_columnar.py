"""Unit tests for the vectorized plan executor (``engine.columnar``).

The differential fuzz harness pins whole-engine byte equality; these
tests pin the module-level contracts — one batch stage per plan step
and the term compiler's totality behind it, set-wise equivalence
with the dynamic matcher, seed grouping of seeded batches, pattern
stages mid-plan, stats counters, the batched
head's duplicate/conflict semantics at every arity, n-ary Skolem
identities and the row multiplicity of ``in``-generators nobody reads.
"""

import pickle
import types

import pytest

from repro.engine.columnar import (compile_steps, compile_term,
                                   run_steps_columnar)
from repro.engine.executor import ExecutionError
from repro.engine.planner import plan_clause
from repro.lang import ast as ast_module
from repro.lang import parse_clause, parse_program
from repro.lang.ast import (Const, Proj, RecordTerm, SkolemTerm, Term, Var,
                            VariantTerm)
from repro.model import (INT, STR, InstanceBuilder, Oid, Record, Schema,
                         WolSet, record, set_of)
from repro.model.schema import parse_schema
from repro.morphase import Morphase
from repro.oracle import Matcher, naive_transform
from repro.semantics.match import IndexPool
from repro.workloads.cities import sample_euro_instance

from tests.batches import plan_rows


def counters():
    return types.SimpleNamespace(vectorized_steps=0, vectorized_rows=0,
                                 max_batch_rows=0)


def body_plan(text, classes, initial_bound=()):
    clause = parse_clause(f"T = T <= {text};", classes=classes)
    return plan_clause(clause, initial_bound=initial_bound)


EURO_CLASSES = ["CityE", "CountryE"]


EURO_SCHEMA = sample_euro_instance().schema


def stage_count(plan):
    stages, _, _ = compile_steps(EURO_SCHEMA, plan.steps, ())
    return len(stages)


class TestVectorizabilityRule:
    """Every plan step compiles to one batch stage: plain generators,
    binds and tests, and the pattern steps that destructure."""

    def test_scans_binds_and_tests_vectorize(self):
        plan = body_plan(
            "E in CountryE, N = E.name, C in CityE, E = C.country",
            EURO_CLASSES)
        assert stage_count(plan) == len(plan.steps) == 4

    def test_pattern_equation_vectorizes(self):
        plan = body_plan("E in CountryE, (x = X, y = Y) = E.name",
                         EURO_CLASSES)
        assert stage_count(plan) == len(plan.steps) == 2
        stats = counters()
        assert list(plan_rows(
            IndexPool(sample_euro_instance()), plan.steps, None,
            stats)) == []
        assert stats.vectorized_steps == 2

    def test_pattern_generator_vectorizes(self):
        plan = body_plan("(name = N, a = A, b = B) in CountryE",
                         EURO_CLASSES)
        assert stage_count(plan) == len(plan.steps) == 1

    def test_explain_carries_no_stage_tags(self):
        plan = body_plan("E in CountryE, N = E.name", EURO_CLASSES)
        assert "[vec]" not in plan.explain()
        assert "[fallback]" not in plan.explain()


def canonical(bindings):
    """A binding sequence as a sorted list (the set-wise comparison
    against the dynamic matcher, multiplicity kept)."""
    return sorted(tuple(sorted((name, str(value))
                               for name, value in binding.items()))
                  for binding in bindings)


class TestPositionalEquivalence:
    """The batch runner against the dynamic matcher (set-wise) and
    against itself one seed at a time (seed grouping)."""

    def test_stream_matches_scalar_order(self):
        euro = sample_euro_instance()
        plan = body_plan(
            "E in CountryE, N = E.name, C in CityE, E = C.country, "
            "M = C.name", EURO_CLASSES)
        matcher, pool = Matcher(euro), IndexPool(euro)
        stats = counters()
        columnar = list(plan_rows(
            pool, plan.steps, None, stats))
        assert canonical(columnar) == canonical(
            matcher.solutions(plan.clause.body))
        assert len(columnar) == len(euro.objects_of("CityE"))
        assert stats.vectorized_steps == len(plan.steps)
        assert stats.max_batch_rows >= len(euro.objects_of("CityE"))

    def test_initial_binding_respected(self):
        euro = sample_euro_instance()
        matcher, pool = Matcher(euro), IndexPool(euro)
        country = euro.objects_of("CountryE")[0]
        plan = body_plan("N = E.name, C in CityE, E = C.country",
                         EURO_CLASSES, initial_bound=("E",))
        columnar = list(plan_rows(
            pool, plan.steps, {"E": country}))
        assert columnar
        assert canonical(columnar) == canonical(matcher.solutions(
            plan.clause.body, {"E": country}))

    def test_seeded_batch_groups_by_seed(self):
        euro = sample_euro_instance()
        pool = IndexPool(euro)
        seeds = list(euro.objects_of("CountryE"))
        plan = body_plan("N = E.name, C in CityE, E = C.country",
                         EURO_CLASSES, initial_bound=("E",))
        steps = tuple(plan.steps)
        per_seed = [binding for oid in seeds
                    for binding in plan_rows(
                        pool, steps, {"E": oid})]
        stats = counters()
        names, columns, count = run_steps_columnar(
            pool, steps, {"E": seeds}, len(seeds), stats)
        columnar = [{name: columns[name][row] for name in names}
                    for row in range(count)]
        assert columnar == per_seed  # same rows, grouped in seed order
        assert stats.vectorized_rows > 0


MIXED_SCHEMA = parse_schema("""
schema M {
  class C = (name: str, pt: (x: int, y: int), tags: {str});
}
""")


class TestPatternStages:
    def test_pattern_mid_plan_preserves_order_and_counts(self):
        builder = InstanceBuilder(MIXED_SCHEMA)
        for index in range(5):
            builder.make("C", f"c{index}", Record.of(
                name=f"c{index}",
                pt=Record.of(x=index, y=-index),
                tags=WolSet.of(f"t{index}", "shared")))
        instance = builder.freeze()
        matcher, pool = Matcher(instance), IndexPool(instance)
        plan = body_plan(
            "C in C, M = C.name, (x = X, y = Y) = C.pt, W in C.tags",
            ["C"])
        stats = counters()
        columnar = list(plan_rows(
            pool, plan.steps, None, stats))
        assert columnar == list(matcher.solutions(plan.clause.body))
        # Rows stay grouped by the driving scan, in extent order.
        assert [binding["C"] for binding in columnar] == [
            oid for oid in instance.objects_of("C") for _ in range(2)]
        assert [(binding["X"], binding["Y"]) for binding in columnar] == [
            (index, -index) for index in range(5) for _ in range(2)]
        # One batch stage per step, the pattern equation's included.
        assert stats.vectorized_steps == len(plan.steps) == 4
        assert stats.vectorized_rows == 1 + 5 + 5 + 5


def _term_samples():
    """One sample per concrete ``Term`` subclass, nesting every kind."""
    leaf = Var("X")
    return {
        Var: leaf,
        Const: Const(1),
        Proj: Proj(leaf, "a"),
        VariantTerm: VariantTerm("v", Proj(leaf, "a")),
        RecordTerm: RecordTerm((("a", leaf), ("b", Const("s")))),
        SkolemTerm: SkolemTerm("K", ((None, Proj(leaf, "a")),)),
    }


def test_every_term_kind_compiles_to_a_column():
    """Every step is a batch stage, so the column compiler accepts every
    term; a new AST node must be taught to it before it can reach a
    plan."""
    kinds = {cls for cls in vars(ast_module).values()
             if isinstance(cls, type) and issubclass(cls, Term)
             and cls is not Term}
    samples = _term_samples()
    assert kinds == set(samples)
    for term in samples.values():
        compile_term(term)


DUP_SRC = parse_schema("""
schema DSrc {
  class Item = (name: str, grp: str, v: int);
}
""")

DUP_TGT = parse_schema("""
schema DTgt {
  class Out = (name: str, v: int) key name;
}
""")

DUP_PROGRAM = """
constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;
transformation T: X in Out, X.name = N, X.v = V
  <= I in Item, N = I.grp, V = I.v;
"""


def dup_instance(values):
    builder = InstanceBuilder(DUP_SRC)
    for index, value in enumerate(values):
        builder.make("Item", f"i{index}", Record.of(
            name=f"i{index}", grp="g", v=value))
    return builder.freeze()


class TestFusedHeadDuplicates:
    def test_agreeing_duplicates_collapse(self):
        """Several body rows minting the same object with equal values
        must publish once, with the naive oracle's effect counters."""
        morphase = Morphase([DUP_SRC], DUP_TGT, DUP_PROGRAM)
        source = dup_instance([7, 7, 7])
        columnar = morphase.transform(source)
        naive = naive_transform(morphase, source)
        assert columnar.stats.vectorized_steps > 0
        assert len(columnar.target.objects_of("Out")) == 1
        assert (columnar.stats.objects_created
                == naive.stats.objects_created == 1)
        assert (columnar.stats.attributes_set
                == naive.stats.attributes_set)

    def test_conflicting_duplicates_raise_identically(self):
        morphase = Morphase([DUP_SRC], DUP_TGT, DUP_PROGRAM)
        source = dup_instance([7, 8])
        with pytest.raises(ExecutionError) as naive_error:
            naive_transform(morphase, source)
        with pytest.raises(ExecutionError) as columnar_error:
            morphase.transform(source)
        assert str(columnar_error.value) == str(naive_error.value)

    @staticmethod
    def wide(assignments, rows):
        """A head with ``assignments`` attribute writes through the one
        created variable, keyed by ``grp``; ``rows`` are ``(grp,
        values)`` pairs, one value per attribute."""
        attrs = [f"a{index}" for index in range(1, assignments + 1)]
        source_schema = Schema.of(
            "WSrc", Item=record(grp=STR, **{attr: INT for attr in attrs}))
        target_schema = Schema.of(
            "WTgt", Out=record(**{attr: INT for attr in attrs}))
        builder = InstanceBuilder(source_schema)
        for grp, values in rows:
            builder.new("Item", Record.of(
                grp=grp, **dict(zip(attrs, values))))
        head = ", ".join(f"X.{attr} = V{index}"
                         for index, attr in enumerate(attrs))
        body = ", ".join(f"V{index} = I.{attr}"
                         for index, attr in enumerate(attrs))
        program = parse_program(
            f"T: X in Out, X = Mk_Out(G), {head}"
            f" <= I in Item, G = I.grp, {body};",
            classes=["Item", "Out"])
        return program, builder.freeze(), target_schema

    @pytest.mark.parametrize("assignments", range(1, 7))
    def test_agreeing_duplicates_collapse_at_every_arity(
            self, execute_both, assignments):
        """The oracle's objects and effect counters whatever the
        number of attribute writes (the hand-unrolled create+assign
        copies this replaced stopped at four)."""
        same = tuple(range(assignments))
        program, source, target_schema = self.wide(
            assignments, [("g", same), ("g", same), ("h", same),
                          ("g", same)])
        target, stats = execute_both(program, source, target_schema)
        assert target.class_sizes() == {"Out": 2}
        assert stats.objects_created == 2
        assert stats.attributes_set == 4 * assignments

    @pytest.mark.parametrize("assignments", range(1, 7))
    def test_conflicting_duplicates_raise_the_oracle_error(
            self, execute_both, assignments):
        """The disagreement sits in the *last* attribute, so every
        arity has to compare all of its columns."""
        same = tuple(range(assignments))
        other = same[:-1] + (99,)
        program, source, target_schema = self.wide(
            assignments, [("g", same), ("h", same), ("g", other)])
        with pytest.raises(ExecutionError, match="not functional"):
            execute_both(program, source, target_schema)


KEY_SRC = Schema.of("KSrc", Item=record(a=STR, b=INT, c=STR))
KEY_TGT = Schema.of("KTgt", Out=record(a=STR))


def key_source():
    """Repeated (a, b, c) keys, and one item lacking ``c`` — a Skolem
    argument that fails to evaluate (the column path's MISSING)."""
    builder = InstanceBuilder(KEY_SRC)
    for a, b, c in [("x", 1, "p"), ("x", 1, "p"), ("x", 2, "p"),
                    ("y", 1, "q"), ("x", 1, "p")]:
        builder.new("Item", Record.of(a=a, b=b, c=c))
    builder.new("Item", Record.of(a="z", b=3))
    return builder.freeze(validate=False)


class TestNarySkolemIdentities:
    """Every multi-argument Skolem term goes through the one interning
    ``skolem_column``; its oids are minted by ``Oid.keyed_unchecked``
    over ``Record.presorted`` keys, which prime the cached hash."""

    @pytest.mark.parametrize("identity, distinct", [
        ("Mk_Out(A, B)", 4),
        ("Mk_Out(A, B, C)", 3),
        ("Mk_Out(b = B, a = A)", 4),
        ("Mk_Out(c = C, a = A, b = B)", 3),
    ])
    def test_identities_equal_the_oracle(self, execute_both, identity,
                                         distinct):
        reads_c = "C" in identity
        program = parse_program(
            f"T: X in Out, X = {identity}, X.a = A"
            f" <= I in Item, A = I.a, B = I.b"
            f"{', C = I.c' if reads_c else ''};",
            classes=["Item", "Out"])
        # execute_both compares the valuation dicts, so a minted oid
        # with a wrong primed hash would already miss its oracle twin.
        target, stats = execute_both(program, key_source(), KEY_TGT)
        oids = target.objects_of("Out")
        assert len(oids) == distinct
        assert stats.bindings_found == (5 if reads_c else 6)
        for oid in oids:
            rebuilt = Oid.keyed(oid.class_name, Record(oid.key.fields))
            assert oid == rebuilt and hash(oid) == hash(rebuilt)
            assert hash(oid.key) == hash(rebuilt.key)
            assert "_hash" not in oid.__getstate__()
            assert "_hash" not in oid.key.__getstate__()
            copy = pickle.loads(pickle.dumps(oid))
            assert copy == oid and hash(copy) == hash(oid)

    def test_missing_argument_in_the_head_raises_the_oracle_error(
            self, execute_both):
        program = parse_program(
            "T: X in Out, X = Mk_Out(A, I.c), X.a = A"
            " <= I in Item, A = I.a;", classes=["Item", "Out"])
        with pytest.raises(ExecutionError, match="cannot evaluate"):
            execute_both(program, key_source(), KEY_TGT)

    def test_unchecked_constructors_prime_the_constructor_hash(self):
        key = Record.presorted((("a", "x"), ("b", 1)))
        assert key == Record.of(b=1, a="x")
        assert hash(key) == hash(Record.of(b=1, a="x"))
        oid = Oid.keyed_unchecked("Out", key)
        assert oid == Oid.keyed("Out", Record.of(a="x", b=1))
        assert hash(oid) == hash(Oid.keyed("Out", Record.of(a="x", b=1)))
        assert pickle.loads(pickle.dumps(oid)) == oid


GEN_SRC = Schema.of("GSrc", Item=record(
    name=STR, tags=set_of(STR), opt=set_of(STR)))
GEN_TGT = Schema.of("GTgt", Out=record(name=STR))


class TestUnreadGenerators:
    """Trailing ``in``-generators whose element nobody reads still
    multiply rows: an empty set drops the row, n elements repeat it."""

    @pytest.mark.parametrize("body, bindings", [
        ("T in I.tags", 0 + 1 + 3 + 3),
        ("O in I.opt", 0 + 1 + 0 + 1),
        ("T in I.tags, O in I.opt", 0 * 0 + 1 * 1 + 3 * 0 + 3 * 1),
        ("S = I.tags, T in S, O in I.opt, U in I.tags",
         0 + 1 * 1 * 1 + 0 + 3 * 1 * 3),
    ])
    def test_multiplicity_matches_the_oracle(self, execute_both, body,
                                             bindings):
        builder = InstanceBuilder(GEN_SRC)
        for name, tags, opt in [("none", (), ()), ("one", ("t",), ("o",)),
                                ("three", ("t", "u", "v"), ()),
                                ("both", ("t", "u", "v"), ("o",))]:
            builder.new("Item", Record.of(
                name=name, tags=WolSet.of(*tags), opt=WolSet.of(*opt)))
        program = parse_program(
            f"T: X in Out, X = Mk_Out(N), X.name = N"
            f" <= I in Item, N = I.name, {body};",
            classes=["Item", "Out"])
        target, stats = execute_both(program, builder.freeze(), GEN_TGT)
        assert stats.bindings_found == bindings
        # One vectorized stage per plan step: nothing is fused away.
        assert stats.vectorized_steps == 2 + body.count(",") + 1
