"""Unit tests for the vectorized plan executor (``engine.columnar``).

The differential fuzz harness pins whole-engine byte equality; these
tests pin the module-level contracts — the static vectorizability
rule, positional (not just set-wise) equivalence of the batch and
scalar paths, fallback re-entry mid-plan, stats counters, and the
fused-head duplicate/conflict semantics.
"""

import types

import pytest

from repro.engine.columnar import (seeded_batch_columnar, step_vectorizable,
                                   stream_plan_columnar)
from repro.engine.executor import ExecutionError
from repro.engine.planner import plan_clause
from repro.lang import parse_clause
from repro.model import InstanceBuilder, Record, WolSet
from repro.model.schema import parse_schema
from repro.morphase import Morphase
from repro.oracle import naive_transform
from repro.semantics import Matcher
from repro.workloads.cities import sample_euro_instance


def counters():
    return types.SimpleNamespace(vectorized_steps=0, fallback_steps=0,
                                 vectorized_rows=0, max_batch_rows=0)


def body_plan(text, classes, initial_bound=()):
    clause = parse_clause(f"T = T <= {text};", classes=classes)
    return plan_clause(clause, initial_bound=initial_bound)


EURO_CLASSES = ["CityE", "CountryE"]


class TestVectorizabilityRule:
    def test_scans_binds_and_tests_vectorize(self):
        plan = body_plan(
            "E in CountryE, N = E.name, C in CityE, E = C.country",
            EURO_CLASSES)
        assert all(step_vectorizable(step) for step in plan.steps)

    def test_pattern_equation_falls_back(self):
        plan = body_plan("E in CountryE, (x = X, y = Y) = E.name",
                         EURO_CLASSES)
        flags = [step_vectorizable(step) for step in plan.steps]
        assert flags == [True, False]

    def test_pattern_generator_falls_back(self):
        clause = parse_clause(
            "T = T <= (name = N, a = A, b = B) in Item;",
            classes=["Item"])
        plan = plan_clause(clause)
        assert not any(step_vectorizable(step) for step in plan.steps)

    def test_explain_tags_match_the_rule(self):
        plan = body_plan("E in CountryE, N = E.name", EURO_CLASSES)
        lines = plan.explain().splitlines()
        assert any("[vec]" in line for line in lines)
        assert not any("[fallback]" in line for line in lines)


class TestPositionalEquivalence:
    def test_stream_matches_scalar_order(self):
        euro = sample_euro_instance()
        plan = body_plan(
            "E in CountryE, N = E.name, C in CityE, E = C.country, "
            "M = C.name", EURO_CLASSES)
        matcher = Matcher(euro)
        scalar = list(matcher.run_plan(plan.steps))
        stats = counters()
        columnar = list(stream_plan_columnar(
            matcher, plan.steps, None, stats))
        assert columnar == scalar  # same rows, same order
        assert stats.vectorized_steps == len(plan.steps)
        assert stats.fallback_steps == 0
        assert stats.max_batch_rows >= len(euro.objects_of("CityE"))

    def test_initial_binding_respected(self):
        euro = sample_euro_instance()
        matcher = Matcher(euro)
        country = euro.objects_of("CountryE")[0]
        plan = body_plan("N = E.name, C in CityE, E = C.country",
                         EURO_CLASSES, initial_bound=("E",))
        scalar = list(matcher.run_plan(plan.steps,
                                       initial={"E": country}))
        columnar = list(stream_plan_columnar(
            matcher, plan.steps, {"E": country}))
        assert columnar == scalar

    def test_seeded_batch_groups_by_seed(self):
        euro = sample_euro_instance()
        matcher = Matcher(euro)
        seeds = list(euro.objects_of("CountryE"))
        plan = body_plan("N = E.name, C in CityE, E = C.country",
                         EURO_CLASSES, initial_bound=("E",))
        steps = tuple(plan.steps)
        scalar = [binding for oid in seeds
                  for binding in matcher.run_plan(
                      steps, initial={"E": oid})]
        stats = counters()
        columnar = list(seeded_batch_columnar(
            matcher, steps, "E", seeds, stats))
        assert columnar == scalar
        assert stats.vectorized_rows > 0


MIXED_SCHEMA = parse_schema("""
schema M {
  class C = (name: str, pt: (x: int, y: int), tags: {str});
}
""")


class TestFallbackReentry:
    def test_fallback_mid_plan_preserves_order_and_counts(self):
        builder = InstanceBuilder(MIXED_SCHEMA)
        for index in range(5):
            builder.make("C", f"c{index}", Record.of(
                name=f"c{index}",
                pt=Record.of(x=index, y=-index),
                tags=WolSet.of(f"t{index}", "shared")))
        instance = builder.freeze()
        matcher = Matcher(instance)
        plan = body_plan(
            "C in C, M = C.name, (x = X, y = Y) = C.pt, W in C.tags",
            ["C"])
        assert not all(step_vectorizable(step) for step in plan.steps)
        scalar = list(matcher.run_plan(plan.steps))
        stats = counters()
        columnar = list(stream_plan_columnar(
            matcher, plan.steps, None, stats))
        assert columnar == scalar
        assert stats.vectorized_steps > 0
        assert stats.fallback_steps > 0


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
