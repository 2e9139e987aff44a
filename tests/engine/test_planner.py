"""Unit and differential tests for the execution planner."""

import pytest

from repro.engine import (Executor, execute, plan_audit, plan_clause,
                          plan_program)
from repro.engine import planner as planner_module
from repro.engine.columnar import compile_probe, unextended_rows
from repro.engine.planner import JoinPlan, PlanError, ProgramPlan
from repro.lang import parse_clause
from repro.model import (STR, InstanceBuilder, Record, Schema, WolSet, record,
                         set_of)
from repro.morphase import Morphase
from repro.obs.metrics import REGISTRY
from repro.oracle import Matcher, naive_transform
from repro.normalization.optimize import (ELEMENT_STEP, constant_bindings,
                                          definition_chains)
from repro.semantics.match import (IndexPool, MatchError, STEP_EQ_BIND,
                                   STEP_EQ_TEST, STEP_MEMBER_INDEX,
                                   STEP_MEMBER_SCAN)
from repro.workloads import cities, genome
from repro.workloads.cities import sample_euro_instance

from tests.batches import plan_rows

CLASSES = ["CityE", "CountryE"]


def clause(text, classes=CLASSES):
    return parse_clause(text, classes=classes)


def body_clause(body_text, classes=CLASSES):
    return clause(f"T = T <= {body_text};", classes=classes)


def probe(pool, steps, columns, count):
    """The batch head probe: the rows of ``columns`` no solution of
    ``steps`` extends."""
    compiled = compile_probe(pool.instance.schema, steps)
    return unextended_rows(pool, steps, columns, count, compiled)


class TestAtomOrdering:
    def test_tests_run_before_generators(self):
        # The comparison only becomes ready once N is bound, but the
        # second generator must wait until after it: tests prune first.
        c = body_clause(
            'E in CountryE, N = E.name, N != "Aland", C in CityE')
        plan = plan_clause(c)
        modes = [step.mode for step in plan.steps]
        assert modes.index("compare-test") < modes.index(
            "member-scan", modes.index("member-scan") + 1)

    def test_binds_run_before_generators(self):
        c = body_clause("E in CountryE, N = E.name, C in CityE")
        plan = plan_clause(c)
        modes = [step.mode for step in plan.steps]
        # bind of N sits between the two generators, not after them.
        assert modes == [STEP_MEMBER_SCAN, STEP_EQ_BIND, STEP_MEMBER_SCAN]

    def test_cheapest_generator_first(self):
        c = body_clause("C in CityE, E in CountryE")
        plan = plan_clause(c, cardinalities={"CityE": 1000, "CountryE": 3})
        assert plan.steps[0].atom.class_name == "CountryE"
        assert plan.steps[1].atom.class_name == "CityE"
        # And the other way around under inverted statistics.
        flipped = plan_clause(c, cardinalities={"CityE": 3,
                                                "CountryE": 1000})
        assert flipped.steps[0].atom.class_name == "CityE"

    def test_equality_join_becomes_indexed(self):
        c = body_clause(
            'E in CountryE, V = E.name, V = "France"')
        plan = plan_clause(c)
        indexed = [s for s in plan.steps if s.mode == STEP_MEMBER_INDEX]
        assert len(indexed) == 1
        assert indexed[0].selector_path == ("name",)

    def test_unplannable_clause_raises(self):
        # A lone comparison over unbound variables is never ready.
        c = body_clause("N < M")
        with pytest.raises(PlanError):
            plan_clause(c)

    def test_reordered_count(self):
        c = body_clause("E in CountryE, N = E.name")
        plan = plan_clause(c)
        assert plan.atoms_reordered == 0
        assert plan.order == (0, 1)


GENOME_CLASSES = ["Clone", "Sequence", "SequenceT", "GeneT"]
TC_BODY = ("C in Clone, N = C.name, P in C.map_position, L in C.length, "
           "Q in C.seq, Y in SequenceT, Y.name = Q.name")
TC_CARDS = {"Clone": 1200, "SequenceT": 966}


def greedy_plan(c, cards):
    """The single greedy ordering ``plan_clause`` starts from, with
    the branch points it met."""
    return planner_module._greedy_plan(
        c, cards, (), planner_module._SelectorFinder(c.body))


class TestDrivingExtent:
    """Which extent drives is decided by the plan's estimated cost,
    not by extent size alone — but only for plans that would otherwise
    nest one extent scan inside another."""

    def test_join_drives_from_the_probing_side(self):
        # SequenceT is smaller, but only Clone reaches it by index
        # (Q comes out of C.seq): opening SequenceT first is a cross
        # product filtered at the last step.
        c = body_clause(TC_BODY, classes=GENOME_CLASSES)
        plan = plan_clause(c, TC_CARDS)
        assert [s.atom.class_name for s in plan.steps
                if s.mode == STEP_MEMBER_SCAN] == ["Clone"]
        assert plan.nested_scans == 0
        assert plan.atoms_reordered == 0    # as the user wrote it
        assert plan.index_paths == (("SequenceT", ("name",)),)
        greedy, _ = greedy_plan(c, TC_CARDS)
        assert greedy.nested_scans == 1
        assert plan.estimated_cost < greedy.estimated_cost

    def test_alternatives_do_not_reenter_plan_clause(self, monkeypatch):
        """The e2e ruler counts ``plan_clause`` calls by wrapping the
        module attribute: alternatives come from an internal helper."""
        calls = []
        real = planner_module.plan_clause
        monkeypatch.setattr(
            planner_module, "plan_clause",
            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        c = body_clause(TC_BODY, classes=GENOME_CLASSES)
        assert planner_module.plan_clause(c, TC_CARDS).nested_scans == 0
        assert calls == [1]

    def test_single_scan_plans_are_the_greedy_plan(self):
        # Both orders are one scan plus one probe; the greedy's
        # smallest-first choice stands and nothing is searched.
        c = body_clause("C in CityE, E in CountryE, C.country = E")
        cards = {"CityE": 1000, "CountryE": 3}
        plan = plan_clause(c, cards)
        greedy, branches = greedy_plan(c, cards)
        assert branches and plan == greedy
        assert plan.steps[0].atom.class_name == "CountryE"

    def test_unlinked_extents_keep_the_smallest_first_product(self):
        c = body_clause("C in CityE, E in CountryE, C.name != E.name")
        plan = plan_clause(c, {"CityE": 1000, "CountryE": 3})
        assert [s.atom.class_name for s in plan.steps[:2]] == [
            "CountryE", "CityE"]
        assert plan.nested_scans == 1
        assert "[scan CountryE]" in plan.explain()
        assert "[nested scan CityE]" in plan.explain()
        assert REGISTRY.value("repro_planner_nested_scans_total") == 1

    def test_later_branch_points_are_revisited(self):
        # Two unlinked pairs.  The greedy opens Tag, Doc, CountryE
        # (smallest ready extent each time: three scans); the search
        # drives the first pair from Doc (which reaches Tag through its
        # tags, not the other way round) and then revisits the second
        # pair's choice too: CityE binds E for free, CountryE would
        # pay a probe per row.
        classes = ["CityE", "CountryE", "Doc", "Tag"]
        c = body_clause(
            "C in CityE, E in CountryE, C.country = E, "
            "D in Doc, T in D.tags, G in Tag, G.label = T",
            classes=classes)
        cards = {"CityE": 50, "CountryE": 40, "Doc": 30, "Tag": 20}
        plan = plan_clause(c, cards)
        scanned = [s.atom.class_name for s in plan.steps
                   if s.mode == STEP_MEMBER_SCAN]
        assert scanned == ["Doc", "CityE"]
        assert plan.nested_scans == 1   # the pairs share no equality


class TestDeterminismAndExplain:
    def test_plans_are_deterministic(self):
        c = body_clause(
            "C in CityE, E in CountryE, N = E.name, V = C.country")
        cards = {"CityE": 40, "CountryE": 8}
        first = plan_clause(c, cards)
        second = plan_clause(c, cards)
        assert first.steps == second.steps
        assert first.order == second.order
        assert first.explain() == second.explain()

    def test_explain_is_stable(self):
        c = body_clause("E in CountryE, N = E.name")
        plan = plan_clause(c, cardinalities={"CountryE": 8})
        assert plan.explain() == (
            "plan T = T <= E in CountryE, N = E.name;: "
            "2 steps, 0 reordered, est. cost 8\n"
            "  1. member-scan  E in CountryE  [scan CountryE]\n"
            "  2. eq-bind      N = E.name")

    def test_program_plan_explain_lists_shared_indexes(self):
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        sources = [cities.generate_us_instance(3, 3, seed=1),
                   cities.generate_euro_instance(6, 4, seed=1)]
        plan = morphase.plan(sources)
        text = plan.explain()
        assert text == morphase.plan(sources).explain()  # stable
        assert "shared index(es)" in text
        assert "index (CityE, country.name)" in text


class TestChainAnalysis:
    def test_definition_chains_follow_projections(self):
        c = body_clause("E in CountryE, V = E.name")
        chains = definition_chains(c.body, "E")
        assert chains["E"] == ()
        assert chains["V"] == ("name",)

    def test_definition_chains_follow_memberships(self):
        schema_classes = ["Gene", "Sequence"]
        c = body_clause("Q in Sequence, S = Q.gene, G in S",
                        classes=schema_classes)
        chains = definition_chains(c.body, "Q")
        assert chains["G"] == ("gene", ELEMENT_STEP)

    def test_constant_bindings_both_orientations(self):
        c = body_clause('V = "France", "Paris" = W, E in CountryE')
        constants = constant_bindings(c.body)
        assert constants["V"].value == "France"
        assert constants["W"].value == "Paris"


def _containment_instance():
    schema = Schema.of("Src",
                       Tag=record(label=STR),
                       Doc=record(title=STR, tags=set_of(STR)))
    builder = InstanceBuilder(schema)
    builder.new("Tag", Record.of(label="a"))
    builder.new("Tag", Record.of(label="b"))
    builder.new("Doc", Record.of(title="d1", tags=WolSet.of("a", "x")))
    builder.new("Doc", Record.of(title="d2", tags=WolSet.of("b")))
    builder.new("Doc", Record.of(title="d3", tags=WolSet.of("a", "b")))
    return builder.freeze()


class TestIndexPool:
    def test_shared_pool_builds_each_index_once(self):
        instance = sample_euro_instance()
        pool = IndexPool(instance)
        pool.prebuild([("CityE", ("name",)), ("CityE", ("name",))])
        assert pool.builds == 1
        pool.lookup("CityE", ("name",), "Paris")
        assert pool.builds == 1
        assert pool.hits + pool.misses == 1

    def test_hit_and_miss_counters(self):
        pool = IndexPool(sample_euro_instance())
        assert pool.lookup("CityE", ("name",), "Paris")
        assert not pool.lookup("CityE", ("name",), "Atlantis")
        assert pool.hits == 1 and pool.misses == 1

    def test_containment_path_fans_out(self):
        instance = _containment_instance()
        pool = IndexPool(instance)
        index = pool.index_for("Doc", ("tags", ELEMENT_STEP))
        titles = {value: sorted(instance.attribute(oid, "title")
                                for oid in oids)
                  for value, oids in index.items()}
        assert titles == {"a": ["d1", "d3"], "b": ["d2", "d3"],
                          "x": ["d1"]}

    def test_planned_runs_share_an_injected_pool(self):
        instance = sample_euro_instance()
        pool = IndexPool(instance)
        plan = plan_clause(body_clause(
            'C in CityE, V = C.country, N = V.name, N = "France"'),
            instance.class_sizes())
        assert STEP_MEMBER_INDEX in [step.mode for step in plan.steps]
        assert list(plan_rows(pool, plan.steps))
        builds = pool.builds
        assert builds == 1  # built lazily by the first run
        assert list(plan_rows(pool, plan.steps))
        assert pool.builds == builds  # reused, not rebuilt


class TestPlannedNaiveAgreement:
    """The planned path and the naive dynamic path (the oracle) are
    interchangeable."""

    def _solution_sets(self, instance, body, cards):
        def canonical(bindings):
            return sorted(
                tuple(sorted((name, str(value))
                             for name, value in b.items()))
                for b in bindings)

        c = parse_clause("T = T <= " + body + ";", classes=CLASSES)
        plain = canonical(Matcher(instance).solutions(c.body))
        pool = IndexPool(instance)
        plan = plan_clause(c, cards)
        planned = canonical(plan_rows(pool,
                                                 plan.steps, None))
        return plain, planned

    @pytest.mark.parametrize("body", [
        "E in CountryE, N = E.name",
        'C in CityE, V = C.country, N = V.name, N = "France"',
        "C in CityE, E in CountryE, V = C.country, N = V.name, "
        "M = E.name, N = M",
        'E in CountryE, N = E.name, N != "France", C in CityE, '
        "V = C.country, W = V.name, W = N",
    ])
    def test_unindexed_and_planned_agree(self, body):
        instance = sample_euro_instance()
        cards = instance.class_sizes()
        plain, planned = self._solution_sets(instance, body, cards)
        assert plain == planned
        assert plain  # non-vacuous: every case has solutions

    def test_planned_execution_matches_naive_on_genome(self):
        """Regression: planned and naive runs build identical warehouses."""
        from repro.adapters.acedb import (AceDatabase, schema_of_acedb)
        source_schema = schema_of_acedb(
            AceDatabase("ACe22", genome.ACE_CLASSES))
        morphase = Morphase([source_schema], genome.warehouse_schema(),
                            genome.PROGRAM_TEXT)
        database = genome.generate_acedb(genes=40, sequences=80,
                                         clones=80, sparsity=0.85, seed=3)
        instance = genome.source_instance(database)
        planned = morphase.transform(instance)
        naive = naive_transform(morphase, instance)
        assert planned.target.valuations == naive.target.valuations
        assert planned.stats.bindings_found == naive.stats.bindings_found
        assert planned.stats.clauses_planned == planned.stats.clauses_run
        assert naive.stats.clauses_planned == 0

    def test_plan_compiled_with_initial_bound(self):
        """Plans honouring a declared seed run only with that seed."""
        instance = sample_euro_instance()
        c = body_clause("V = C.country, N = V.name")
        plan = plan_clause(c, instance.class_sizes(),
                           initial_bound=["C"])
        pool = IndexPool(instance)
        city = instance.objects_of("CityE")[0]
        out = list(plan_rows(pool, plan.steps,
                                        initial={"C": city}))
        assert len(out) == 1
        assert out[0]["C"] == city and "N" in out[0]
        # Running without the declared seed must error, not return [].
        with pytest.raises(MatchError):
            list(plan_rows(pool, plan.steps))

    @pytest.mark.parametrize("entry", ["run_plan_columnar",
                                       "unextended_rows"])
    def test_plan_mismatch_raises_at_call_time(self, entry):
        """Both plan entry points — the binding stream and the batch
        probe — reject a mismatched initial binding when called, not on
        the first ``next()``."""
        instance = sample_euro_instance()
        seeded = plan_clause(body_clause("V = C.country, N = V.name"),
                             instance.class_sizes(), initial_bound=["C"])
        unseeded = plan_clause(body_clause("C in CityE"),
                               instance.class_sizes())
        pool = IndexPool(instance)
        if entry == "run_plan_columnar":
            def run(steps, initial=None):
                return plan_rows(pool, steps, initial)
        else:
            def run(steps, initial=None):
                columns = {name: [value]
                           for name, value in (initial or {}).items()}
                return probe(pool, steps, columns, 1)
        city = instance.objects_of("CityE")[0]
        with pytest.raises(MatchError):
            run(seeded.steps)  # declared seed missing
        with pytest.raises(MatchError):
            run(unseeded.steps, initial={"C": city})  # would re-bind C

    def test_head_probe_runs_its_plan_or_raises(self):
        """The batch head probe answers on the plan, row for row as the
        dynamic matcher does, and a batch that does not fit the plan
        raises — in both mismatch directions — instead of switching to
        the dynamic order."""
        instance = sample_euro_instance()
        sizes = instance.class_sizes()
        pool = IndexPool(instance)
        matcher = Matcher(instance)
        cities = list(instance.objects_of("CityE"))
        unseeded = plan_clause(body_clause("C in CityE"), sizes)
        head = body_clause('C in CityE, V = C.country, N = V.name, '
                           'N = "France"')
        seeded = plan_clause(head, sizes, initial_bound=["C"])
        missing = probe(pool, seeded.steps, {"C": cities}, len(cities))
        assert missing == [row for row, city in enumerate(cities)
                           if not matcher.satisfiable(head.body,
                                                      {"C": city})]
        assert 0 < len(missing) < len(cities)
        assert probe(pool, unseeded.steps, {"Z": [1]}, 1) == []
        with pytest.raises(MatchError):     # would re-bind C
            probe(pool, unseeded.steps, {"C": cities[:1]}, 1)
        with pytest.raises(MatchError):     # reads a C nobody bound
            probe(pool, seeded.steps, {}, 1)
        assert "plan" not in Matcher.solutions.__code__.co_varnames
        assert "plan" not in Matcher.satisfiable.__code__.co_varnames

    def test_step_requirements_are_cached_on_the_frozen_step(self):
        plan = plan_clause(
            body_clause("C in CityE, E in CountryE, C.country = E"),
            {"CityE": 9, "CountryE": 3})
        probe = next(s for s in plan.steps if s.mode == STEP_MEMBER_INDEX)
        assert probe.binds == ("C",) and probe.requires == {"E"}
        assert probe.requires is probe.requires     # computed once
        # not part of the step's identity, and not carried by replace()
        import dataclasses
        twin = dataclasses.replace(probe, binds=())
        assert "requires" not in vars(twin)
        assert dataclasses.replace(twin, binds=probe.binds) == probe

    def test_every_clause_gets_a_join_plan(self):
        instance = sample_euro_instance()
        program = [clause("T = T <= E in CountryE, N = E.name;")]
        plan = plan_program(program, instance)
        assert isinstance(plan, ProgramPlan)
        assert isinstance(plan.plans[0], JoinPlan)
        assert plan.plan_for(program[0]) is plan.plans[0]


class TestUnorderableBodies:
    """A range-restricted body with no join order is refused when it is
    planned — even over an empty instance, where the dynamic matcher
    never reaches the stuck atom and would return nothing."""

    SCHEMA = Schema.of("Src", Item=record(
        name=STR, tags=set_of(record(k=STR, v=STR))))
    STUCK = parse_clause(
        "T = T <= I in Item, N = I.name, (k = K, v = I.name) in I.tags;",
        classes=["Item"])

    def test_planning_refuses_it(self):
        empty = InstanceBuilder(self.SCHEMA).freeze()
        with pytest.raises(PlanError, match="no atom is statically ready"):
            plan_program([self.STUCK], empty)
        with pytest.raises(PlanError, match="no atom is statically ready"):
            plan_audit([self.STUCK], empty)
        with pytest.raises(PlanError, match="no atom is statically ready"):
            execute([self.STUCK], empty, Schema.of("Tgt", Out=record(
                name=STR)))


class TestProgramPlanning:
    def test_index_union_is_prebuilt_once(self):
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        sources = [cities.generate_us_instance(4, 3, seed=1),
                   cities.generate_euro_instance(8, 4, seed=1)]
        result = morphase.transform(sources)
        stats = result.stats
        # T1+T3 and T2 share (CityE, country.name): prebuilt once on the
        # plan's shared pool, probed by both clauses; the run itself
        # builds nothing lazily (stats record per-run deltas only).
        assert result.plan.pool.builds == len(result.plan.index_paths())
        assert result.plan.prebuilt_indexes == len(result.plan.index_paths())
        assert stats.indexes_built == 0
        assert stats.clauses_planned == stats.clauses_run
        # The plan's pool served this run alone: every probe is charged.
        probes = stats.index_hits + stats.index_misses
        assert probes == result.plan.pool.hits + result.plan.pool.misses
        assert probes > 0

    def test_stats_are_per_run_with_shared_pool(self):
        """A pool shared across executors must not double-count stats."""
        from repro.lang import parse_program as _parse
        prog = _parse(
            "T: X in Out, X = Mk_Out(N), X.name = N"
            " <= I in Item, N = I.name, V in CollE, W = V.label, W = N;",
            classes=["Item", "Out", "CollE"])
        schema = Schema.of("Src", Item=record(name=STR),
                           CollE=record(label=STR))
        builder = InstanceBuilder(schema)
        builder.new("Item", Record.of(name="a"))
        builder.new("CollE", Record.of(label="a"))
        source = builder.freeze()
        target_schema = Schema.of("Tgt", Out=record(name=STR))
        plan = plan_program(list(prog), source)
        first = Executor(source, target_schema)
        first.run_program(prog, plan=plan)
        second = Executor(source, target_schema)
        second.run_program(prog, plan=plan)
        assert second.stats.index_hits == first.stats.index_hits
        assert second.stats.index_misses == first.stats.index_misses
        assert second.stats.indexes_built == 0  # prebuilt by the plan

    def test_eq_test_mode_for_residual_checks(self):
        c = body_clause("E in CountryE, N = E.name, M = E.name, N = M")
        plan = plan_clause(c)
        assert STEP_EQ_TEST in [s.mode for s in plan.steps]
