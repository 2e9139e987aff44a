"""Unit tests for the Morphase façade (paper Section 5, Figure 6)."""

import pytest

from repro.lang import RangeRestrictionError, TypecheckError
from repro.model import Record
from repro.normalization import NormalizationError
from repro.morphase import Morphase, MorphaseError
from repro.normalization import NormalizationOptions
from repro.workloads import cities, persons


@pytest.fixture(scope="module")
def city_morphase():
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


@pytest.fixture(scope="module")
def city_sources():
    return [cities.sample_us_instance(), cities.sample_euro_instance()]


class TestCompile:
    def test_compile_is_cached(self, city_morphase):
        first = city_morphase.compile()
        second = city_morphase.compile()
        assert first is second
        assert city_morphase.compile(force=True) is not first

    def test_typecheck_runs_at_construction(self):
        with pytest.raises(TypecheckError):
            Morphase([cities.us_schema()], cities.target_schema(),
                     "T: X in StateT, X.name = S.mayor <= S in StateA;")

    def test_range_restriction_runs_at_construction(self):
        with pytest.raises(RangeRestrictionError):
            Morphase([cities.us_schema()], cities.target_schema(),
                     "T: X.name < Y <= X in StateA;")

    def test_auto_keys_generated(self, city_morphase):
        normalized = city_morphase.compile()
        # StateT/CountryT keys came from the schema key spec via
        # metadata generation; CityT was hand-written in the program.
        assert set(normalized.key_clauses) == {"CityT", "CountryT",
                                               "StateT"}

    def test_auto_keys_disabled(self):
        # Male/Female keys only exist via metadata generation; without it
        # the persons program cannot identify the created objects.
        morphase = Morphase(
            [persons.person_schema()], persons.evolved_schema(),
            persons.PROGRAM_TEXT, auto_keys=False)
        with pytest.raises(NormalizationError):
            morphase.compile()


class TestTransform:
    def test_transform_produces_expected_sizes(self, city_morphase,
                                               city_sources):
        result = city_morphase.transform(city_sources)
        assert result.target.class_sizes() == {
            "CityT": 12, "CountryT": 3, "StateT": 2}

    def test_transform_accepts_single_instance(self):
        morphase = Morphase([persons.person_schema()],
                            persons.evolved_schema(),
                            persons.PROGRAM_TEXT)
        result = morphase.transform(persons.sample_instance())
        assert result.target.class_sizes() == {
            "Male": 3, "Female": 3, "Marriage": 3}

    def test_unknown_backend_rejected(self, city_morphase, city_sources):
        with pytest.raises(MorphaseError):
            city_morphase.transform(city_sources, backend="sybase")

    def test_audit_of_result_is_clean(self, city_morphase, city_sources):
        result = city_morphase.transform(city_sources)
        assert city_morphase.audit(city_sources, result.target) == []

    def test_audit_catches_missing_target_object(self, city_morphase,
                                                 city_sources):
        result = city_morphase.transform(city_sources)
        builder = result.target.builder()
        # Remove a CityT: T2 is then violated.
        victim = next(iter(result.target.objects_of("CityT")))
        damaged = {cname: {o: v for o, v in objs.items() if o != victim}
                   for cname, objs in result.target.valuations.items()}
        from repro.model import Instance
        broken = Instance(result.target.schema, damaged)
        assert city_morphase.audit(city_sources, broken)

    def test_audit_span_tree(self, city_morphase, city_sources):
        """audit -> plan (clauses, indexes, nested_scans)
                 -> execute (body_solutions, violations) -> clause ..."""
        from repro.obs.trace import start_trace
        result = city_morphase.transform(city_sources)
        with start_trace("audit") as trace:
            assert city_morphase.audit(city_sources, result.target) == []
        plan, execute = trace.root.children
        assert (plan.name, execute.name) == ("plan", "execute")
        clauses = len(city_morphase.program.clauses)
        assert plan.attrs["clauses"] == clauses
        assert plan.attrs["indexes"] > 0
        assert plan.attrs["nested_scans"] == 0
        per_clause = [child for child in execute.children
                      if child.name.startswith("clause ")]
        assert len(per_clause) == clauses
        assert all(child.attrs["violations"] == 0 for child in per_clause)
        assert execute.attrs == {
            "body_solutions": sum(child.attrs["body_solutions"]
                                  for child in per_clause),
            "violations": 0}
        assert execute.attrs["body_solutions"] > 0


class TestSourceChecking:
    def test_clean_source_passes(self, city_morphase, city_sources):
        result = city_morphase.transform(city_sources,
                                         check_source_constraints=True)
        assert result.source_violations == ()

    def test_violating_source_rejected(self, city_morphase):
        builder = cities.sample_euro_instance().builder()
        builder.new("CountryE", Record.of(
            name="Utopia", language="?", currency="?"))
        broken = builder.freeze()
        with pytest.raises(MorphaseError) as excinfo:
            city_morphase.transform(
                [cities.sample_us_instance(), broken],
                check_source_constraints=True)
        assert "source constraints" in str(excinfo.value)

    def test_key_violation_reported(self, city_morphase):
        builder = cities.sample_euro_instance().builder()
        uk = next(o for o in builder.objects_of("CountryE")
                  if builder.value_of(o).get("name") == "United Kingdom")
        builder.new("CountryE", Record.of(
            name="United Kingdom", language="Welsh", currency="pound"))
        broken = builder.freeze()
        violations = city_morphase.check_source(
            __import__("repro.semantics", fromlist=["merge_instances"])
            .merge_instances("__source__",
                             [cities.sample_us_instance(), broken]))
        assert any("key" in (v.clause.name or "") for v in violations)


class TestOptions:
    def test_options_flow_through(self, city_sources):
        morphase = Morphase(
            [cities.us_schema(), cities.euro_schema()],
            cities.target_schema(), cities.PROGRAM_TEXT,
            options=NormalizationOptions(use_constraints=False))
        normalized = morphase.compile()
        assert normalized.report.pruned_unsatisfiable == 0
        # The unoptimised program still computes the right instance.
        result = morphase.transform(city_sources)
        reference = Morphase(
            [cities.us_schema(), cities.euro_schema()],
            cities.target_schema(), cities.PROGRAM_TEXT).transform(
                city_sources)
        assert result.target.valuations == reference.target.valuations
