"""Integration test: the paper's running example end-to-end (F1-F3).

Figures 1 and 2 (US and European cities) are integrated into the Figure 3
schema, including the hard part the paper highlights in Example 1.1: the
Boolean ``is_capital`` attribute of European cities becomes the ``capital``
*reference* attribute of target countries, which requires the source
constraints (C4)/(C5) for well-definedness.
"""

import pytest

from repro.engine.executor import ExecutionError
from repro.model import Record, Variant, isomorphic
from repro.morphase import Morphase, MorphaseError
from repro.workloads import cities


@pytest.fixture(scope="module")
def morphase():
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


@pytest.fixture(scope="module")
def result(morphase):
    return morphase.transform([cities.sample_us_instance(),
                               cities.sample_euro_instance()])


class TestIntegratedInstance:
    def test_class_sizes(self, result):
        assert result.target.class_sizes() == {
            "CityT": 12, "CountryT": 3, "StateT": 2}

    def test_boolean_becomes_reference(self, result):
        """The is_capital -> capital re-representation (Example 1.1)."""
        target = result.target
        for country in target.objects_of("CountryT"):
            capital = target.attribute(country, "capital")
            assert capital.class_name == "CityT"
            # The capital city's place points back at the country.
            place = target.attribute(capital, "place")
            assert place == Variant("euro_city", country)

    def test_specific_capitals(self, result):
        target = result.target
        by_name = {target.attribute(c, "name"): c
                   for c in target.objects_of("CountryT")}
        capital = target.attribute(by_name["France"], "capital")
        assert target.attribute(capital, "name") == "Paris"
        capital = target.attribute(by_name["United Kingdom"], "capital")
        assert target.attribute(capital, "name") == "London"

    def test_us_states_mapped(self, result):
        target = result.target
        by_name = {target.attribute(s, "name"): s
                   for s in target.objects_of("StateT")}
        assert set(by_name) == {"Pennsylvania", "California"}
        capital = target.attribute(by_name["Pennsylvania"], "capital")
        assert target.attribute(capital, "name") == "Harrisburg"

    def test_place_variant_split(self, result):
        target = result.target
        euro_cities = 0
        us_cities = 0
        for city in target.objects_of("CityT"):
            place = target.attribute(city, "place")
            if place.label == "euro_city":
                euro_cities += 1
            else:
                assert place.label == "us_city"
                us_cities += 1
        assert euro_cities == 7
        assert us_cities == 5

    def test_non_capital_cities_present(self, result):
        target = result.target
        names = {target.attribute(c, "name")
                 for c in target.objects_of("CityT")}
        assert {"Manchester", "Lyon", "Philadelphia"} <= names

    def test_target_is_valid_and_keyed(self, result):
        result.target.validate()
        from repro.model import key_violations
        assert not key_violations(result.target, cities.target_schema().keys)

    def test_audit_clean(self, morphase, result):
        violations = morphase.audit(
            [cities.sample_us_instance(), cities.sample_euro_instance()],
            result.target)
        assert violations == []


class TestWellDefinednessNeedsConstraints:
    """Example 1.1: without (C4)/(C5) the transformation is ill-defined."""

    def test_country_without_capital_makes_program_incomplete(self,
                                                              morphase):
        builder = cities.sample_euro_instance().builder()
        builder.new("CountryE", Record.of(
            name="Utopia", language="Esperanto", currency="stela"))
        broken = builder.freeze()
        # T1 creates the CountryT but no firing of T1+T3 supplies its
        # capital.  Since the merged clause never fires for Utopia, the
        # object is simply absent -- and the audit detects that T1 is
        # violated (no corresponding CountryT for Utopia).
        result = morphase.transform([cities.sample_us_instance(), broken])
        names = {result.target.attribute(c, "name")
                 for c in result.target.objects_of("CountryT")}
        assert "Utopia" not in names
        assert morphase.audit(
            [cities.sample_us_instance(), broken], result.target)

    def test_two_capitals_is_a_runtime_conflict(self, morphase):
        builder = cities.sample_euro_instance().builder()
        france = next(o for o in builder.objects_of("CountryE")
                      if builder.value_of(o).get("name") == "France")
        builder.new("CityE", Record.of(
            name="Marseille", is_capital=True, country=france))
        broken = builder.freeze()
        with pytest.raises(ExecutionError) as excinfo:
            morphase.transform([cities.sample_us_instance(), broken])
        assert "conflict" in str(excinfo.value)

    def test_source_checking_rejects_both_upfront(self, morphase):
        builder = cities.sample_euro_instance().builder()
        builder.new("CountryE", Record.of(
            name="Utopia", language="Esperanto", currency="stela"))
        broken = builder.freeze()
        with pytest.raises(MorphaseError):
            morphase.transform([cities.sample_us_instance(), broken],
                               check_source_constraints=True)


class TestScaling:
    def test_generated_instances_integrate(self, morphase):
        euro = cities.generate_euro_instance(8, 4, seed=11)
        us = cities.generate_us_instance(5, 3, seed=11)
        target = morphase.transform([us, euro]).target
        assert target.class_sizes() == {
            "CityT": 8 * 4 + 5 * 3, "CountryT": 8, "StateT": 5}
        target.validate()

    def test_isomorphic_sources_give_isomorphic_targets(self, morphase):
        euro = cities.generate_euro_instance(3, 2, seed=0)
        us = cities.generate_us_instance(2, 2, seed=0)
        first = morphase.transform([us, euro]).target
        second = morphase.transform([us, euro]).target
        assert isomorphic(first, second)
