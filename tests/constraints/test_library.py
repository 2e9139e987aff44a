"""Unit tests for the constraint library (paper Sections 2-4)."""

import pytest

from repro.constraints import (at_most_one, attribute_value, audit_constraints,
                               existence_dependency, functional_dependency,
                               inclusion_dependency, inverse_attributes,
                               key_constraint, specialization)
from repro.model import (BOOL, STR, InstanceBuilder, Record, Schema, WolSet,
                         record, set_of)
from repro.normalization import recognise_source_key_paths, snf_clause
from repro.semantics import satisfies_clause
from repro.workloads import cities, persons


@pytest.fixture()
def euro():
    return cities.sample_euro_instance()


class TestKeyConstraint:
    def test_satisfied_on_sample(self, euro):
        clause = key_constraint("CountryE", ["name"])
        assert satisfies_clause(euro, clause)

    def test_violated_on_duplicates(self, euro):
        builder = euro.builder()
        builder.new("CountryE", Record.of(
            name="France", language="Breton", currency="ecu"))
        assert not satisfies_clause(builder.freeze(),
                                    key_constraint("CountryE", ["name"]))

    def test_recognised_by_normaliser(self):
        clause = snf_clause(key_constraint("CityE",
                                           ["name", "country.name"]))
        recognised = recognise_source_key_paths(clause)
        assert recognised == ("CityE", (("country", "name"), ("name",)))


class TestFunctionalDependency:
    def test_language_determined_by_name(self, euro):
        fd = functional_dependency("CountryE", ["name"], "language")
        assert satisfies_clause(euro, fd)

    def test_violation_detected(self, euro):
        builder = euro.builder()
        builder.new("CountryE", Record.of(
            name="France", language="Breton", currency="franc"))
        fd = functional_dependency("CountryE", ["name"], "language")
        assert not satisfies_clause(builder.freeze(), fd)

    def test_deep_paths(self, euro):
        # A city's country name determines the country's currency.
        fd = functional_dependency("CityE", ["country.name"],
                                   "country.currency")
        assert satisfies_clause(euro, fd)


class TestInclusionDependency:
    def test_satisfied_structurally(self, euro):
        incl = inclusion_dependency("CityE", "country", "CountryE")
        assert satisfies_clause(euro, incl)


class TestCardinality:
    @staticmethod
    def _schema():
        return Schema.of("S", Box=record(name=STR, items=set_of(STR)))

    def test_existence_dependency(self):
        builder = InstanceBuilder(self._schema())
        builder.new("Box", Record.of(name="full", items=WolSet.of("x")))
        instance = builder.freeze()
        assert satisfies_clause(instance,
                                existence_dependency("Box", "items"))
        builder.new("Box", Record.of(name="empty", items=WolSet.of()))
        assert not satisfies_clause(builder.freeze(),
                                    existence_dependency("Box", "items"))

    def test_at_most_one(self):
        builder = InstanceBuilder(self._schema())
        builder.new("Box", Record.of(name="one", items=WolSet.of("x")))
        instance = builder.freeze()
        assert satisfies_clause(instance, at_most_one("Box", "items"))
        builder.new("Box", Record.of(name="two",
                                     items=WolSet.of("x", "y")))
        assert not satisfies_clause(builder.freeze(),
                                    at_most_one("Box", "items"))


class TestSpecialization:
    def test_capital_is_a_city(self, euro):
        # Model 'capitals' as the cities with is_capital: every capital
        # name has a CityE with that name.  (Here trivially satisfied
        # against CityE itself.)
        isa = specialization("CityE", "CityE", ["name"])
        assert satisfies_clause(euro, isa)


class TestAttributeValue:
    def test_constant_restriction(self, euro):
        builder = InstanceBuilder(
            Schema.of("S", Flag=record(v=BOOL)))
        builder.new("Flag", Record.of(v=True))
        instance = builder.freeze()
        assert satisfies_clause(instance,
                                attribute_value("Flag", "v", True))
        builder.new("Flag", Record.of(v=False))
        assert not satisfies_clause(builder.freeze(),
                                    attribute_value("Flag", "v", True))


class TestInverseAttributes:
    def test_c11_shape(self):
        clause = inverse_attributes("Person", "spouse", "Person", "spouse")
        good = persons.sample_instance()
        assert satisfies_clause(good, clause)
        assert not satisfies_clause(persons.asymmetric_instance(), clause)


class TestAudit:
    def test_clean_report(self, euro):
        report = audit_constraints(euro, [
            key_constraint("CountryE", ["name"]),
            functional_dependency("CountryE", ["name"], "currency"),
        ])
        assert report.ok
        assert "satisfied" in report.summary()

    def test_failing_report_names_clauses(self, euro):
        builder = euro.builder()
        builder.new("CountryE", Record.of(
            name="France", language="Breton", currency="ecu"))
        broken = builder.freeze()
        report = audit_constraints(broken, [
            key_constraint("CountryE", ["name"], name="K1"),
            functional_dependency("CountryE", ["name"], "currency",
                                  name="FD1"),
        ])
        assert not report.ok
        assert report.failed_clauses() == ["FD1", "K1"]
        assert "violated" in report.summary()

    def test_limit_respected(self, euro):
        builder = euro.builder()
        for index in range(4):
            builder.new("CountryE", Record.of(
                name="France", language=f"L{index}", currency="x"))
        report = audit_constraints(
            builder.freeze(),
            [key_constraint("CountryE", ["name"], name="K")],
            limit_per_clause=3)
        assert len(report.violations["K"]) == 3
