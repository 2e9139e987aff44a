"""Unit tests for clause satisfaction (paper Section 3.1 semantics)."""

import pytest

from repro.lang import parse_clause
from repro.model import Record
from repro.semantics import (merge_instances, program_violations,
                             satisfies_clause)
from repro.workloads.cities import (euro_schema, sample_euro_instance,
                                    sample_us_instance, us_schema)

EURO_CLASSES = euro_schema().schema.class_names()
US_CLASSES = us_schema().schema.class_names()


@pytest.fixture()
def euro():
    return sample_euro_instance()


def clause(text, classes=EURO_CLASSES):
    return parse_clause(text, classes=classes)


class TestPaperConstraints:
    def test_c4_every_country_has_capital(self, euro):
        c4 = clause("Y in CityE, Y.country = X, Y.is_capital = true"
                    " <= X in CountryE;")
        assert satisfies_clause(euro, c4)

    def test_c4_violated(self, euro):
        builder = euro.builder()
        builder.new("CountryE", Record.of(
            name="Utopia", language="?", currency="?"))
        broken = builder.freeze()
        c4 = clause("Y in CityE, Y.country = X, Y.is_capital = true"
                    " <= X in CountryE;")
        violations = program_violations(broken, [c4])
        assert len(violations) == 1

    def test_c5_at_most_one_capital(self, euro):
        c5 = clause("X = Y <= X in CityE, Y in CityE,"
                    " X.country = Y.country, X.is_capital = true,"
                    " Y.is_capital = true;")
        assert satisfies_clause(euro, c5)

    def test_c5_violated_by_second_capital(self, euro):
        builder = euro.builder()
        france = next(o for o in euro.objects_of("CountryE")
                      if euro.attribute(o, "name") == "France")
        builder.new("CityE", Record.of(
            name="Marseille", is_capital=True, country=france))
        broken = builder.freeze()
        c5 = clause("X = Y <= X in CityE, Y in CityE,"
                    " X.country = Y.country, X.is_capital = true,"
                    " Y.is_capital = true;")
        assert not satisfies_clause(broken, c5)

    def test_c1_capital_belongs_to_state(self):
        us = sample_us_instance()
        c1 = clause("X.state = Y <= Y in StateA, X = Y.capital;",
                    classes=US_CLASSES)
        assert satisfies_clause(us, c1)

    def test_program_satisfaction(self, euro):
        program = [
            clause("Y in CityE, Y.country = X, Y.is_capital = true"
                   " <= X in CountryE;"),
            clause("X = Y <= X in CityE, Y in CityE,"
                   " X.country = Y.country, X.is_capital = true,"
                   " Y.is_capital = true;"),
        ]
        assert not program_violations(euro, program)


class TestExistentialHeads:
    def test_head_variable_existentially_quantified(self, euro):
        # For every country there exists a city in it.
        c = clause("Y in CityE, Y.country = X <= X in CountryE;")
        assert satisfies_clause(euro, c)

    def test_violation_binding_projected_to_body_vars(self, euro):
        builder = euro.builder()
        builder.new("CountryE", Record.of(
            name="Utopia", language="?", currency="?"))
        broken = builder.freeze()
        c = clause("Y in CityE, Y.country = X <= X in CountryE;")
        (violation,) = program_violations(broken, [c])
        assert set(violation.binding) == {"X"}
        assert broken.attribute(violation.binding["X"], "name") == "Utopia"


class TestMergeInstances:
    def test_merge_disjoint_schemas(self, euro):
        us = sample_us_instance()
        merged = merge_instances("Both", [us, euro])
        assert merged.size() == us.size() + euro.size()
        merged.validate()

    def test_duplicate_class_rejected(self, euro):
        # Class names must be disjoint: a silent merge would overwrite
        # one input's objects with the other's.
        from repro.model.instance import InstanceError
        with pytest.raises(InstanceError,
                           match="instance #0 and instance #1"):
            merge_instances("Both", [euro, sample_euro_instance()])

    def test_duplicate_class_error_names_both_instances(self, euro):
        from repro.model.instance import InstanceError
        us = sample_us_instance()
        with pytest.raises(InstanceError, match="instance #1.*instance #2"):
            merge_instances("Both", [us, euro, sample_euro_instance()])

    def test_cross_database_clause(self, euro):
        us = sample_us_instance()
        merged = merge_instances("Both", [us, euro])
        # No US city shares a name with a European city in the samples.
        c = parse_clause(
            "X = X <= X in CityA, Y in CityE, X.name = Y.name;",
            classes=US_CLASSES + EURO_CLASSES)
        from repro.oracle import Matcher
        assert not Matcher(merged).satisfiable(c.body)


class TestViolationLimit:
    def test_limit_respected(self, euro):
        builder = euro.builder()
        for index in range(5):
            builder.new("CountryE", Record.of(
                name=f"Ghost{index}", language="?", currency="?"))
        broken = builder.freeze()
        c4 = clause("Y in CityE, Y.country = X, Y.is_capital = true"
                    " <= X in CountryE;")
        assert len(program_violations(broken, [c4], limit_per_clause=2)) == 2
        assert len(program_violations(broken, [c4])) == 5
