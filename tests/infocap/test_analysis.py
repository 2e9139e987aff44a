"""Unit tests for information-capacity analysis (paper Section 4.3)."""

import pytest

from repro.infocap import (check_injectivity, check_preservation,
                           filter_by_constraints)
from repro.morphase import Morphase
from repro.workloads import persons


@pytest.fixture(scope="module")
def morphase():
    return Morphase([persons.person_schema()], persons.evolved_schema(),
                    persons.PROGRAM_TEXT)


@pytest.fixture(scope="module")
def transform(morphase):
    def run(instance):
        return morphase.transform(instance).target
    return run


def constraint_clauses(morphase):
    return morphase.compile().source_constraints


class TestInjectivity:
    def test_injective_on_wellformed_couples(self, transform):
        family = [persons.generate_instance(n) for n in range(1, 5)]
        report = check_injectivity(transform, family)
        assert report.injective
        assert report.total

    def test_paper_counterexample(self, transform):
        """Sources violating (C11) collide (Example 4.2's point)."""
        family = [persons.asymmetric_instance(),
                  persons.symmetric_variant_of_asymmetric()]
        report = check_injectivity(transform, family)
        assert not report.injective
        (witness,) = report.failures
        assert witness.image.class_sizes()["Marriage"] == 1

    def test_stop_at_first(self, transform):
        family = [persons.asymmetric_instance(),
                  persons.symmetric_variant_of_asymmetric(),
                  persons.asymmetric_instance()]
        report = check_injectivity(transform, family, stop_at_first=True)
        assert len(report.failures) == 1

    def test_errors_recorded_not_raised(self):
        def broken(instance):
            raise RuntimeError("boom")
        report = check_injectivity(
            broken, [persons.sample_instance()])
        assert not report.total
        assert report.errors[0][1] == "boom"

    def test_isomorphic_sources_not_counterexamples(self, transform):
        family = [persons.couples_instance([("A", "B")]),
                  persons.couples_instance([("A", "B")])]
        report = check_injectivity(transform, family)
        assert report.injective


class TestConstraintFiltering:
    def test_filter_keeps_constrained(self, morphase):
        constraints = constraint_clauses(morphase)
        family = [persons.sample_instance(),
                  persons.asymmetric_instance()]
        kept = filter_by_constraints(family, constraints)
        assert len(kept) == 1

    def test_preservation_report(self, morphase, transform):
        constraints = constraint_clauses(morphase)
        family = [
            persons.generate_instance(1),
            persons.generate_instance(2),
            persons.asymmetric_instance(),
            persons.symmetric_variant_of_asymmetric(),
        ]
        report = check_preservation(transform, family, constraints)
        assert not report.unconstrained.injective
        assert report.constrained.injective
        assert report.constrained_count == 2
        assert "NOT injective" in report.summary()
