"""Integration test: schema evolution + information capacity (F4-F5).

Example 4.2: the Person schema evolves into Male/Female/Marriage; the
transformation (T6)-(T8) preserves information exactly on sources
satisfying (C9)-(C11).
"""

import pytest

from repro.infocap import check_injectivity, check_preservation
from repro.morphase import Morphase
from repro.workloads import persons


@pytest.fixture(scope="module")
def morphase():
    return Morphase([persons.person_schema()], persons.evolved_schema(),
                    persons.PROGRAM_TEXT)


class TestEvolution:
    def test_couples_map_fully(self, morphase):
        target = morphase.transform(persons.sample_instance()).target
        assert target.class_sizes() == {
            "Male": 3, "Female": 3, "Marriage": 3}

    def test_marriages_link_correct_pairs(self, morphase):
        target = morphase.transform(
            persons.couples_instance([("Adam", "Beth")])).target
        (marriage,) = target.objects_of("Marriage")
        husband = target.attribute(marriage, "husband")
        wife = target.attribute(marriage, "wife")
        assert target.attribute(husband, "name") == "Adam"
        assert target.attribute(wife, "name") == "Beth"

    def test_audit_clean_on_constrained_source(self, morphase):
        source = persons.sample_instance()
        target = morphase.transform(source).target
        assert morphase.audit(source, target) == []

    def test_cpl_backend_agrees(self, morphase):
        source = persons.sample_instance()
        direct = morphase.transform(source, backend="direct")
        via_cpl = morphase.transform(source, backend="cpl")
        assert direct.target.valuations == via_cpl.target.valuations


class TestInformationCapacity:
    """Section 4.3, made quantitative."""

    def test_not_injective_without_constraints(self, morphase):
        def transform(instance):
            return morphase.transform(instance).target

        report = check_injectivity(transform, [
            persons.asymmetric_instance(),
            persons.symmetric_variant_of_asymmetric()])
        assert not report.injective

    def test_injective_with_constraints(self, morphase):
        def transform(instance):
            return morphase.transform(instance).target

        constraints = morphase.compile().source_constraints
        family = [
            persons.generate_instance(0),
            persons.generate_instance(1),
            persons.generate_instance(2),
            persons.generate_instance(3),
            persons.couples_instance([("X", "Y")]),
            persons.couples_instance([("A", "B"), ("C", "D")]),
            persons.asymmetric_instance(),
            persons.symmetric_variant_of_asymmetric(),
        ]
        report = check_preservation(transform, family, constraints)
        assert not report.unconstrained.injective
        assert report.constrained.injective
        # The two pathological instances fail the constraints.
        assert report.constrained_count == report.total_count - 2

    def test_audit_flags_information_loss(self, morphase):
        """On the asymmetric source the transformation drops Ann's
        marriage; the audit over source+target shows (T8) satisfied but
        the source constraints violated, explaining the loss."""
        source = persons.asymmetric_instance()
        target = morphase.transform(source).target
        # The evolved instance has fewer marriages than spouse links.
        spouse_links = sum(
            1 for p in source.objects_of("Person"))
        assert target.class_sizes()["Marriage"] < spouse_links
        constraints = morphase.compile().source_constraints
        from repro.semantics import program_violations
        assert program_violations(source, constraints)
