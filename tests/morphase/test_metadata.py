"""Unit tests for meta-data constraint generation (paper Section 5)."""

from repro.morphase import generate_target_key_clauses, key_clause_for
from repro.normalization import recognise_key_clause, snf_clause
from repro.workloads.cities import euro_schema, target_schema


class TestTargetKeyClauses:
    def test_single_attribute_key(self):
        fn = target_schema().keys.key_for("CountryT")
        clause = key_clause_for(fn)
        recognised = recognise_key_clause(snf_clause(clause))
        assert recognised is not None
        assert recognised.class_name == "CountryT"

    def test_compound_deep_key(self):
        fn = euro_schema().keys.key_for("CityE")
        clause = key_clause_for(fn)
        recognised = recognise_key_clause(snf_clause(clause))
        assert recognised is not None
        assert recognised.skolem.is_named
        labels = [label for label, _ in recognised.skolem.args]
        assert labels == ["country_name", "name"]

    def test_generation_skips_listed_classes(self):
        generated = generate_target_key_clauses(
            target_schema(), skip=["CityT"])
        classes = {recognise_key_clause(snf_clause(c)).class_name
                   for c in generated}
        assert classes == {"CountryT", "StateT"}

    def test_generated_clauses_have_names(self):
        generated = generate_target_key_clauses(target_schema())
        assert all(c.name and c.name.startswith("key_")
                   for c in generated)
