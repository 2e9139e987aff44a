"""Unit tests for meta-data constraint generation (paper Section 5)."""

from repro.lang import EqAtom
from repro.morphase import (generate_source_key_clauses,
                            generate_target_key_clauses, key_clause_for,
                            source_key_clause_for)
from repro.normalization import (recognise_key_clause,
                                 recognise_source_key_paths, snf_clause)
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


class TestSourceKeyClauses:
    def test_c8_shape(self):
        fn = euro_schema().keys.key_for("CountryE")
        clause = source_key_clause_for(fn)
        recognised = recognise_source_key_paths(snf_clause(clause))
        assert recognised == ("CountryE", (("name",),))

    def test_compound_key_roundtrip(self):
        fn = euro_schema().keys.key_for("CityE")
        clause = source_key_clause_for(fn)
        recognised = recognise_source_key_paths(snf_clause(clause))
        assert recognised == ("CityE", (("country", "name"), ("name",)))

    def test_generate_all(self):
        generated = generate_source_key_clauses(euro_schema())
        assert len(generated) == 2
        heads = [c.head[0] for c in generated]
        assert all(isinstance(h, EqAtom) for h in heads)
