"""Unit tests for WOL -> CPL translation and the full CPL path."""

import pytest

from repro.cpl import (CplTranslationError, Filter, Generator, LetBind,
                       translate_body, translate_program)
from repro.lang import parse_clause, parse_program
from repro.morphase import Morphase
from repro.workloads import cities, persons

CLASSES = ["Item", "Out", "CityE", "CountryE"]


def body_of(text, classes=CLASSES):
    return parse_clause(f"T = T <= {text};", classes=classes).body


class TestTranslateBody:
    def test_member_becomes_generator(self):
        quals = translate_body(body_of("X in CityE"), {"CityE"})
        assert isinstance(quals[0], Generator)

    def test_definition_becomes_let(self):
        quals = translate_body(body_of("X in CityE, N = X.name"),
                               {"CityE"})
        assert any(isinstance(q, LetBind) for q in quals)

    def test_join_becomes_filter(self):
        quals = translate_body(
            body_of("X in CityE, Y in CityE, N = X.name, N = Y.name"),
            {"CityE"})
        assert any(isinstance(q, Filter) for q in quals)

    def test_variant_pattern_destructured(self):
        quals = translate_body(
            body_of("X in CityE, V = X.place, V = ins_euro_city(C)"),
            {"CityE"})
        rendered = " ".join(str(q) for q in quals)
        assert "is<euro_city>" in rendered
        assert "payload<euro_city>" in rendered

    def test_unorderable_body_rejected(self):
        # W is never bound by anything.
        with pytest.raises(CplTranslationError):
            translate_body(body_of("X in CityE, X.name = W.name"),
                           {"CityE"})

    def test_non_source_class_rejected(self):
        with pytest.raises(CplTranslationError):
            translate_body(body_of("X in CityE"), {"CountryE"})

    def test_comparisons_translate(self):
        quals = translate_body(
            body_of("X in CityE, Y in CityE, X.name < Y.name,"
                    " X.name != Y.zip"),
            {"CityE"})
        rendered = " ".join(str(q) for q in quals)
        assert "<" in rendered and "<>" in rendered


class TestFullPathEquivalence:
    def test_cities_cpl_matches_direct(self):
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        sources = [cities.sample_us_instance(),
                   cities.sample_euro_instance()]
        direct = morphase.transform(sources, backend="direct")
        via_cpl = morphase.transform(sources, backend="cpl")
        # Keyed identities make the instances literally equal, not just
        # isomorphic.
        assert direct.target.valuations == via_cpl.target.valuations

    def test_persons_cpl_matches_direct(self):
        morphase = Morphase([persons.person_schema()],
                            persons.evolved_schema(),
                            persons.PROGRAM_TEXT)
        source = persons.sample_instance()
        direct = morphase.transform(source, backend="direct")
        via_cpl = morphase.transform(source, backend="cpl")
        assert direct.target.valuations == via_cpl.target.valuations

    def test_cpl_source_is_recorded(self):
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        result = morphase.transform(
            [cities.sample_us_instance(), cities.sample_euro_instance()],
            backend="cpl")
        assert result.cpl_source is not None
        assert "insert CountryT" in result.cpl_source
        assert "extent(CountryE)" in result.cpl_source

    def test_generated_cpl_runs_on_larger_instances(self):
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        sources = [cities.generate_us_instance(5, 3),
                   cities.generate_euro_instance(7, 4)]
        direct = morphase.transform(sources, backend="direct")
        via_cpl = morphase.transform(sources, backend="cpl")
        assert direct.target.valuations == via_cpl.target.valuations
        assert direct.target.class_sizes()["CityT"] == 5 * 3 + 7 * 4


class TestTranslateProgram:
    def test_insert_count_matches_created_objects(self):
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        normalized = morphase.compile()
        cpl = translate_program(normalized.program(),
                                cities.target_schema().schema)
        assert len(cpl) == 4  # one created object per normal clause

    def test_non_normal_clause_rejected(self):
        program = parse_program(
            "T: X in Out, X.name = N <= I in Item, N = I.name;",
            classes=["Item", "Out"])
        from repro.model import Schema, record, STR
        target = Schema.of("T", Out=record(name=STR))
        with pytest.raises(CplTranslationError):
            # No identity for X: head plan creates it but identity is
            # missing, making the insert untranslatable.
            translate_program(program, target)
