"""Unit tests for pretty printing and parse/print roundtrips."""

from repro.lang import (format_clause, format_program, parse_clause,
                        parse_program)
from repro.workloads.cities import integration_program


CLASSES = ["CityA", "StateA", "CityE", "CountryE", "CityT", "CountryT",
           "StateT"]


class TestFormatClause:
    def test_simple_clause(self):
        clause = parse_clause("X.state = Y <= Y in StateA, X = Y.capital;",
                              classes=CLASSES)
        text = format_clause(clause)
        assert "X.state = Y" in text
        assert "<=" in text

    def test_kind_and_name_rendered(self):
        clause = parse_clause(
            "transformation T1: X in CountryT <= E in CountryE;",
            classes=CLASSES)
        text = format_clause(clause)
        assert text.startswith("transformation T1:")

    def test_bodyless_clause(self):
        clause = parse_clause("X in CountryT;", classes=CLASSES)
        assert format_clause(clause).rstrip().endswith(";")

    def test_long_clause_wraps(self):
        clause = parse_clause(
            "X.capital = Y <= X in CountryT, Y in CityT,"
            " Y.place = ins_euro_city(X), E in CityE, E.name = Y.name,"
            " E.country.name = X.name, E.is_capital = true;",
            classes=CLASSES)
        text = format_clause(clause, width=40)
        assert len(text.splitlines()) > 2
        for line in text.splitlines():
            assert len(line) < 60


class TestRoundtrip:
    def test_integration_program_roundtrips(self):
        program = integration_program()
        reparsed = parse_program(format_program(program), classes=CLASSES)
        assert reparsed.clauses == program.clauses

    def test_term_str_roundtrips(self):
        from repro.lang import parse_term
        samples = [
            "X", '"Paris"', "42", "true", "()",
            "E.country.name",
            "ins_euro_city(X)",
            "ins_male()",
            "Mk_CountryT(N)",
            "Mk_CityT(country = C, name = N)",
            "(a = X, b = Y.c)",
        ]
        for text in samples:
            term = parse_term(text)
            assert parse_term(str(term)) == term

    def test_atom_str_roundtrips(self):
        from repro.lang import parse_atom
        samples = [
            "X = Y", "X != Y", "X < Y", "X =< Y",
            "X in CityA", "X in Y.cities",
            "Y.place = ins_euro_city(X)",
        ]
        for text in samples:
            atom = parse_atom(text, classes=CLASSES)
            assert parse_atom(str(atom), classes=CLASSES) == atom
