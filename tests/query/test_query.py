"""Unit tests for the query layer."""

import pytest

from repro.model import Record
from repro.query import Query, QueryError
from repro.workloads import cities, persons


@pytest.fixture(scope="module")
def euro():
    return cities.sample_euro_instance()


CLASSES = cities.euro_schema().schema.class_names()


class TestParse:
    def test_projection_and_body(self):
        q = Query.parse("N | X in CityE, N = X.name", classes=CLASSES)
        assert q.projection == ("N",)
        assert len(q.body) == 2

    def test_star_means_all(self):
        q = Query.parse("* | X in CityE, N = X.name", classes=CLASSES)
        assert q.projection == ()
        assert set(q.variables()) == {"X", "N"}

    def test_no_projection_defaults_to_all(self):
        q = Query.parse("X in CityE", classes=CLASSES)
        assert q.projection == ()

    def test_trailing_semicolon_tolerated(self):
        q = Query.parse("N | X in CityE, N = X.name;", classes=CLASSES)
        assert q.projection == ("N",)

    def test_unknown_projection_rejected(self):
        with pytest.raises(QueryError):
            Query.parse("Z | X in CityE", classes=CLASSES)

    def test_unsafe_body_rejected(self):
        with pytest.raises(QueryError):
            Query.parse("N | X in CityE, X.name < N", classes=CLASSES)

    def test_empty_body_rejected(self):
        with pytest.raises(QueryError):
            Query.parse("N | ", classes=CLASSES)

    def test_syntax_error_reported(self):
        with pytest.raises(QueryError):
            Query.parse("N | X in in CityE", classes=CLASSES)


class TestRun:
    def test_filter_and_project(self, euro):
        q = Query.parse("N | X in CityE, X.is_capital = true, N = X.name",
                        classes=CLASSES)
        rows = list(q.run(euro))
        assert sorted(r["N"] for r in rows) == [
            "Berlin", "London", "Paris"]

    def test_join_through_reference(self, euro):
        q = Query.parse('N | X in CityE, X.country.name = "France",'
                        ' N = X.name', classes=CLASSES)
        rows = list(q.run(euro))
        assert sorted(r["N"] for r in rows) == ["Lyon", "Paris"]

    def test_cross_class_join(self, euro):
        q = Query.parse("CN | X in CityE, C in CountryE, X.country = C,"
                        " X.is_capital = true, CN = C.name",
                        classes=CLASSES)
        rows = list(q.run(euro))
        assert len(rows) == 3

    def test_variant_patterns(self):
        source = persons.sample_instance()
        q = Query.parse("N | P in Person, P.sex = ins_male(), N = P.name",
                        classes=source.schema.class_names())
        rows = list(q.run(source))
        assert sorted(r["N"] for r in rows) == ["Adam", "Carl", "Evan"]

    def test_rows_are_projected(self, euro):
        q = Query.parse("N | X in CityE, N = X.name", classes=CLASSES)
        rows = list(q.run(euro))
        assert all(set(row) == {"N"} for row in rows)
        # One row per binding: projection keeps duplicates.
        q = Query.parse("L | C in CountryE, L = C.language",
                        classes=CLASSES)
        builder = euro.builder()
        builder.new("CountryE", Record.of(
            name="Austria", language="German", currency="schilling"))
        rows = list(q.run(builder.freeze()))
        assert len(rows) == 4
        assert len({row["L"] for row in rows}) == 3
