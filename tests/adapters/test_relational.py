"""Unit tests for the relational substrate and adapter."""

import pytest

from repro.adapters import (Column, RelationalDatabase, RelationalError,
                            TableSchema, export_instance)
from repro.model import (ClassType, InstanceBuilder, Oid, Record, STR, INT,
                         Schema, WolSet, record, set_of)


def city_tables():
    return [
        TableSchema("Country", (
            Column("name", "str"),
            Column("language", "str"),
        ), ("name",)),
        TableSchema("City", (
            Column("name", "str"),
            Column("country", "str", references="Country"),
            Column("population", "int"),
        ), ("name",)),
    ]


def populated():
    db = RelationalDatabase("Cities", city_tables())
    db.insert("Country", name="France", language="French")
    db.insert("Country", name="Spain", language="Spanish")
    db.insert("City", name="Paris", country="France", population=2_000_000)
    db.insert("City", name="Lyon", country="France", population=500_000)
    db.insert("City", name="Madrid", country="Spain", population=3_000_000)
    return db


class TestSubstrate:
    def test_insert_and_lookup(self):
        db = populated()
        row = db.table("Country").lookup("France")
        assert row["language"] == "French"

    def test_duplicate_primary_key_rejected(self):
        db = populated()
        with pytest.raises(RelationalError):
            db.insert("Country", name="France", language="Occitan")

    def test_wrong_columns_rejected(self):
        db = populated()
        with pytest.raises(RelationalError):
            db.insert("Country", name="Italy")

    def test_type_mismatch_rejected(self):
        db = populated()
        with pytest.raises(RelationalError):
            db.insert("Country", name="Italy", language=42)

    def test_bool_is_not_int(self):
        tables = [TableSchema("T", (Column("k", "str"),
                                    Column("n", "int")), ("k",))]
        db = RelationalDatabase("D", tables)
        with pytest.raises(RelationalError):
            db.insert("T", k="a", n=True)

    def test_foreign_key_checking(self):
        db = populated()
        assert db.check_foreign_keys() == []
        db.insert("City", name="Ghost", country="Atlantis", population=0)
        assert len(db.check_foreign_keys()) == 1

    def test_fk_to_unknown_table_rejected(self):
        with pytest.raises(RelationalError):
            RelationalDatabase("Bad", [
                TableSchema("City", (
                    Column("name", "str"),
                    Column("country", "str", references="Nowhere"),
                ), ("name",))])

    def test_composite_pk_not_referencable(self):
        with pytest.raises(RelationalError):
            RelationalDatabase("Bad", [
                TableSchema("Pair", (Column("a", "str"),
                                     Column("b", "str")), ("a", "b")),
                TableSchema("Ref", (
                    Column("k", "str"),
                    Column("p", "str", references="Pair"),
                ), ("k",))])


class TestSchemaChecks:
    def test_unknown_column_type_rejected(self):
        with pytest.raises(RelationalError):
            Column("born", "date")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(RelationalError):
            TableSchema("T", (Column("k", "str"), Column("k", "int")),
                        ("k",))

    def test_primary_key_column_must_exist(self):
        with pytest.raises(RelationalError):
            TableSchema("T", (Column("k", "str"),), ("id",))

    def test_primary_key_required(self):
        with pytest.raises(RelationalError):
            TableSchema("T", (Column("k", "str"),), ())

    def test_duplicate_table_rejected(self):
        with pytest.raises(RelationalError):
            RelationalDatabase("Twice", city_tables()[:1] * 2)

    def test_unknown_table_rejected(self):
        db = populated()
        with pytest.raises(RelationalError):
            db.table("Region")
        with pytest.raises(RelationalError):
            db.insert("Region", name="Brittany")

    def test_lookup_of_absent_key_rejected(self):
        with pytest.raises(RelationalError):
            populated().table("Country").lookup("Italy")


def city_instance():
    """The rows of :func:`populated` as keyed WOL objects."""
    schema = Schema.of(
        "Cities",
        Country=record(name=STR, language=STR),
        City=record(name=STR, country=ClassType("Country"),
                    population=INT))
    builder = InstanceBuilder(schema)
    for name, language in [("France", "French"), ("Spain", "Spanish")]:
        builder.put(Oid.keyed("Country", name),
                    Record.of(name=name, language=language))
    for name, country, population in [("Paris", "France", 2_000_000),
                                      ("Lyon", "France", 500_000),
                                      ("Madrid", "Spain", 3_000_000)]:
        builder.put(Oid.keyed("City", name), Record.of(
            name=name, country=Oid.keyed("Country", country),
            population=population))
    return builder.freeze()


class TestExport:
    def test_export(self):
        instance = city_instance()
        exported = export_instance(instance, city_tables())
        assert exported.check_foreign_keys() == []
        assert {n: len(t) for n, t in exported.tables.items()} == {
            "City": 3, "Country": 2}
        assert exported.table("City").lookup("Paris")["country"] == "France"

    def test_export_rejects_missing_column(self):
        instance = city_instance()
        tables = city_tables()
        tables[0] = TableSchema("Country", (
            Column("name", "str"),
            Column("language", "str"),
            Column("continent", "str"),
        ), ("name",))
        with pytest.raises(RelationalError):
            export_instance(instance, tables)

    def test_export_rejects_anonymous_references(self):
        schema = Schema.of(
            "D",
            Country=record(name=STR, language=STR),
            City=record(name=STR, country=ClassType("Country"),
                        population=INT))
        builder = InstanceBuilder(schema)
        anon = builder.new("Country", Record.of(
            name="France", language="French"))
        builder.new("City", Record.of(
            name="Paris", country=anon, population=1))
        with pytest.raises(RelationalError):
            export_instance(builder.freeze(), city_tables())

    def test_export_rejects_table_without_class(self):
        tables = city_tables() + [
            TableSchema("Region", (Column("name", "str"),), ("name",))]
        with pytest.raises(RelationalError):
            export_instance(city_instance(), tables)

    def test_export_rejects_composite_key_references(self):
        schema = Schema.of(
            "D",
            Country=record(name=STR, language=STR),
            City=record(name=STR, country=ClassType("Country"),
                        population=INT))
        builder = InstanceBuilder(schema)
        country = builder.put(
            Oid.keyed("Country", Record.of(name="France", zone="EU")),
            Record.of(name="France", language="French"))
        builder.put(Oid.keyed("City", "Paris"), Record.of(
            name="Paris", country=country, population=1))
        with pytest.raises(RelationalError):
            export_instance(builder.freeze(), city_tables())

    def test_export_rejects_non_scalar_values(self):
        schema = Schema.of(
            "D", Country=record(name=STR, language=set_of(STR)))
        builder = InstanceBuilder(schema)
        builder.put(Oid.keyed("Country", "Belgium"), Record.of(
            name="Belgium", language=WolSet.of("Dutch", "French")))
        with pytest.raises(RelationalError):
            export_instance(builder.freeze(), city_tables()[:1])
