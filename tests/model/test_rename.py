"""Unit tests for class renaming across schemas and instances."""

from repro.model import (STR, ClassType, InstanceBuilder, Oid, Record, Schema,
                         WolSet, record, set_of, variant)
from repro.model.rename import (rename_instance_classes,
                                rename_keyed_schema, rename_schema,
                                rename_type)
from repro.workloads import cities


class TestRenameType:
    def test_class_reference(self):
        assert rename_type(ClassType("A"), {"A": "B"}) == ClassType("B")

    def test_nested_references(self):
        ty = record(x=set_of(ClassType("A")),
                    y=variant(l=ClassType("A"), r=STR))
        renamed = rename_type(ty, {"A": "B"})
        assert renamed == record(x=set_of(ClassType("B")),
                                 y=variant(l=ClassType("B"), r=STR))

    def test_unmapped_untouched(self):
        assert rename_type(ClassType("A"), {"X": "Y"}) == ClassType("A")


class TestRenameSchema:
    def test_classes_and_references(self):
        schema = Schema.of(
            "S",
            City=record(name=STR, state=ClassType("State")),
            State=record(name=STR))
        renamed = rename_schema(schema, {"State": "Region"})
        assert renamed.class_names() == ("City", "Region")
        assert renamed.attribute_type("City", "state") == ClassType(
            "Region")

    def test_keyed_schema(self):
        renamed = rename_keyed_schema(cities.euro_schema(),
                                      {"CountryE": "Nation"})
        assert renamed.keys.has_key("Nation")
        assert not renamed.keys.has_key("CountryE")


class TestRenameInstance:
    def test_plain_rename(self):
        schema = Schema.of("S", A=record(name=STR))
        builder = InstanceBuilder(schema)
        builder.new("A", Record.of(name="x"))
        renamed = rename_instance_classes(builder.freeze(), {"A": "B"})
        renamed.validate()
        assert renamed.class_sizes() == {"B": 1}

    def test_references_follow(self):
        schema = Schema.of(
            "S",
            City=record(name=STR, state=ClassType("State")),
            State=record(name=STR))
        builder = InstanceBuilder(schema)
        state = builder.new("State", Record.of(name="PA"))
        builder.new("City", Record.of(name="Phila", state=state))
        renamed = rename_instance_classes(builder.freeze(),
                                          {"State": "Region"})
        renamed.validate()
        (city,) = renamed.objects_of("City")
        assert renamed.attribute(city, "state").class_name == "Region"

    def test_keyed_identities_rekeyed_recursively(self):
        # A keyed oid whose key embeds another keyed oid of a renamed
        # class: both must be rewritten consistently.
        schema = Schema.of(
            "S",
            Country=record(name=STR),
            City=record(name=STR, country=ClassType("Country")))
        builder = InstanceBuilder(schema)
        country = Oid.keyed("Country", "France")
        builder.put(country, Record.of(name="France"))
        city = Oid.keyed("City", Record.of(name="Paris", country=country))
        builder.put(city, Record.of(name="Paris", country=country))
        renamed = rename_instance_classes(builder.freeze(),
                                          {"Country": "Nation"})
        renamed.validate()
        (new_city,) = renamed.objects_of("City")
        assert new_city.key.get("country") == Oid.keyed("Nation", "France")

    def test_values_inside_collections(self):
        schema = Schema.of(
            "S",
            Team=record(members=set_of(ClassType("Player"))),
            Player=record(name=STR))
        builder = InstanceBuilder(schema)
        player = builder.new("Player", Record.of(name="p"))
        builder.new("Team", Record.of(members=WolSet.of(player)))
        renamed = rename_instance_classes(builder.freeze(),
                                          {"Player": "Athlete"})
        renamed.validate()
        (team,) = renamed.objects_of("Team")
        (member,) = renamed.attribute(team, "members")
        assert member.class_name == "Athlete"

    def test_identity_rename_preserves_structure(self):
        instance = cities.sample_euro_instance()
        renamed = rename_instance_classes(instance, {})
        assert renamed.valuations == instance.valuations
