"""Unit tests for instances, builders and well-formedness (Section 2.1)."""

import pytest

from repro.model import (STR, BOOL, ClassType, Instance, InstanceBuilder,
                         InstanceError, Oid, Record, Schema, empty_instance,
                         record)


def euro_schema() -> Schema:
    return Schema.of(
        "Euro",
        CityE=record(name=STR, is_capital=BOOL,
                     country=ClassType("CountryE")),
        CountryE=record(name=STR, language=STR, currency=STR))


def example_instance() -> Instance:
    """The instance of paper Example 2.2 (trimmed)."""
    builder = InstanceBuilder(euro_schema())
    uk = builder.new("CountryE", Record.of(
        name="United Kingdom", language="English", currency="sterling"))
    fr = builder.new("CountryE", Record.of(
        name="France", language="French", currency="franc"))
    builder.new("CityE", Record.of(
        name="London", country=uk, is_capital=True))
    builder.new("CityE", Record.of(
        name="Manchester", country=uk, is_capital=False))
    builder.new("CityE", Record.of(
        name="Paris", country=fr, is_capital=True))
    return builder.freeze()


class TestInstanceAccess:
    def test_sizes(self):
        inst = example_instance()
        assert inst.size() == 5
        assert inst.class_sizes() == {"CityE": 3, "CountryE": 2}

    def test_value_and_attribute(self):
        inst = example_instance()
        london = next(o for o in inst.objects_of("CityE")
                      if inst.attribute(o, "name") == "London")
        assert inst.attribute(london, "is_capital") is True
        country = inst.attribute(london, "country")
        assert inst.attribute(country, "name") == "United Kingdom"

    def test_missing_object_raises(self):
        inst = example_instance()
        with pytest.raises(InstanceError):
            inst.value_of(Oid.fresh("CityE"))

    def test_missing_class_raises(self):
        inst = example_instance()
        with pytest.raises(InstanceError):
            inst.objects_of("CityX")

    def test_attribute_of_non_record_object_raises(self):
        builder = InstanceBuilder(Schema.of("Tags", Tag=STR))
        tag = builder.new("Tag", "red")
        inst = builder.freeze()
        assert inst.value_of(tag) == "red"
        with pytest.raises(InstanceError):
            inst.attribute(tag, "name")

    def test_empty_instance(self):
        inst = empty_instance(euro_schema())
        assert inst.size() == 0
        assert inst.objects_of("CityE") == ()
        inst.validate()


class TestWellFormedness:
    def test_dangling_reference_rejected(self):
        builder = InstanceBuilder(euro_schema())
        ghost = Oid.fresh("CountryE")  # never inserted
        builder.new("CityE", Record.of(
            name="Atlantis", country=ghost, is_capital=False))
        with pytest.raises(InstanceError):
            builder.freeze()

    def test_type_mismatch_rejected(self):
        builder = InstanceBuilder(euro_schema())
        builder.new("CountryE", Record.of(name=42, language="x", currency="y"))
        with pytest.raises(InstanceError):
            builder.freeze()

    def test_missing_attribute_rejected(self):
        builder = InstanceBuilder(euro_schema())
        builder.new("CountryE", Record.of(name="France"))
        with pytest.raises(InstanceError):
            builder.freeze()

    def test_unknown_class_rejected_eagerly(self):
        builder = InstanceBuilder(euro_schema())
        with pytest.raises(InstanceError):
            builder.new("Planet", Record.of(name="Mars"))

    def test_oid_filed_under_wrong_class(self):
        schema = euro_schema()
        oid = Oid.fresh("CityE")
        inst = Instance(schema, {"CountryE": {
            oid: Record.of(name="x", language="y", currency="z")}})
        with pytest.raises(InstanceError):
            inst.validate()

    def test_instance_with_unknown_class_rejected(self):
        with pytest.raises(InstanceError):
            Instance(euro_schema(), {"Nope": {}})

    def test_freeze_without_validation_allows_dangling(self):
        builder = InstanceBuilder(euro_schema())
        ghost = Oid.fresh("CountryE")
        builder.new("CityE", Record.of(
            name="Atlantis", country=ghost, is_capital=False))
        inst = builder.freeze(validate=False)
        assert not inst.is_valid()


class TestBuilder:
    def test_make_is_idempotent(self):
        builder = InstanceBuilder(euro_schema())
        first = builder.make("CountryE", "France")
        second = builder.make("CountryE", "France")
        assert first == second
        assert len(builder.objects_of("CountryE")) == 1

    def test_make_conflicting_values_rejected(self):
        builder = InstanceBuilder(euro_schema())
        builder.make("CountryE", "France",
                     Record.of(name="France", language="French",
                               currency="franc"))
        with pytest.raises(InstanceError):
            builder.make("CountryE", "France",
                         Record.of(name="France", language="French",
                                   currency="euro"))

    def test_put_overwrites_and_reads_back(self):
        builder = InstanceBuilder(euro_schema())
        oid = builder.make("CountryE", "France")
        assert builder.has_object(oid)
        value = Record.of(name="France", language="French",
                          currency="euro")
        assert builder.put(oid, value) == oid
        assert builder.value_of(oid) == value
        assert builder.freeze().attribute(oid, "currency") == "euro"

    def test_builder_value_of_unknown_object_raises(self):
        builder = InstanceBuilder(euro_schema())
        ghost = Oid.keyed("CountryE", "Atlantis")
        assert not builder.has_object(ghost)
        assert not builder.has_object(Oid.keyed("Nowhere", "x"))
        with pytest.raises(InstanceError):
            builder.value_of(ghost)

    def test_builder_roundtrip(self):
        inst = example_instance()
        again = inst.builder().freeze()
        assert again.valuations == inst.valuations
