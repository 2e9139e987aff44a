"""Unit tests for surrogate keys (paper Section 2.2, Example 2.3)."""

import pytest

from repro.model import (BOOL, STR, ClassType, InstanceBuilder, KeyError_,
                         KeyFunction, KeySpec, KeyedSchema, Record, Schema,
                         attribute_key, attributes_key, key_violations,
                         record, set_of)


def euro_schema() -> Schema:
    return Schema.of(
        "Euro",
        CityE=record(name=STR, is_capital=BOOL,
                     country=ClassType("CountryE")),
        CountryE=record(name=STR, language=STR, currency=STR))


def euro_keys(schema: Schema) -> KeySpec:
    """Example 2.3: countries keyed by name, cities by (name, country name)."""
    return KeySpec({
        "CountryE": attribute_key(schema, "CountryE", "name"),
        "CityE": attributes_key(schema, "CityE", ("name", "country.name")),
    })


def build(schema, cities, countries):
    builder = InstanceBuilder(schema)
    oids = {}
    for name, lang, cur in countries:
        oids[name] = builder.new("CountryE", Record.of(
            name=name, language=lang, currency=cur))
    for name, country, capital in cities:
        builder.new("CityE", Record.of(
            name=name, country=oids[country], is_capital=capital))
    return builder.freeze()


class TestKeyFunctions:
    def test_single_attribute_key_value(self):
        schema = euro_schema()
        inst = build(schema, [], [("France", "French", "franc")])
        fn = attribute_key(schema, "CountryE", "name")
        (oid,) = inst.objects_of("CountryE")
        assert fn.apply(inst, oid) == "France"

    def test_multi_attribute_key_follows_references(self):
        """K^CityE(c) = (name = c.name, country_name = c.country.name)."""
        schema = euro_schema()
        inst = build(schema, [("Paris", "France", True)],
                     [("France", "French", "franc")])
        fn = attributes_key(schema, "CityE", ("name", "country.name"))
        (oid,) = inst.objects_of("CityE")
        assert fn.apply(inst, oid) == Record.of(
            name="Paris", country_name="France")

    def test_key_type_computed(self):
        schema = euro_schema()
        fn = attributes_key(schema, "CityE", ("name", "country.name"))
        ty = fn.key_type(schema)
        assert ty == record(name=STR, country_name=STR)

    def test_key_type_must_be_class_free(self):
        schema = euro_schema()
        with pytest.raises(KeyError_):
            attribute_key(schema, "CityE", "country")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(KeyError_):
            attribute_key(euro_schema(), "CityE", "mayor")

    def test_empty_components_rejected(self):
        with pytest.raises(KeyError_):
            KeyFunction("CityE", ())

    def test_multi_component_needs_labels(self):
        with pytest.raises(KeyError_):
            KeyFunction("CityE", ((None, ("name",)), (None, ("x",))))

    def test_duplicate_component_labels_rejected(self):
        with pytest.raises(KeyError_):
            KeyFunction("CityE", (("n", ("name",)), ("n", ("country",))))

    def test_empty_path_rejected(self):
        fn = KeyFunction("CountryE", ((None, ()),))
        with pytest.raises(KeyError_):
            fn.key_type(euro_schema())

    def test_projection_from_base_value_rejected(self):
        with pytest.raises(KeyError_):
            attribute_key(euro_schema(), "CountryE", "name.first")

    def test_component_type_may_not_nest_a_class(self):
        schema = Schema.of(
            "Nested",
            Country=record(name=STR),
            Union=record(name=STR, members=set_of(ClassType("Country"))))
        with pytest.raises(KeyError_):
            attribute_key(schema, "Union", "members")

    def test_apply_through_base_value_rejected(self):
        schema = euro_schema()
        inst = build(schema, [], [("France", "French", "franc")])
        (oid,) = inst.objects_of("CountryE")
        # key_type would refuse this path; apply checks it on its own
        fn = KeyFunction("CountryE", ((None, ("name", "first")),))
        with pytest.raises(KeyError_):
            fn.apply(inst, oid)

    def test_str_rendering(self):
        schema = euro_schema()
        fn = attribute_key(schema, "CountryE", "name")
        assert "K^CountryE" in str(fn)


class TestKeySatisfaction:
    def test_satisfied(self):
        schema = euro_schema()
        inst = build(
            schema,
            [("Paris", "France", True), ("London", "UK", True),
             ("Paris", "UK", False)],  # a second Paris, different country
            [("France", "French", "franc"), ("UK", "English", "sterling")])
        assert not key_violations(inst, euro_keys(schema))

    def test_violated_by_duplicate_country_names(self):
        schema = euro_schema()
        builder = InstanceBuilder(schema)
        builder.new("CountryE", Record.of(
            name="France", language="French", currency="franc"))
        builder.new("CountryE", Record.of(
            name="France", language="French", currency="euro"))
        inst = builder.freeze()
        violations = key_violations(inst, euro_keys(schema))
        assert len(violations) == 1
        assert violations[0].class_name == "CountryE"
        assert violations[0].key_value == "France"
        assert key_violations(inst, euro_keys(schema))

    def test_same_city_name_in_different_countries_ok(self):
        schema = euro_schema()
        inst = build(
            schema,
            [("Paris", "France", True), ("Paris", "UK", False)],
            [("France", "French", "franc"), ("UK", "English", "sterling")])
        assert not key_violations(inst, euro_keys(schema))

    def test_same_city_name_same_country_violates(self):
        schema = euro_schema()
        inst = build(
            schema,
            [("Paris", "France", True), ("Paris", "France", False)],
            [("France", "French", "franc")])
        assert key_violations(inst, euro_keys(schema))

    def test_keys_for_absent_classes_ignored(self):
        schema = euro_schema()
        other = Schema.of("Other", Thing=record(name=STR))
        spec = KeySpec({"Thing": attribute_key(other, "Thing", "name")})
        inst = build(schema, [], [])
        assert not key_violations(inst, spec)


class TestKeyedSchema:
    def test_valid_keyed_schema(self):
        schema = euro_schema()
        keyed = KeyedSchema(schema, euro_keys(schema))
        assert keyed.name == "Euro"
        assert "K^CountryE" in str(keyed)

    def test_unknown_class_in_spec_rejected(self):
        schema = euro_schema()
        other = Schema.of("Other", Thing=record(name=STR))
        spec = KeySpec({"Thing": attribute_key(other, "Thing", "name")})
        with pytest.raises(KeyError_):
            KeyedSchema(schema, spec)

    def test_key_for_unkeyed_class_raises(self):
        spec = euro_keys(euro_schema())
        assert spec.classes() == ("CityE", "CountryE")
        assert not spec.has_key("Mayor")
        with pytest.raises(KeyError_):
            spec.key_for("Mayor")

    def test_misregistered_function_rejected(self):
        schema = euro_schema()
        fn = attribute_key(schema, "CountryE", "name")
        with pytest.raises(KeyError_):
            KeySpec({"CityE": fn})
