"""Unit tests for the WOL type system (paper Section 2.1)."""

import pytest

from repro.model import (BOOL, FLOAT, INT, STR, UNIT, BaseType, ClassType,
                         ListType, RecordType, TypeError_, VariantType,
                         parse_type, record, set_of, variant)


class TestBaseTypes:
    def test_singletons_have_expected_names(self):
        assert INT.name == "int"
        assert STR.name == "str"
        assert BOOL.name == "bool"
        assert FLOAT.name == "float"
        assert UNIT.name == "unit"

    def test_equality_is_by_name(self):
        assert BaseType("int") == INT
        assert BaseType("int") != STR

    def test_unknown_base_type_rejected(self):
        with pytest.raises(TypeError_):
            BaseType("complex")

    def test_base_types_are_ground_and_class_free(self):
        assert INT.is_ground()
        assert not INT.involves_class()


class TestClassTypes:
    def test_class_type_str(self):
        assert str(ClassType("CityA")) == "CityA"

    def test_invalid_class_name_rejected(self):
        with pytest.raises(TypeError_):
            ClassType("")
        with pytest.raises(TypeError_):
            ClassType("1City")

    def test_involves_class(self):
        assert ClassType("C").involves_class()
        assert set_of(ClassType("C")).involves_class()
        assert not set_of(INT).involves_class()


class TestRecordTypes:
    def test_field_order_is_irrelevant_for_equality(self):
        first = RecordType((("name", STR), ("age", INT)))
        second = RecordType((("age", INT), ("name", STR)))
        assert first == second
        assert hash(first) == hash(second)

    def test_field_access(self):
        ty = record(name=STR, age=INT)
        assert ty.field_type("name") == STR
        assert ty.has_field("age")
        assert not ty.has_field("height")

    def test_missing_field_raises(self):
        with pytest.raises(TypeError_):
            record(name=STR).field_type("age")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(TypeError_):
            RecordType((("a", INT), ("a", STR)))

    @pytest.mark.parametrize("label", ["", "1st", "-x"])
    def test_invalid_labels_rejected(self, label):
        with pytest.raises(TypeError_):
            RecordType(((label, INT),))
        with pytest.raises(TypeError_):
            VariantType(((label, INT),))

    def test_empty_record_is_unit_like(self):
        ty = RecordType(())
        assert ty.labels() == ()
        assert str(ty) == "()"

    def test_str_rendering(self):
        ty = record(name=STR, state=ClassType("StateA"))
        assert str(ty) == "(name: str, state: StateA)"


class TestVariantTypes:
    def test_choice_order_is_irrelevant_for_equality(self):
        first = VariantType((("male", UNIT), ("female", UNIT)))
        second = VariantType((("female", UNIT), ("male", UNIT)))
        assert first == second

    def test_choice_access(self):
        ty = variant(euro_city=ClassType("CountryT"),
                     us_city=ClassType("StateT"))
        assert ty.choice_type("euro_city") == ClassType("CountryT")
        assert ty.has_choice("us_city")
        assert not ty.has_choice("moon_city")

    def test_missing_choice_raises(self):
        with pytest.raises(TypeError_):
            variant(male=UNIT).choice_type("female")

    def test_empty_variant_rejected(self):
        with pytest.raises(TypeError_):
            VariantType(())

    def test_duplicate_choice_labels_rejected(self):
        with pytest.raises(TypeError_):
            VariantType((("a", INT), ("a", STR)))


class TestCompositeTypes:
    def test_set_and_list_children(self):
        assert set_of(INT).children() == (INT,)
        assert ListType(STR).children() == (STR,)

    def test_deep_nesting_walk(self):
        ty = set_of(record(cities=ListType(ClassType("CityA")),
                           tag=variant(a=INT, b=STR)))
        names = ty.class_names()
        assert names == ("CityA",)
        kinds = {type(node).__name__ for node in ty.walk()}
        assert {"SetType", "RecordType", "ListType", "ClassType",
                "VariantType", "BaseType"} <= kinds

    def test_class_names_deduplicated_in_order(self):
        ty = record(a=ClassType("X"), b=ClassType("Y"), c=ClassType("X"))
        assert ty.class_names() == ("X", "Y")


class TestParseType:
    @pytest.mark.parametrize("text,expected", [
        ("int", INT),
        ("str", STR),
        ("bool", BOOL),
        ("float", FLOAT),
        ("unit", UNIT),
        ("CityA", ClassType("CityA")),
        ("{int}", set_of(INT)),
        ("[str]", ListType(STR)),
        ("{CityA}", set_of(ClassType("CityA"))),
        ("()", RecordType(())),
        ("(name: str)", record(name=STR)),
        ("(name: str, state: StateA)",
         record(name=STR, state=ClassType("StateA"))),
        ("<<male: unit, female: unit>>", variant(male=UNIT, female=UNIT)),
    ])
    def test_parse_simple(self, text, expected):
        assert parse_type(text) == expected

    def test_parse_nested(self):
        ty = parse_type(
            "(name: str, place: <<euro_city: CountryT, us_city: StateT>>,"
            " tags: {str}, ranks: [int])")
        assert ty == record(
            name=STR,
            place=variant(euro_city=ClassType("CountryT"),
                          us_city=ClassType("StateT")),
            tags=set_of(STR),
            ranks=ListType(INT))

    def test_parse_roundtrips_via_str(self):
        samples = [
            "(name: str, state: StateA)",
            "<<euro_city: CountryT, us_city: StateT>>",
            "{(a: int, b: {str})}",
            "[<<l: unit, r: (x: float)>>]",
        ]
        for text in samples:
            ty = parse_type(text)
            assert parse_type(str(ty)) == ty

    @pytest.mark.parametrize("bad", [
        "", "(name str)", "(name:)", "{int", "<<>>", "(a: int) extra",
        "[", "123abc",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(TypeError_):
            parse_type(bad)

    def test_whitespace_insensitive(self):
        assert parse_type(" ( name : str ) ") == record(name=STR)
