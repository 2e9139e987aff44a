"""Unit tests for WOL values (paper Section 2.1)."""

import copy
import pickle

import pytest

from repro.model import (BOOL, INT, STR, UNIT, UNIT_VALUE, ClassType,
                         ListType, Oid, Record, ValueError_, Variant, WolList,
                         WolSet,
                         check_value, format_value, oids_in,
                         record, set_of, variant)


class TestOid:
    def test_fresh_oids_are_distinct(self):
        first = Oid.fresh("CityA")
        second = Oid.fresh("CityA")
        assert first != second

    def test_keyed_oids_with_equal_keys_are_equal(self):
        assert Oid.keyed("CityT", "Paris") == Oid.keyed("CityT", "Paris")
        assert Oid.keyed("CityT", "Paris") != Oid.keyed("CityT", "Berlin")
        assert Oid.keyed("CityT", "Paris") != Oid.keyed("CountryT", "Paris")

    def test_keyed_oid_with_record_key(self):
        key = Record.of(name="Paris", country_name="France")
        assert Oid.keyed("CityT", key) == Oid.keyed("CityT", key)

    def test_oid_needs_exactly_one_of_key_or_serial(self):
        with pytest.raises(ValueError_):
            Oid("CityA")
        with pytest.raises(ValueError_):
            Oid("CityA", key="k", serial=1)

    def test_str_rendering(self):
        assert str(Oid.keyed("CityT", "Paris")) == '&CityT["Paris"]'
        anon = Oid.fresh("CityA")
        assert str(anon).startswith("&CityA#")


class TestRecordValue:
    def test_field_order_irrelevant(self):
        first = Record((("a", 1), ("b", 2)))
        second = Record((("b", 2), ("a", 1)))
        assert first == second
        assert hash(first) == hash(second)

    def test_get_and_has(self):
        rec = Record.of(name="London", population=9_000_000)
        assert rec.get("name") == "London"
        assert rec.has("population")
        assert not rec.has("area")

    def test_missing_field_raises(self):
        with pytest.raises(ValueError_):
            Record.of(a=1).get("b")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError_):
            Record((("a", 1), ("a", 2)))

    def test_with_field_adds_and_replaces(self):
        rec = Record.of(a=1)
        assert rec.with_field("b", 2) == Record.of(a=1, b=2)
        assert rec.with_field("a", 3) == Record.of(a=3)
        # Original untouched (immutability).
        assert rec == Record.of(a=1)


class TestVariantValue:
    def test_unit_variant_default(self):
        male = Variant("male")
        assert male.value == UNIT_VALUE
        assert str(male) == "ins_male()"

    def test_carried_value(self):
        v = Variant("euro_city", Oid.keyed("CountryT", "France"))
        assert v.label == "euro_city"
        assert str(v) == 'ins_euro_city(&CountryT["France"])'

    def test_equality(self):
        assert Variant("a", 1) == Variant("a", 1)
        assert Variant("a", 1) != Variant("b", 1)
        assert Variant("a", 1) != Variant("a", 2)


class TestCollections:
    def test_set_semantics(self):
        s = WolSet.of(1, 2, 2, 3)
        assert len(s) == 3
        assert 2 in s
        assert WolSet.of(3, 2, 1) == s

    def test_list_semantics(self):
        l = WolList.of(1, 2, 2)
        assert len(l) == 3
        assert list(l) == [1, 2, 2]
        assert WolList.of(1, 2, 2) == l
        assert WolList.of(2, 1, 2) != l

    def test_sets_of_records_hashable(self):
        s = WolSet.of(Record.of(a=1), Record.of(a=2))
        assert Record.of(a=1) in s


class TestCheckValue:
    def test_base_values(self):
        check_value(3, INT)
        check_value("x", STR)
        check_value(True, BOOL)
        check_value(UNIT_VALUE, UNIT)

    def test_bool_is_not_int(self):
        with pytest.raises(ValueError_):
            check_value(True, INT)
        with pytest.raises(ValueError_):
            check_value(1, BOOL)

    def test_oid_class_checked(self):
        check_value(Oid.fresh("CityA"), ClassType("CityA"))
        with pytest.raises(ValueError_):
            check_value(Oid.fresh("CityA"), ClassType("StateA"))

    def test_record_fields_checked(self):
        ty = record(name=STR, state=ClassType("StateA"))
        check_value(Record.of(name="P", state=Oid.fresh("StateA")), ty)
        with pytest.raises(ValueError_, match=r"has fields \['name'\], "
                           r"type .* expects \['name', 'state'\]$"):
            check_value(Record.of(name="P"), ty)  # missing field
        with pytest.raises(ValueError_, match=r"has fields \['extra', "
                           r"'name', 'state'\], type .* expects"):
            check_value(Record.of(name="P", state=Oid.fresh("StateA"),
                                  extra=1), ty)  # extra field
        with pytest.raises(ValueError_):
            check_value(Record.of(name=1, state=Oid.fresh("StateA")), ty)

    def test_variant_checked(self):
        ty = variant(male=UNIT, female=UNIT)
        check_value(Variant("male"), ty)
        with pytest.raises(ValueError_):
            check_value(Variant("other"), ty)
        with pytest.raises(ValueError_):
            check_value(Variant("male", 3), ty)

    def test_set_elements_checked(self):
        check_value(WolSet.of(1, 2), set_of(INT))
        with pytest.raises(ValueError_):
            check_value(WolSet.of(1, "x"), set_of(INT))
        with pytest.raises(ValueError_):
            check_value(WolList.of(1), set_of(INT))

    def test_list_elements_checked(self):
        check_value(WolList.of(1, 1, 2), ListType(INT))
        with pytest.raises(ValueError_):
            check_value(WolList.of(1, "x"), ListType(INT))
        with pytest.raises(ValueError_):
            check_value(WolSet.of(1), ListType(INT))

    def test_non_record_rejected_for_record_type(self):
        with pytest.raises(ValueError_):
            check_value("Paris", record(name=STR))

    def test_non_variant_rejected_for_variant_type(self):
        with pytest.raises(ValueError_):
            check_value("male", variant(male=UNIT, female=UNIT))


class TestOidTraversal:
    def test_oids_in_finds_nested_identities(self):
        a = Oid.fresh("A")
        b = Oid.fresh("B")
        value = Record.of(
            x=a, y=Variant("v", WolSet.of(b)), z=WolList.of(1, a))
        found = list(oids_in(value))
        assert found.count(a) == 2
        assert found.count(b) == 1


class TestFormatValue:
    def test_strings_quoted(self):
        assert format_value("x") == '"x"'

    def test_bools_lowercase(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"

    def test_record_rendering(self):
        assert format_value(Record.of(b=2, a=1)) == "(a = 1, b = 2)"


def _values():
    """One value of each class; the first two have their cached hash
    and rendering primed, as the engine's unchecked constructors do."""
    key = Record.presorted((("a", "x"), ("b", 1)))
    return [
        Oid.keyed_unchecked("Out", key), key,
        Oid.keyed("CityT", Record.of(name="Paris")), Oid.fresh("CityA"),
        Record.of(b=Oid.fresh("B"), a=WolList.of(1, 2)),
        Variant("v", WolSet.of(1)), Variant("u"),
        WolSet.of("p", "q"), WolList.of(True, 2.5),
    ]


COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "pickle-0": lambda value: pickle.loads(pickle.dumps(value, 0)),
    "deepcopy": copy.deepcopy,
}


class TestSlottedValues:
    """Values are slotted: each is one object with no ``__dict__``, and
    a copy carries no cached hash (``str`` hashes are salted per
    process) and no cached rendering."""

    @pytest.mark.parametrize("value", _values(),
                             ids=lambda value: type(value).__name__)
    def test_no_value_has_an_instance_dict(self, value):
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize("primed", [True, False])
    def test_a_copy_equals_the_original_and_carries_no_cache(
            self, how, primed):
        for value in _values():
            if primed:
                hash(value)
                str(value)
            copied = COPIES[how](value)
            assert copied == value and copied is not value
            assert not hasattr(copied, "_hash")
            assert not hasattr(copied, "_str")
            assert hash(copied) == hash(value)
            assert str(copied) == str(value)

    def test_an_unchecked_constructor_primes_the_hash(self):
        key = Record.presorted((("a", "x"),))
        assert key._hash == hash(Record.of(a="x"))
        assert Oid.keyed_unchecked("C", key)._hash == hash(
            Oid.keyed("C", Record.of(a="x")))
