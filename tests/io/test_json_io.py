"""Unit tests for JSON serialisation of schemas and instances."""

import json

import pytest

from repro.io import (JsonIoError, dump_instance, instance_from_json,
                      instance_to_json, load_instance, schema_from_json,
                      schema_to_json, value_from_json, value_to_json)
from repro.model import (KeyedSchema, Oid, Record, Schema, UNIT_VALUE,
                         Variant, WolList, WolSet, isomorphic)
from repro.workloads import cities, genome, persons


class TestValueRoundtrip:
    @pytest.mark.parametrize("value", [
        42, -1, 2.5, True, False, "text", "", UNIT_VALUE,
        Record.of(a=1, b="x"),
        Variant("male"),
        Variant("tag", Record.of(x=1)),
        WolSet.of(1, 2, 3),
        WolSet.of(),
        WolList.of("a", "b", "a"),
        Oid.keyed("CityT", "Paris"),
        Oid.keyed("CityT", Record.of(name="Paris", cn="France")),
        Record.of(nested=WolSet.of(Variant("v", WolList.of(1)))),
    ])
    def test_roundtrip(self, value):
        encoded = value_to_json(value)
        json.dumps(encoded)  # must be JSON-compatible
        assert value_from_json(encoded) == value

    def test_bool_int_distinction_preserved(self):
        assert value_from_json(value_to_json(True)) is True
        assert value_from_json(value_to_json(1)) == 1

    def test_anonymous_oid_roundtrip(self):
        oid = Oid.fresh("CityA")
        assert value_from_json(value_to_json(oid)) == oid

    def test_bad_data_rejected(self):
        with pytest.raises(JsonIoError):
            value_from_json({"$nope": 1})
        with pytest.raises(JsonIoError):
            value_from_json(None)
        with pytest.raises(JsonIoError, match="no key, label or serial"):
            instance_from_json({"objects": {"CityE": [
                {"id": {"$oid": "CityE"}, "value": 1}]}},
                schema=cities.euro_schema().schema)


class TestSchemaRoundtrip:
    def test_plain_schema(self):
        schema = cities.target_schema().schema
        decoded = schema_from_json(schema_to_json(schema))
        assert isinstance(decoded, Schema)
        assert decoded.classes == schema.classes

    def test_keyed_schema(self):
        keyed = cities.euro_schema()
        decoded = schema_from_json(schema_to_json(keyed))
        assert isinstance(decoded, KeyedSchema)
        assert decoded.schema.classes == keyed.schema.classes
        assert (decoded.keys.key_for("CityE").components
                == keyed.keys.key_for("CityE").components)

    def test_missing_fields_rejected(self):
        with pytest.raises(JsonIoError):
            schema_from_json({"name": "X"})


class TestInstanceRoundtrip:
    @pytest.mark.parametrize("instance_factory", [
        cities.sample_euro_instance,
        cities.sample_us_instance,
        persons.sample_instance,
        genome.source_instance,
    ])
    def test_roundtrip_isomorphic(self, instance_factory):
        instance = instance_factory()
        data = instance_to_json(instance)
        json.dumps(data)
        back = instance_from_json(data)
        back.validate()
        assert isomorphic(instance, back)

    def test_keyed_oids_roundtrip_identically(self):
        # Transformation outputs use keyed oids: equality, not just
        # isomorphism.
        from repro.morphase import Morphase
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        target = morphase.transform([cities.sample_us_instance(),
                                     cities.sample_euro_instance()]).target
        back = instance_from_json(instance_to_json(target))
        assert back.valuations == target.valuations

    def test_dump_is_deterministic(self):
        instance = cities.sample_euro_instance()
        first = json.dumps(instance_to_json(instance), sort_keys=True)
        second = json.dumps(instance_to_json(instance), sort_keys=True)
        assert first == second

    def test_anonymous_references_stay_consistent(self):
        instance = persons.sample_instance()  # anonymous oids, cyclic
        back = instance_from_json(instance_to_json(instance))
        for person in back.objects_of("Person"):
            spouse = back.attribute(person, "spouse")
            assert back.attribute(spouse, "spouse") == person

    def test_file_roundtrip(self, tmp_path):
        instance = cities.sample_euro_instance()
        path = tmp_path / "euro.json"
        dump_instance(instance, str(path))
        loaded = load_instance(str(path))
        assert isomorphic(instance, loaded)

    def test_explicit_schema_override(self):
        instance = cities.sample_euro_instance()
        data = instance_to_json(instance)
        back = instance_from_json(data,
                                  schema=cities.euro_schema().schema)
        assert isomorphic(instance, back)
