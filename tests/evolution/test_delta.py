"""Unit tests for the first-class instance delta model."""

import json

import pytest

from repro.evolution.delta import (Delta, DeltaError, compose_deltas,
                                   delta_between, delta_from_json,
                                   delta_to_json, load_delta)
from repro.io.json_io import instance_to_json
from repro.model import Record, WolSet, parse_schema
from repro.model.instance import InstanceBuilder
from repro.model.values import Oid

SCHEMA = parse_schema("""
schema Shop {
  class Product = (sku: str, label: str, price: int) key sku;
  class Vendor  = (name: str, products: {Product}) key name;
}
""")


def product(sku, label="thing", price=1):
    return Oid.keyed("Product", Record.of(sku=sku)), Record.of(
        sku=sku, label=label, price=price)


def base_instance():
    builder = InstanceBuilder(SCHEMA.schema)
    p1, v1 = product("S1", "Widget", 10)
    p2, v2 = product("S2", "Gadget", 20)
    builder.put(p1, v1)
    builder.put(p2, v2)
    builder.put(Oid.keyed("Vendor", Record.of(name="Acme")),
                Record.of(name="Acme", products=WolSet.of(p1, p2)))
    return builder.freeze()


class TestDeltaModel:
    def test_empty_delta(self):
        delta = Delta()
        assert delta.is_empty()
        assert delta.size() == 0
        assert delta.classes() == frozenset()

    def test_shape_accessors(self):
        p3, v3 = product("S3")
        p1, v1 = product("S1", "Widget v2", 11)
        p2, _ = product("S2")
        delta = Delta(inserts={"Product": {p3: v3}},
                      updates={"Product": {p1: v1}},
                      deletes={"Product": (p2,)})
        assert delta.size() == 3
        assert delta.classes() == frozenset({"Product"})
        assert set(delta.removed("Product")) == {p1, p2}
        assert set(delta.added("Product")) == {p1, p3}
        assert "1 insert(s), 1 update(s), 1 delete(s)" in delta.summary()

    def test_wrong_class_filing_rejected(self):
        p1, v1 = product("S1")
        with pytest.raises(DeltaError):
            Delta(inserts={"Vendor": {p1: v1}})

    def test_wrong_class_filing_of_a_delete_rejected(self):
        p1, _ = product("S1")
        with pytest.raises(DeltaError):
            Delta(deletes={"Vendor": (p1,)})

    def test_overlapping_groups_rejected(self):
        p1, v1 = product("S1")
        with pytest.raises(DeltaError):
            Delta(inserts={"Product": {p1: v1}},
                  deletes={"Product": (p1,)})

    def test_duplicate_deletes_rejected(self):
        p1, _ = product("S1")
        with pytest.raises(DeltaError):
            Delta(deletes={"Product": (p1, p1)})


class TestApplication:
    def test_apply_insert_update_delete(self):
        instance = base_instance()
        p3, v3 = product("S3", "New", 30)
        p1, v1_new = product("S1", "Widget v2", 12)
        p2, _ = product("S2")
        vendor = next(iter(instance.objects_of("Vendor")))
        vendor_value = Record.of(name="Acme", products=WolSet.of(p1, p3))
        delta = Delta(inserts={"Product": {p3: v3}},
                      updates={"Product": {p1: v1_new},
                               "Vendor": {vendor: vendor_value}},
                      deletes={"Product": (p2,)})
        updated = delta.apply_to(instance)
        assert updated.class_sizes() == {"Product": 2, "Vendor": 1}
        assert updated.value_of(p1) == v1_new
        assert updated.value_of(p3) == v3
        assert not updated.has_object(p2)
        # The original instance is untouched.
        assert instance.has_object(p2)
        assert instance.value_of(p1).get("price") == 10

    def test_insert_existing_rejected(self):
        p1, v1 = product("S1")
        with pytest.raises(DeltaError):
            Delta(inserts={"Product": {p1: v1}}).apply_to(base_instance())

    def test_delete_missing_rejected(self):
        p9, _ = product("S9")
        with pytest.raises(DeltaError):
            Delta(deletes={"Product": (p9,)}).apply_to(base_instance())

    def test_update_missing_rejected(self):
        p9, v9 = product("S9")
        with pytest.raises(DeltaError):
            Delta(updates={"Product": {p9: v9}}).apply_to(base_instance())

    def test_unknown_class_rejected(self):
        oid = Oid.keyed("Brand", "b")
        with pytest.raises(DeltaError):
            Delta(deletes={"Brand": (oid,)}).apply_to(base_instance())

    def test_changed_value_validation(self):
        p1, _ = product("S1")
        bad = Record.of(sku="S1", label="x")  # missing price
        with pytest.raises(DeltaError):
            Delta(updates={"Product": {p1: bad}}).apply_to(base_instance())

    def test_dangling_insert_reference_rejected(self):
        ghost, _ = product("S9")
        vendor = Oid.keyed("Vendor", Record.of(name="New"))
        value = Record.of(name="New", products=WolSet.of(ghost))
        with pytest.raises(DeltaError):
            Delta(inserts={"Vendor": {vendor: value}}).apply_to(
                base_instance())

    def test_invert_round_trip(self):
        instance = base_instance()
        p3, v3 = product("S3", "New", 30)
        p1, v1_new = product("S1", "Widget v2", 12)
        p2, _ = product("S2")
        vendor = next(iter(instance.objects_of("Vendor")))
        delta = Delta(inserts={"Product": {p3: v3}},
                      updates={"Product": {p1: v1_new},
                               "Vendor": {vendor: Record.of(
                                   name="Acme",
                                   products=WolSet.of(p1, p3))}},
                      deletes={"Product": (p2,)})
        updated = delta.apply_to(instance)
        restored = delta.invert(instance).apply_to(updated,
                                                   validate_changed=False)
        assert restored.valuations == instance.valuations


class TestDeltaBetween:
    def test_recovers_all_change_kinds(self):
        instance = base_instance()
        p3, v3 = product("S3")
        p1, v1_new = product("S1", "renamed", 10)
        p2, _ = product("S2")
        vendor = next(iter(instance.objects_of("Vendor")))
        original = Delta(inserts={"Product": {p3: v3}},
                         updates={"Product": {p1: v1_new},
                                  "Vendor": {vendor: Record.of(
                                      name="Acme",
                                      products=WolSet.of(p1, p3))}},
                         deletes={"Product": (p2,)})
        updated = original.apply_to(instance)
        recovered = delta_between(instance, updated)
        assert recovered.apply_to(instance).valuations \
            == updated.valuations
        assert set(recovered.deletes["Product"]) == {p2}
        assert recovered.inserts["Product"] == {p3: v3}
        assert set(recovered.updates["Product"]) == {p1}

    def test_identical_instances_give_empty_delta(self):
        instance = base_instance()
        assert delta_between(instance, instance).is_empty()


    def test_instances_of_different_schemas_refused(self):
        other = parse_schema("""
            schema Shop {
              class Product = (sku: str, label: str, price: int) key sku;
            }
        """)
        with pytest.raises(DeltaError):
            delta_between(base_instance(),
                          InstanceBuilder(other.schema).freeze())

class TestJsonRoundTrip:
    def test_keyed_round_trip(self, tmp_path):
        instance = base_instance()
        p3, v3 = product("S3")
        p1, v1_new = product("S1", "v2", 99)
        p2, _ = product("S2")
        delta = Delta(inserts={"Product": {p3: v3}},
                      updates={"Product": {p1: v1_new}},
                      deletes={"Product": (p2,)})
        path = tmp_path / "delta.json"
        path.write_text(json.dumps(delta_to_json(delta)))
        loaded = load_delta(str(path))
        assert loaded == delta
        assert loaded.apply_to(instance).valuations \
            == delta.apply_to(instance).valuations

    def test_label_addressing_resolves_against_instance(self):
        schema = parse_schema(
            "schema S { class Item = (name: str) key name; }").schema
        builder = InstanceBuilder(schema)
        builder.new("Item", Record.of(name="b"))
        builder.new("Item", Record.of(name="a"))
        instance = builder.freeze()
        # Labels follow the dump order of instance_to_json.
        dumped = instance_to_json(instance)
        labels = [entry["id"]["label"] for entry in dumped["objects"]["Item"]]
        data = {"deletes": {"Item": [{"$oid": "Item", "label": labels[0]}]},
                "updates": {"Item": [{
                    "id": {"$oid": "Item", "label": labels[1]},
                    "value": {"$rec": {"name": "renamed"}}}]}}
        delta = delta_from_json(data, instance)
        updated = delta.apply_to(instance)
        assert updated.class_sizes() == {"Item": 1}
        remaining = next(iter(updated.objects_of("Item")))
        assert updated.value_of(remaining) == Record.of(name="renamed")

    def test_fresh_label_creates_new_object(self):
        schema = parse_schema(
            "schema S { class Item = (name: str) key name; }").schema
        builder = InstanceBuilder(schema)
        builder.new("Item", Record.of(name="a"))
        instance = builder.freeze()
        data = {"inserts": {"Item": [{
            "id": {"$oid": "Item", "label": "Item#new"},
            "value": {"$rec": {"name": "b"}}}]}}
        delta = delta_from_json(data, instance)
        assert delta.apply_to(instance).class_sizes() == {"Item": 2}

    def test_json_shape_is_sorted_and_stable(self):
        p1, v1 = product("S1")
        delta = Delta(updates={"Product": {p1: v1}})
        first = json.dumps(delta_to_json(delta), sort_keys=True)
        second = json.dumps(delta_to_json(delta), sort_keys=True)
        assert first == second

    def test_malformed_entry_rejected(self):
        with pytest.raises(DeltaError):
            delta_from_json({"inserts": {"Product": [{"value": 1}]}})
        with pytest.raises(DeltaError):
            delta_from_json({"deletes": {"Product": [{"no": "oid"}]}})

    def test_malformed_groups_rejected(self):
        with pytest.raises(DeltaError):
            delta_from_json({"inserts": [["Product", []]]})
        with pytest.raises(DeltaError):
            delta_from_json({"deletes": {"Product": "S1"}})

    def test_labels_survive_reload_across_serial_digit_boundary(
            self, tmp_path):
        # Loaded anonymous objects get fresh serials; with >= 10
        # objects the lexicographic order of the fresh serials can
        # differ from the dump's label order ('#100' sorts before
        # '#95').  The label mapping captured at load time must resolve
        # every label to the object the dump named — re-deriving it by
        # sorting the reloaded instance would permute.
        from repro.io.json_io import dump_instance, load_instance
        schema = parse_schema(
            "schema S { class Item = (name: str) key name; }").schema
        builder = InstanceBuilder(schema)
        for index in range(12):
            builder.new("Item", Record.of(name=f"n{index}"))
        instance = builder.freeze()
        path = str(tmp_path / "items.json")
        dump_instance(instance, path)

        dumped = instance_to_json(instance)
        label_to_name = {
            entry["id"]["label"]: entry["value"]["$rec"]["name"]
            for entry in dumped["objects"]["Item"]}

        labels = {}
        reloaded = load_instance(path, labels=labels)
        for label, name in label_to_name.items():
            data = {"updates": {"Item": [{
                "id": {"$oid": "Item", "label": label},
                "value": {"$rec": {"name": "changed"}}}]}}
            delta = delta_from_json(data, reloaded, labels=labels)
            (oid,) = next(iter(delta.updates["Item"].items()))[:1]
            assert reloaded.value_of(oid) == Record.of(name=name), (
                f"label {label} resolved to the wrong object")


class TestCompose:
    """compose_deltas(a, b).apply_to(i) == b.apply_to(a.apply_to(i))."""

    def check(self, first, second):
        instance = base_instance()
        sequential = second.apply_to(first.apply_to(instance))
        composed = compose_deltas(first, second)
        assert delta_between(composed.apply_to(instance),
                             sequential).is_empty()
        return composed

    def test_insert_then_update_collapses_to_insert(self):
        oid, value = product("S9", "New", 5)
        first = Delta(inserts={"Product": {oid: value}})
        second = Delta(updates={"Product": {
            oid: value.with_field("price", 6)}})
        composed = self.check(first, second)
        assert oid in composed.inserts["Product"]
        assert not composed.updates

    def test_insert_then_delete_cancels(self):
        oid, value = product("S9")
        composed = self.check(
            Delta(inserts={"Product": {oid: value}}),
            Delta(deletes={"Product": (oid,)}))
        assert composed.is_empty()

    def test_update_then_update_last_wins(self):
        oid, value = product("S1", "Widget", 11)
        composed = self.check(
            Delta(updates={"Product": {oid: value}}),
            Delta(updates={"Product": {
                oid: value.with_field("price", 12)}}))
        assert composed.updates["Product"][oid].get("price") == 12

    def test_update_then_delete_is_delete(self):
        oid, value = product("S1", "Widget", 11)
        vendor = Oid.keyed("Vendor", Record.of(name="Acme"))
        p2, _ = product("S2")
        composed = compose_deltas(
            Delta(updates={"Product": {oid: value},
                           "Vendor": {vendor: Record.of(
                               name="Acme",
                               products=WolSet.of(p2))}}),
            Delta(deletes={"Product": (oid,)}))
        assert composed.deletes == {"Product": (oid,)}
        assert oid not in composed.updates.get("Product", {})
        instance = base_instance()
        assert delta_between(
            composed.apply_to(instance),
            Delta(deletes={"Product": (oid,)}).apply_to(
                Delta(updates={"Product": {oid: value},
                               "Vendor": {vendor: Record.of(
                                   name="Acme",
                                   products=WolSet.of(p2))}}
                      ).apply_to(instance))).is_empty()

    def test_delete_then_reinsert_is_update(self):
        oid, value = product("S1", "Reborn", 99)
        vendor = Oid.keyed("Vendor", Record.of(name="Acme"))
        p2, _ = product("S2")
        drop_ref = Delta(
            deletes={"Product": (oid,)},
            updates={"Vendor": {vendor: Record.of(
                name="Acme", products=WolSet.of(p2))}})
        composed = self.check(
            drop_ref, Delta(inserts={"Product": {oid: value}}))
        assert composed.updates["Product"][oid] == value
        assert not composed.deletes

    def test_invalid_sequences_refuse(self):
        oid, value = product("S1")
        present = Delta(updates={"Product": {oid: value}})
        with pytest.raises(DeltaError, match="still present"):
            compose_deltas(present,
                           Delta(inserts={"Product": {oid: value}}))
        gone = Delta(deletes={"Product": (oid,)})
        with pytest.raises(DeltaError, match="deleted by the first"):
            compose_deltas(gone,
                           Delta(updates={"Product": {oid: value}}))
        with pytest.raises(DeltaError, match="deleted by both"):
            compose_deltas(gone, Delta(deletes={"Product": (oid,)}))

    def test_disjoint_classes_union(self):
        p9, v9 = product("S9")
        vendor = Oid.keyed("Vendor", Record.of(name="Bmce"))
        composed = self.check(
            Delta(inserts={"Product": {p9: v9}}),
            Delta(inserts={"Vendor": {vendor: Record.of(
                name="Bmce", products=WolSet.of(p9))}}))
        assert set(composed.inserts) == {"Product", "Vendor"}
