"""Unit tests for schema diffing and operator synthesis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evolution import Evolution
from repro.evolution.diff import DiffError, diff_schemas
from repro.model import Record, WolSet, parse_schema
from repro.model.instance import InstanceBuilder

OLD = """
schema Shop {
  class Product = (sku: str, label: str, price: int,
                   barcode: {str}) key sku;
  class Vendor  = (name: str, city: str) key name;
}
"""

NEW_RENAME = """
schema Shop {
  class Product = (sku: str, title: str, price: int,
                   barcode: {str}) key sku;
  class Vendor  = (name: str, city: str) key name;
}
"""

NEW_REQUIRED = """
schema Shop {
  class Product = (sku: str, label: str, price: int,
                   barcode: str) key sku;
  class Vendor  = (name: str, city: str) key name;
}
"""

NEW_MIXED = """
schema Shop {
  class Product = (sku: str, title: str, barcode: {str},
                   in_stock: bool) key sku;
  class Vendor  = (name: str, city: str) key name;
}
"""


def old_schema():
    return parse_schema(OLD)


def shop_instance(schema):
    builder = InstanceBuilder(schema.schema)
    builder.new("Vendor", Record.of(name="Acme", city="Philadelphia"))
    builder.new("Product", Record.of(
        sku="S1", label="Widget", price=10, barcode=WolSet.of("111")))
    builder.new("Product", Record.of(
        sku="S2", label="Gadget", price=20, barcode=WolSet.of()))
    return builder.freeze()


class TestDiffDetection:
    def test_unchanged(self):
        diff = diff_schemas(old_schema(), old_schema())
        assert all(d.unchanged for d in diff.shared.values())
        assert diff.decisions_needed() == []

    def test_rename_detected(self):
        diff = diff_schemas(old_schema(), parse_schema(NEW_RENAME))
        assert diff.shared["Product"].renamed == {"label": "title"}
        assert not diff.shared["Product"].added
        assert not diff.shared["Product"].dropped

    def test_made_required_detected(self):
        diff = diff_schemas(old_schema(), parse_schema(NEW_REQUIRED))
        product = diff.shared["Product"]
        assert "barcode" in product.made_required
        assert any("policy" in d for d in diff.decisions_needed())

    def test_mixed_changes(self):
        diff = diff_schemas(old_schema(), parse_schema(NEW_MIXED))
        product = diff.shared["Product"]
        assert product.renamed == {"label": "title"}
        assert "price" in product.dropped
        assert "in_stock" in product.added
        assert "Product" in diff.summary()

    def test_class_addition_and_drop(self):
        new = parse_schema("""
            schema Shop {
              class Product = (sku: str, label: str, price: int,
                               barcode: {str}) key sku;
              class Brand   = (name: str) key name;
            }
        """)
        diff = diff_schemas(old_schema(), new)
        assert diff.added_classes == ["Brand"]
        assert diff.dropped_classes == ["Vendor"]

    def test_ambiguous_rename_not_guessed(self):
        new = parse_schema("""
            schema Shop {
              class Product = (sku: str, titleA: str, titleB: str,
                               price: int, barcode: {str}) key sku;
              class Vendor  = (name: str, city: str) key name;
            }
        """)
        diff = diff_schemas(old_schema(), new)
        product = diff.shared["Product"]
        # label could be titleA or titleB: stay conservative.
        assert product.renamed == {}
        assert set(product.added) == {"titleA", "titleB"}
        assert set(product.dropped) == {"label"}


class TestOperatorSynthesis:
    def test_rename_program_runs(self):
        old = old_schema()
        diff = diff_schemas(old, parse_schema(NEW_RENAME))
        evolution = diff.to_evolution()
        result = evolution.build()
        out = result.transform(old, shop_instance(old))
        assert out.schema.attributes("Product") == (
            "barcode", "price", "sku", "title")

    def test_required_needs_policy(self):
        diff = diff_schemas(old_schema(), parse_schema(NEW_REQUIRED))
        with pytest.raises(DiffError):
            diff.to_evolution()

    def test_required_with_delete_policy(self):
        old = old_schema()
        diff = diff_schemas(old, parse_schema(NEW_REQUIRED))
        evolution = diff.to_evolution(
            policies={("Product", "barcode"): "delete"})
        out = evolution.build().transform(old, shop_instance(old))
        assert out.class_sizes()["Product"] == 1  # S2 had no barcode

    def test_required_with_default_policy(self):
        old = old_schema()
        diff = diff_schemas(old, parse_schema(NEW_REQUIRED))
        evolution = diff.to_evolution(
            policies={("Product", "barcode"): "default"},
            defaults={("Product", "barcode"): "NO-BARCODE"})
        out = evolution.build().transform(old, shop_instance(old))
        assert out.class_sizes()["Product"] == 2
        barcodes = {out.attribute(p, "barcode")
                    for p in out.objects_of("Product")}
        assert barcodes == {"111", "NO-BARCODE"}

    def test_added_attribute_needs_default(self):
        diff = diff_schemas(old_schema(), parse_schema(NEW_MIXED))
        with pytest.raises(DiffError):
            diff.to_evolution()

    def test_added_attribute_with_default(self):
        old = old_schema()
        diff = diff_schemas(old, parse_schema(NEW_MIXED))
        evolution = diff.to_evolution(
            defaults={("Product", "in_stock"): True})
        out = evolution.build().transform(old, shop_instance(old))
        stocked = {out.attribute(p, "in_stock")
                   for p in out.objects_of("Product")}
        assert stocked == {True}

    def test_new_classes_rejected(self):
        new = parse_schema("""
            schema Shop {
              class Product = (sku: str, label: str, price: int,
                               barcode: {str}) key sku;
              class Vendor  = (name: str, city: str) key name;
              class Brand   = (name: str) key name;
            }
        """)
        diff = diff_schemas(old_schema(), new)
        with pytest.raises(DiffError):
            diff.to_evolution()


class TestDiffRoundTrips:
    """Evolve a schema, diff old-vs-new, and the diff must repropose an
    Evolution that rebuilds the same target schema and acts identically
    on instances — one round trip per supported operator."""

    def roundtrip(self, evolution, policies=None, defaults=None):
        """Build an evolution, diff its result, repropose, compare."""
        first = evolution.build()
        old = evolution.source
        diff = diff_schemas(old, first.target_schema)
        reproposed = diff.to_evolution(
            policies=policies, defaults=defaults,
            target_name=first.target_schema.schema.name)
        second = reproposed.build()
        assert second.target_schema.schema \
            == first.target_schema.schema
        assert second.target_schema.keys.classes() \
            == first.target_schema.keys.classes()
        return first, second

    def test_rename_round_trip(self):
        old = old_schema()
        evolution = Evolution(old, "Shop").copy_class(
            "Product", renames={"label": "title"}).copy_class("Vendor")
        first, second = self.roundtrip(evolution)
        instance = shop_instance(old)
        out_first = first.transform(old, instance)
        out_second = second.transform(old, instance)
        assert out_first.class_sizes() == out_second.class_sizes()
        titles = {out_second.attribute(p, "title")
                  for p in out_second.objects_of("Product")}
        assert titles == {"Widget", "Gadget"}

    def test_drop_round_trip(self):
        old = old_schema()
        evolution = Evolution(old, "Shop").copy_class(
            "Product", drops=("price",)).copy_class("Vendor")
        first, second = self.roundtrip(evolution)
        out = second.transform(old, shop_instance(old))
        assert out.schema.attributes("Product") == (
            "barcode", "label", "sku")
        assert out.class_sizes() == first.transform(
            old, shop_instance(old)).class_sizes()

    def test_add_round_trip(self):
        from repro.model.types import BaseType
        old = old_schema()
        evolution = Evolution(old, "Shop").copy_class(
            "Product",
            adds={"in_stock": (BaseType("bool"), True)}).copy_class(
                "Vendor")
        _, second = self.roundtrip(
            evolution, defaults={("Product", "in_stock"): True})
        out = second.transform(old, shop_instance(old))
        assert {out.attribute(p, "in_stock")
                for p in out.objects_of("Product")} == {True}

    def test_make_required_round_trip_both_policies(self):
        for policy, default in (("delete", None),
                                ("default", "NO-BARCODE")):
            old = old_schema()
            evolution = Evolution(old, "Shop")
            evolution.copy_class("Product").make_required(
                "Product", "barcode", policy, default=default)
            evolution.copy_class("Vendor")
            defaults = ({("Product", "barcode"): default}
                        if default is not None else None)
            first, second = self.roundtrip(
                evolution,
                policies={("Product", "barcode"): policy},
                defaults=defaults)
            out_first = first.transform(old, shop_instance(old))
            out_second = second.transform(old, shop_instance(old))
            assert out_first.class_sizes() == out_second.class_sizes()

    @settings(max_examples=25, deadline=None)
    @given(
        renamed=st.booleans(),
        dropped=st.sampled_from([(), ("price",), ("label", "price")]),
        added=st.booleans(),
    )
    def test_copy_class_round_trip_property(self, renamed, dropped,
                                            added):
        """Any mix of rename/drop/add on one class survives the diff.

        The added attribute's type (bool) collides with nothing
        droppable, so the conservative rename heuristic cannot absorb
        it and the diff must detect every change exactly.
        """
        from repro.model.types import BaseType
        old = old_schema()
        renames = {"label": "title"} if renamed and "label" not in dropped \
            else {}
        adds = {"in_stock": (BaseType("bool"), True)} if added else {}
        evolution = Evolution(old, "Shop").copy_class(
            "Product", renames=renames, drops=dropped,
            adds=adds).copy_class("Vendor")
        first = evolution.build()
        diff = diff_schemas(old, first.target_schema)
        product = diff.shared["Product"]
        assert set(product.dropped) | set(product.renamed) \
            == set(dropped) | set(renames)
        assert set(product.added) == set(adds)
        defaults = {("Product", "in_stock"): True} if added else None
        reproposed = diff.to_evolution(defaults=defaults,
                                       target_name="Shop")
        assert reproposed.build().target_schema.schema \
            == first.target_schema.schema
