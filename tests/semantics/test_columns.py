"""Unit tests for the columnar instance mirror (``ColumnStore``)."""

import pytest

from repro.evolution.delta import Delta
from repro.model import InstanceBuilder, Oid, Record, WolSet
from repro.model.schema import parse_schema
from repro.semantics.columns import MISSING, ColumnStore, deterministic_order

SCHEMA = parse_schema("""
schema S {
  class P = (name: str, age: int, tags: {str});
}
""")


def build_instance(specs, validate=True):
    """``specs``: list of (name, age-or-None, tags-or-None)."""
    builder = InstanceBuilder(SCHEMA)
    for name, age, tags in specs:
        fields = {"name": name}
        if age is not None:
            fields["age"] = age
        if tags is not None:
            fields["tags"] = WolSet.of(*tags)
        builder.make("P", name, Record.of(**fields))
    return builder.freeze(validate=validate)


@pytest.fixture()
def instance():
    return build_instance([
        ("a", 30, ("x", "y")),
        ("b", 40, ()),
        ("c", 50, ("z",)),
    ])


class TestLazyBuild:
    def test_extent_in_insertion_order(self, instance):
        store = ColumnStore(instance)
        assert store.extent("P") == list(instance.objects_of("P"))
        assert store.extent_rows("P") == [0, 1, 2]
        assert store.row_map("P") == {
            oid: row for row, oid in enumerate(store.extent("P"))}

    def test_scalar_column_aligned(self, instance):
        store = ColumnStore(instance)
        assert store.scalar_column("P", "age") == [30, 40, 50]
        assert store.scalar_column("P", "name") == ["a", "b", "c"]

    def test_missing_attribute_is_sentinel(self):
        sparse = build_instance(
            [("a", 30, ()), ("b", None, ())], validate=False)
        store = ColumnStore(sparse)
        assert store.scalar_column("P", "age") == [30, MISSING]

    def test_set_slices_deterministically_ordered(self, instance):
        store = ColumnStore(instance)
        a, b, c = store.extent("P")
        assert list(store.set_slice(a, "tags")) == deterministic_order(
            instance.value_of(a).get("tags"))
        assert list(store.set_slice(b, "tags")) == []
        assert list(store.set_slice(c, "tags")) == ["z"]
        # Unknown oid / non-collection attribute enumerate nothing.
        assert list(store.set_slice(Oid.keyed("P", "ghost"), "tags")) == []

    def test_counters_track_construction(self, instance):
        store = ColumnStore(instance)
        assert (store.classes_built, store.columns_built,
                store.rows_patched) == (0, 0, 0)
        store.scalar_column("P", "age")
        store.scalar_column("P", "age")  # cached: no rebuild
        assert store.classes_built == 1
        assert store.columns_built == 1


def snapshot(store, attrs=("name", "age"), set_attrs=("tags",)):
    """Extent-aligned view of every column (tombstone-insensitive)."""
    extent = store.extent("P")
    rows = store.extent_rows("P")
    data = {"extent": list(extent)}
    for attr in attrs:
        column = store.scalar_column("P", attr)
        data[attr] = [column[row] for row in rows]
    for attr in set_attrs:
        data[attr] = [list(store.set_slice(oid, attr)) for oid in extent]
    return data


class TestPatch:
    def test_patch_matches_rebuild(self, instance):
        store = ColumnStore(instance)
        snapshot(store)  # materialise every column first
        a, b, c = store.extent("P")
        new_d = Oid.keyed("P", "d")
        delta = Delta(
            deletes={"P": (b,)},
            updates={"P": {c: Record.of(name="c", age=51,
                                        tags=WolSet.of("q", "p"))}},
            inserts={"P": {new_d: Record.of(name="d", age=60,
                                            tags=WolSet.of("w"))}})
        updated = delta.apply_to(instance)
        store.patch(updated,
                    strict_removed={"P": (b, c)},
                    strict_added={"P": (c, new_d)})
        assert snapshot(store) == snapshot(ColumnStore(updated))
        assert store.rows_patched > 0
        # Patched in place, not dropped-and-rebuilt.
        assert store.classes_built == 1

    def test_inconsistent_strict_sets_fall_back(self, instance):
        store = ColumnStore(instance)
        snapshot(store)
        ghost = Oid.keyed("P", "ghost")
        new_d = Oid.keyed("P", "d")
        delta = Delta(inserts={"P": {new_d: Record.of(
            name="d", age=60, tags=WolSet.of())}})
        updated = delta.apply_to(instance)
        # The strict sets claim a removal the store never saw: the
        # class must be invalidated and lazily rebuilt, never served
        # half-patched.
        store.patch(updated,
                    strict_removed={"P": (ghost,)},
                    strict_added={"P": (ghost, new_d)})
        assert snapshot(store) == snapshot(ColumnStore(updated))

    def test_unbuilt_classes_are_skipped(self, instance):
        store = ColumnStore(instance)  # nothing materialised
        b = list(instance.objects_of("P"))[1]
        delta = Delta(deletes={"P": (b,)})
        updated = delta.apply_to(instance)
        store.patch(updated, strict_removed={"P": (b,)},
                    strict_added={})
        assert store.rows_patched == 0  # lazily built later instead
        assert snapshot(store) == snapshot(ColumnStore(updated))
