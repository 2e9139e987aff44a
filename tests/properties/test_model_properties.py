"""Property-based tests for the data model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Oid, Record, isomorphic, oids_in, parse_type

from .strategies import types, values


class TestTypeProperties:
    @given(types())
    @settings(max_examples=200)
    def test_type_str_roundtrip(self, ty):
        assert parse_type(str(ty)) == ty

    @given(types())
    @settings(max_examples=200)
    def test_ground_types_are_ground(self, ty):
        assert ty.is_ground()

    @given(types())
    @settings(max_examples=200)
    def test_walk_includes_self(self, ty):
        assert next(iter(ty.walk())) is ty


class TestValueProperties:
    @given(values())
    @settings(max_examples=200)
    def test_values_hashable_and_self_equal(self, value):
        hash(value)
        assert value == value

    @given(values())
    @settings(max_examples=200)
    def test_no_oids_without_context(self, value):
        assert list(oids_in(value)) == []


class TestIsomorphismProperties:
    @staticmethod
    def _ring(names):
        from repro.model import InstanceBuilder, Schema, record, STR, ClassType
        schema = Schema.of(
            "R", Node=record(name=STR, next=ClassType("Node")))
        builder = InstanceBuilder(schema)
        oids = [Oid.fresh("Node") for _ in names]
        for index, name in enumerate(names):
            builder.put(oids[index], Record.of(
                name=name, next=oids[(index + 1) % len(names)]))
        return builder.freeze()

    @given(st.lists(st.text("ab", max_size=2), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_renaming_is_isomorphic(self, names):
        # two builds of one ring differ only in their (fresh) oids
        assert isomorphic(self._ring(names), self._ring(names))

    @given(st.lists(st.text("ab", max_size=2), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_rotation_is_isomorphic(self, names, shift):
        instance = self._ring(names)
        rotated = self._ring(names[shift % len(names):]
                             + names[:shift % len(names)])
        assert isomorphic(instance, rotated)

    @given(st.lists(st.text("ab", max_size=2), min_size=2, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_different_sizes_never_isomorphic(self, names):
        assert not isomorphic(self._ring(names), self._ring(names[:-1]))
