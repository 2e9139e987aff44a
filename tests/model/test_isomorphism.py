"""Unit tests for instance isomorphism (equality up to oid renaming)."""

from repro.model import (STR, ClassType, InstanceBuilder, Oid, Record, Schema,
                         WolSet, find_isomorphism, isomorphic, record,
                         set_of)


def pair_schema() -> Schema:
    return Schema.of(
        "Pairs",
        Node=record(name=STR, next=ClassType("Node")))


def ring(schema: Schema, names):
    """Build a cyclic linked list of Node objects with the given names."""
    builder = InstanceBuilder(schema)
    oids = [Oid.fresh("Node") for _ in names]
    for i, name in enumerate(names):
        builder.put(oids[i], Record.of(
            name=name, next=oids[(i + 1) % len(names)]))
    return builder.freeze()


class TestIsomorphic:
    def test_identical_instances(self):
        inst = ring(pair_schema(), ["a", "b", "c"])
        assert isomorphic(inst, inst)

    def test_renamed_instances(self):
        schema = pair_schema()
        first = ring(schema, ["a", "b", "c"])
        second = ring(schema, ["a", "b", "c"])   # the same, fresh oids
        assert isomorphic(first, second)
        found = find_isomorphism(first, second)
        assert {first.attribute(oid, "name"):
                second.attribute(image, "name")
                for oid, image in found.items()} == {
            "a": "a", "b": "b", "c": "c"}

    def test_different_data_not_isomorphic(self):
        schema = pair_schema()
        assert not isomorphic(ring(schema, ["a", "b", "c"]),
                              ring(schema, ["a", "b", "d"]))

    def test_different_sizes_not_isomorphic(self):
        schema = pair_schema()
        assert not isomorphic(ring(schema, ["a", "b"]),
                              ring(schema, ["a", "b", "c"]))

    def test_structure_matters_not_just_multiset(self):
        # Two rings a->b->a, c->d->c  vs  a->d->a, c->b->c: same value
        # multiset per colour only if names pair up consistently.
        schema = pair_schema()
        builder = InstanceBuilder(schema)
        a, b, c, d = (Oid.fresh("Node") for _ in range(4))
        builder.put(a, Record.of(name="a", next=b))
        builder.put(b, Record.of(name="b", next=a))
        builder.put(c, Record.of(name="c", next=d))
        builder.put(d, Record.of(name="d", next=c))
        first = builder.freeze()

        builder = InstanceBuilder(schema)
        a2, b2, c2, d2 = (Oid.fresh("Node") for _ in range(4))
        builder.put(a2, Record.of(name="a", next=d2))
        builder.put(d2, Record.of(name="d", next=a2))
        builder.put(c2, Record.of(name="c", next=b2))
        builder.put(b2, Record.of(name="b", next=c2))
        second = builder.freeze()

        assert not isomorphic(first, second)

    def test_symmetric_ring_isomorphic_under_rotation(self):
        # All nodes share one name: any rotation is an isomorphism.
        schema = pair_schema()
        first = ring(schema, ["x", "x", "x"])
        second = ring(schema, ["x", "x", "x"])
        assert isomorphic(first, second)

    def test_sets_of_oids_matched(self):
        schema = Schema.of(
            "G",
            Person=record(name=STR, friends=set_of(ClassType("Person"))))
        def build(names, edges):
            builder = InstanceBuilder(schema)
            oids = {n: Oid.fresh("Person") for n in names}
            for n in names:
                builder.put(oids[n], Record.of(
                    name=n,
                    friends=WolSet.of(*(oids[m] for m in edges.get(n, ())))))
            return builder.freeze()
        first = build(["a", "b"], {"a": ["b"], "b": ["a"]})
        second = build(["a", "b"], {"a": ["b"], "b": ["a"]})
        assert isomorphic(first, second)
        third = build(["a", "b"], {"a": ["b"]})
        assert not isomorphic(first, third)

    def test_different_schemas_not_isomorphic(self):
        first = ring(pair_schema(), ["a"])
        other_schema = Schema.of("Other",
                                 Node=record(name=STR, nxt=ClassType("Node")))
        builder = InstanceBuilder(other_schema)
        o = Oid.fresh("Node")
        builder.put(o, Record.of(name="a", nxt=o))
        second = builder.freeze()
        assert not isomorphic(first, second)
