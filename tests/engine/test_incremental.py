"""Differential tests for the incremental (delta-driven) engine.

The acceptance bar: ``IncrementalTransform.apply_delta`` must produce a
target *and* a violation set *identical* to a full recompute and a
fresh audit over the updated instance — on the genome, ReLiBase and
cities workloads and on synthetic ones, for inserts, updates (including
updates read only through stored-reference chains), deletes, mixed
batches and chains of deltas.  The full-recompute path is the oracle.
"""

import json

import pytest

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.constraints.audit import audit_constraints
from repro.engine import (ExecutionError, Executor, IncrementalTransform,
                          ReverseIndex, execute)
from repro.evolution.delta import Delta, delta_between
from repro.io.json_io import canonical_json, instance_to_json
from repro.lang import parse_program
from repro.model import (INT, STR, ClassType, Record, Schema, WolSet,
                         parse_schema, record, set_of)
from repro.model.instance import InstanceBuilder
from repro.model.values import Oid
from repro.morphase import Morphase
from repro.obs.metrics import REGISTRY
from repro.semantics.match import IndexPool
from repro.workloads import genome, relibase, synthetic
from tests.service.streams import (CitiesStream, cities_morphase,
                                   cities_sources, genome_sources)
from tests.service.streams import genome_morphase as genome_stream_morphase


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def genome_morphase():
    source_schema = schema_of_acedb(
        AceDatabase("ACe22", genome.ACE_CLASSES))
    m = Morphase([source_schema], genome.warehouse_schema(),
                 genome.PROGRAM_TEXT)
    m.compile()
    return m


@pytest.fixture(scope="module")
def genome_source(genome_morphase):
    database = genome.generate_acedb(genes=40, sequences=80, clones=80,
                                     sparsity=0.9, seed=5)
    return genome_morphase._merge_sources(genome.source_instance(database))


def counted_state(store):
    """Create count and per-value / per-element counts of every object."""
    return {oid: (pending.creates, pending.attributes,
                  pending.set_attributes)
            for oid, pending in store.objects.items()}


def assert_counts_equal_fresh_run(state):
    """Production under deltas == production from scratch, as a property
    of the one store: a count that drifted shows here at once, in the
    target bytes only when a later retraction trips over it."""
    fresh = Executor(state.source, state.target_schema)
    fresh.run_program(state.clauses)
    assert counted_state(state.store) == counted_state(fresh.store)


def held_indexes(state):
    """The session's built indexes, as the dicts a reader holds."""
    pool = state.plan.pool
    return {key: pool.index_for(*key) for key in sorted(pool._indexes)}


def assert_indexes_patched_in_place(state, held):
    """Every maintained index equals a fresh build over the new source,
    holds no empty entry, and is still the dict held before the delta:
    ``rebase`` patches the entries a delta touches, it does not copy."""
    fresh = IndexPool(state.source)
    for key, index in held_indexes(state).items():
        assert all(index.values()), key
        assert {value: set(oids) for value, oids in index.items()} == {
            value: set(oids)
            for value, oids in fresh.index_for(*key).items()}, key
        if key in held:
            assert index is held[key], key


# ----------------------------------------------------------------------
# ReverseIndex
# ----------------------------------------------------------------------

class TestReverseIndex:
    SCHEMA = parse_schema("""
    schema Chain {
      class A = (name: str, next: B) key name;
      class B = (name: str, next: C) key name;
      class C = (name: str) key name;
    }
    """).schema

    def chain_instance(self):
        builder = InstanceBuilder(self.SCHEMA)
        c = Oid.keyed("C", Record.of(name="c"))
        b = Oid.keyed("B", Record.of(name="b"))
        a = Oid.keyed("A", Record.of(name="a"))
        builder.put(c, Record.of(name="c"))
        builder.put(b, Record.of(name="b", next=c))
        builder.put(a, Record.of(name="a", next=b))
        return builder.freeze(), a, b, c

    def test_referrers_and_closure(self):
        instance, a, b, c = self.chain_instance()
        rev = ReverseIndex(instance)
        assert rev.referrers(c) == frozenset({b})
        assert rev.referrers(b) == frozenset({a})
        # The closure of the leaf includes every transitive referrer.
        assert rev.closure([c]) == {a, b, c}
        assert rev.closure([a]) == {a}

    def test_apply_delta_maintains_relation(self):
        instance, a, b, c = self.chain_instance()
        rev = ReverseIndex(instance)
        delta = Delta(deletes={"A": (a,)})
        rev.apply_delta(instance, delta)
        assert rev.referrers(b) == frozenset()
        assert rev.closure([c]) == {b, c}

    def test_update_rewires_references(self):
        instance, a, b, c = self.chain_instance()
        c2 = Oid.keyed("C", Record.of(name="c2"))
        rev = ReverseIndex(instance)
        delta = Delta(inserts={"C": {c2: Record.of(name="c2")}},
                      updates={"B": {b: Record.of(name="b", next=c2)}})
        rev.apply_delta(instance, delta)
        assert rev.referrers(c) == frozenset()
        assert rev.referrers(c2) == frozenset({b})


# ----------------------------------------------------------------------
# IndexPool delta maintenance
# ----------------------------------------------------------------------

class TestIndexPoolRebase:
    def test_local_path_maintained_in_place(self, genome_source):
        pool = IndexPool(genome_source)
        index = pool.index_for("Gene", ("name",))
        gene = sorted(genome_source.objects_of("Gene"), key=str)[0]
        name = genome_source.value_of(gene).get("name")
        assert gene in index[name]
        delta = Delta(deletes={"Gene": (gene,)})
        new_instance = delta.apply_to(genome_source,
                                      validate_changed=False)
        builds_before = pool.builds
        removed, added = delta.removed_by_class(), delta.added_by_class()
        maintained, rebuilt = pool.rebase(new_instance, removed, added,
                                          removed, added)
        assert (maintained, rebuilt) == (1, 0)
        assert name not in pool.index_for("Gene", ("name",))
        assert pool.builds == builds_before  # patched, not rebuilt

    def test_deref_path_patched_via_closure(self, genome_source):
        pool = IndexPool(genome_source)
        # gene.[].name dereferences Gene objects from Sequence: renaming
        # a gene moves the entries of the *sequences* referencing it, so
        # the caller passes the referrer closure on both sides.
        pool.index_for("Sequence", ("gene", "[]", "name"))
        rev = ReverseIndex(genome_source)
        gene = next(oid for oid in sorted(
            genome_source.objects_of("Gene"), key=str)
            if rev.referrers(oid))
        value = genome_source.value_of(gene)
        delta = Delta(updates={"Gene": {
            gene: value.with_field("name", "RENAMED")}})
        new_instance = delta.apply_to(genome_source)
        closure = rev.closure([gene])
        affected = {}
        for oid in closure:
            affected.setdefault(oid.class_name, []).append(oid)
        maintained, rebuilt = pool.rebase(
            new_instance, affected, affected, delta.removed_by_class(),
            delta.added_by_class())
        assert maintained == 1
        assert rebuilt == 0
        patched = pool.index_for("Sequence", ("gene", "[]", "name"))
        fresh = IndexPool(new_instance).index_for(
            "Sequence", ("gene", "[]", "name"))
        assert {k: set(v) for k, v in patched.items()} \
            == {k: set(v) for k, v in fresh.items()}
        referencing = [oid for oid in new_instance.objects_of("Sequence")
                       if gene in new_instance.value_of(oid).get("gene")]
        assert set(patched.get("RENAMED", ())) == set(referencing)

    def test_unboundable_path_dropped(self, genome_source):
        pool = IndexPool(genome_source)
        pool.index_for("Gene", ("no_such_attr",))
        gene = sorted(genome_source.objects_of("Gene"), key=str)[0]
        delta = Delta(deletes={"Gene": (gene,)})
        new_instance = delta.apply_to(genome_source,
                                      validate_changed=False)
        removed, added = delta.removed_by_class(), delta.added_by_class()
        maintained, rebuilt = pool.rebase(new_instance, removed, added,
                                          removed, added)
        assert rebuilt == 1
        assert ("Gene", ("no_such_attr",)) not in sorted(pool._indexes)

    def test_rebased_index_equals_fresh_build(self, genome_source):
        pool = IndexPool(genome_source)
        pool.index_for("Sequence", ("name",))
        seq = sorted(genome_source.objects_of("Sequence"), key=str)[3]
        new_value = genome_source.value_of(seq).with_field(
            "name", "FRESH-NAME")
        gene = Oid.keyed("Gene", "GNEW")
        delta = Delta(
            updates={"Sequence": {seq: new_value}},
            inserts={"Gene": {gene: Record.of(
                name="GNEW", symbol=WolSet.of("gnew"),
                description=WolSet.of())}})
        new_instance = delta.apply_to(genome_source)
        removed, added = delta.removed_by_class(), delta.added_by_class()
        pool.rebase(new_instance, removed, added, removed, added)
        fresh = IndexPool(new_instance)
        patched = pool.index_for("Sequence", ("name",))
        rebuilt = fresh.index_for("Sequence", ("name",))
        assert {k: set(v) for k, v in patched.items()} \
            == {k: set(v) for k, v in rebuilt.items()}

    def test_path_dependencies(self, genome_source):
        pool = IndexPool(genome_source)
        assert pool.path_dependencies("Gene", ("name",)) \
            == frozenset({"Gene"})
        assert pool.path_dependencies("Sequence", ("gene", "[]", "name")) \
            == frozenset({"Sequence", "Gene"})
        assert pool.path_dependencies("Gene", ("no_such_attr",)) is None


# ----------------------------------------------------------------------
# IncrementalTransform differential tests (genome)
# ----------------------------------------------------------------------

class TestIncrementalTransformGenome:
    def fresh_state(self, morphase, source):
        state = morphase.begin_incremental(source)
        assert state.target.is_valid()
        return state

    def oracle(self, morphase, instance):
        return morphase.transform(instance).target

    def check(self, morphase, state, delta):
        held = held_indexes(state)
        result = state.apply_delta(delta)
        assert state.target.is_valid()
        oracle = self.oracle(morphase, state.source)
        assert result.target.valuations == oracle.valuations
        assert (json.dumps(instance_to_json(result.target),
                           sort_keys=True)
                == json.dumps(instance_to_json(oracle), sort_keys=True))
        assert_counts_equal_fresh_run(state)
        assert_indexes_patched_in_place(state, held)
        return result

    def test_initial_state_matches_batch(self, genome_morphase,
                                         genome_source):
        state = self.fresh_state(genome_morphase, genome_source)
        assert state.target.valuations \
            == self.oracle(genome_morphase, genome_source).valuations

    def test_insert_objects(self, genome_morphase, genome_source):
        state = self.fresh_state(genome_morphase, genome_source)
        gene = Oid.keyed("Gene", "GNEW")
        seq = Oid.keyed("Sequence", "SNEW")
        delta = Delta(inserts={
            "Gene": {gene: Record.of(
                name="GNEW", symbol=WolSet.of("gnew"),
                description=WolSet.of("a new gene"))},
            "Sequence": {seq: Record.of(
                name="SNEW", dna_length=WolSet.of(123),
                method=WolSet.of("pcr"), gene=WolSet.of(gene))},
        })
        result = self.check(genome_morphase, state, delta)
        assert result.stats.bindings_added >= 2
        assert result.stats.clauses_recomputed == 0

    def test_delete_each_class(self, genome_morphase, genome_source):
        for cname in ("Gene", "Sequence", "Clone"):
            state = self.fresh_state(genome_morphase, genome_source)
            victim = sorted(genome_source.objects_of(cname), key=str)[1]
            self.check(genome_morphase, state,
                       Delta(deletes={cname: (victim,)}))

    def test_update_each_class(self, genome_morphase, genome_source):
        for cname, attr, value in (
                ("Gene", "description", WolSet.of("rewritten")),
                ("Sequence", "method", WolSet.of("nanopore")),
                ("Clone", "length", WolSet.of(42))):
            state = self.fresh_state(genome_morphase, genome_source)
            victim = sorted(genome_source.objects_of(cname), key=str)[2]
            new_value = genome_source.value_of(victim).with_field(
                attr, value)
            self.check(genome_morphase, state,
                       Delta(updates={cname: {victim: new_value}}))

    def test_update_read_through_reference_chain(self, genome_morphase,
                                                 genome_source):
        # Clone clauses read Sequence.name through C.seq: the changed
        # sequence is never bound by a Clone member atom, so this
        # exercises the reverse-referrer seeding.
        state = self.fresh_state(genome_morphase, genome_source)
        seq = sorted(genome_source.objects_of("Sequence"), key=str)[4]
        new_value = genome_source.value_of(seq).with_field(
            "name", "RENAMED-SEQ")
        result = self.check(genome_morphase, state,
                            Delta(updates={"Sequence": {seq: new_value}}))
        assert result.stats.clauses_recomputed == 0

    def test_delete_referenced_sequence(self, genome_morphase,
                                        genome_source):
        # Clones referencing the deleted sequence lose their bindings.
        state = self.fresh_state(genome_morphase, genome_source)
        rev = ReverseIndex(genome_source)
        seq = next(
            oid for oid in sorted(genome_source.objects_of("Sequence"),
                                  key=str)
            if rev.referrers(oid))
        self.check(genome_morphase, state,
                   Delta(deletes={"Sequence": (seq,)}))

    def test_mixed_batch_and_chained_deltas(self, genome_morphase,
                                            genome_source):
        state = self.fresh_state(genome_morphase, genome_source)
        gene = Oid.keyed("Gene", "GMIX")
        clone = sorted(genome_source.objects_of("Clone"), key=str)[0]
        seq = sorted(genome_source.objects_of("Sequence"), key=str)[0]
        first = Delta(
            inserts={"Gene": {gene: Record.of(
                name="GMIX", symbol=WolSet.of("gmix"),
                description=WolSet.of("mixed"))}},
            updates={"Sequence": {seq: genome_source.value_of(
                seq).with_field("method", WolSet.of("hybrid"))}},
            deletes={"Clone": (clone,)})
        self.check(genome_morphase, state, first)
        second = Delta(deletes={"Gene": (gene,)})
        self.check(genome_morphase, state, second)
        third = Delta(updates={"Sequence": {
            seq: state.source.value_of(seq).with_field(
                "name", "S-FINAL")}})
        self.check(genome_morphase, state, third)

    def test_empty_delta_is_noop(self, genome_morphase, genome_source):
        state = self.fresh_state(genome_morphase, genome_source)
        before = state.target
        result = state.apply_delta(Delta())
        assert result.target.valuations == before.valuations
        assert result.stats.bindings_added == 0
        assert result.stats.bindings_removed == 0
        assert result.stats.delta_size == 0

    def test_identical_value_update_is_noop(self, genome_morphase,
                                            genome_source):
        """An "update" rewriting an object to the value it already has
        retracts and re-derives the same effects: same target bytes."""
        state = self.fresh_state(genome_morphase, genome_source)
        before = state.target.valuations
        oid = genome_source.objects_of("Sequence")[0]
        result = self.check(genome_morphase, state, Delta(
            updates={"Sequence": {oid: genome_source.value_of(oid)}}))
        assert result.target.valuations == before

    def test_random_delta_sweep(self, genome_morphase, genome_source):
        # Evolve the instance through randomised batches, comparing
        # against the oracle after each step.
        import random
        rng = random.Random(17)
        state = self.fresh_state(genome_morphase, genome_source)
        for step in range(4):
            source = state.source
            updates = {}
            deletes = {}
            for cname in ("Gene", "Sequence", "Clone"):
                extent = sorted(source.objects_of(cname), key=str)
                victims = rng.sample(extent, k=min(2, len(extent)))
                if not victims:
                    continue
                updated = victims[0]
                value = source.value_of(updated)
                updates[cname] = {updated: value.with_field(
                    "name", f"{cname}-renamed-{step}")}
                if len(victims) > 1:
                    deletes[cname] = (victims[1],)
            gene = Oid.keyed("Gene", f"G-step{step}")
            delta = Delta(
                inserts={"Gene": {gene: Record.of(
                    name=f"G-step{step}",
                    symbol=WolSet.of(f"sym{step}"),
                    description=WolSet.of(f"step {step}"))}},
                updates=updates, deletes=deletes)
            self.check(genome_morphase, state, delta)

    def test_delta_between_round_trip(self, genome_morphase,
                                      genome_source):
        # Build the delta from two instance versions with the oracle
        # differ, then propagate it.
        database = genome.generate_acedb(genes=40, sequences=80,
                                         clones=80, sparsity=0.7, seed=5)
        other = genome_morphase._merge_sources(
            genome.source_instance(database))
        state = self.fresh_state(genome_morphase, genome_source)
        delta = delta_between(genome_source, other)
        assert not delta.is_empty()
        self.check(genome_morphase, state, delta)

    def test_conflict_raises_like_batch(self, genome_morphase,
                                        genome_source):
        # Two descriptions on one gene make TG non-functional: both the
        # batch path and the incremental path must raise.
        state = self.fresh_state(genome_morphase, genome_source)
        gene = next(
            oid for oid in sorted(genome_source.objects_of("Gene"),
                                  key=str)
            if len(genome_source.value_of(oid).get("description")) == 1)
        value = genome_source.value_of(gene)
        conflicted = value.with_field(
            "description", WolSet.of("one", "two"))
        delta = Delta(updates={"Gene": {gene: conflicted}})
        with pytest.raises(ExecutionError):
            genome_morphase.transform(
                delta.apply_to(genome_source, validate_changed=False))
        with pytest.raises(ExecutionError):
            state.apply_delta(delta)
        # A failed propagation spends the session.
        with pytest.raises(ExecutionError):
            state.apply_delta(Delta())


# ----------------------------------------------------------------------
# IncrementalTransform differential tests (ReLiBase, synthetic)
# ----------------------------------------------------------------------

class TestIncrementalTransformOtherWorkloads:
    def test_relibase_differential(self):
        m = Morphase([relibase.swissprot_schema(), relibase.pdb_schema()],
                     relibase.relibase_schema(),
                     relibase.PROGRAM_TEXT)
        swissprot, pdb = relibase.generate_sources(
            proteins=25, structures_per_protein=2, ligands=10,
            bindings=30, seed=9)
        merged = m._merge_sources([swissprot, pdb])
        state = m.begin_incremental(merged)
        assert state.target.is_valid()
        assert state.target.valuations \
            == m.transform(merged).target.valuations

        entry = sorted(merged.objects_of("SpEntry"), key=str)[0]
        structure = sorted(merged.objects_of("PdbStructure"), key=str)[0]
        new_structure_value = merged.value_of(structure).with_field(
            "resolution", 9.9)
        delta = Delta(updates={"PdbStructure": {
            structure: new_structure_value}},
            deletes={"SpEntry": (entry,)})
        held = held_indexes(state)
        assert held
        result = state.apply_delta(delta)
        assert state.target.is_valid()
        oracle = m.transform(state.source).target
        assert result.target.valuations == oracle.valuations
        assert_counts_equal_fresh_run(state)
        assert_indexes_patched_in_place(state, held)

    def test_synthetic_wide_differential(self):
        width, items = 6, 40
        source_schema, target_schema = synthetic.wide_schemas(width)
        m = Morphase([source_schema], target_schema,
                     synthetic.wide_program(width))
        source = synthetic.wide_instance(width, items)
        merged = m._merge_sources(source)
        state = m.begin_incremental(merged)
        assert state.target.is_valid()
        item = sorted(merged.objects_of("Item"), key=str)[0]
        new_item = Oid.fresh("Item")
        fields = {"name": "brand-new"}
        fields.update({f"a{i}": f"nv{i}" for i in range(width)})
        delta = Delta(
            inserts={"Item": {new_item: Record.of(**fields)}},
            updates={"Item": {item: merged.value_of(item).with_field(
                "a0", "patched")}})
        result = state.apply_delta(delta)
        assert state.target.is_valid()
        oracle = m.transform(state.source).target
        assert result.target.valuations == oracle.valuations
        assert result.stats.clauses_recomputed == 0
        assert_counts_equal_fresh_run(state)


class TestUnseedableClauseFallback:
    """``L.item in Item`` is a member atom no seed oid can be unified
    into, so the clause has no seeded plan for ``Item`` and runs whole —
    retracted over the old instance, re-derived over the new — whenever
    it can observe the delta."""

    SOURCE = Schema.of(
        "Src",
        Item=record(name=STR, rank=INT, via=set_of(ClassType("Link"))),
        Link=record(label=STR, item=ClassType("Item")))
    TARGET = Schema.of("Tgt", Out=record(name=STR, rank=INT))
    PROGRAM = parse_program(
        "T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R"
        " <= L in Link, L.item in Item, N = L.item.name, R = L.item.rank;",
        classes=["Item", "Link", "Out"])

    def session(self):
        builder = InstanceBuilder(self.SOURCE)
        items = [builder.new("Item", Record.of(name=name, rank=rank,
                                               via=WolSet.of()))
                 for name, rank in (("a", 1), ("b", 2), ("c", 3))]
        links = [builder.new("Link", Record.of(label=f"l{n}", item=item))
                 for n, item in enumerate(items[:2])]
        state = IncrementalTransform(self.PROGRAM, builder.freeze(),
                                     self.TARGET)
        assert [seed.plan is None for seed in state._seeds[0]] \
            == [False, True]
        return state, items, links

    def check(self, state, delta):
        result = state.apply_delta(delta)
        assert state.target.is_valid()
        oracle, _ = execute(self.PROGRAM, state.source, self.TARGET)
        assert (json.dumps(instance_to_json(result.target), sort_keys=True)
                == json.dumps(instance_to_json(oracle), sort_keys=True))
        assert_counts_equal_fresh_run(state)
        assert result.stats.clauses_recomputed >= 1
        return result

    def item(self, name, rank):
        return Record.of(name=name, rank=rank, via=WolSet.of())

    def test_insert(self):
        state, items, _ = self.session()
        item, link = Oid.fresh("Item"), Oid.fresh("Link")
        result = self.check(state, Delta(inserts={
            "Item": {item: self.item("d", 4)},
            "Link": {link: Record.of(label="l9", item=item)}}))
        assert result.target.class_sizes() == {"Out": 3}

    def test_update_through_the_reference(self):
        # No Link changes; the clause reads Item.rank through L.item.
        state, items, _ = self.session()
        result = self.check(state, Delta(updates={
            "Item": {items[0]: self.item("a", 10)}}))
        assert sorted(result.target.attribute(oid, "rank")
                      for oid in result.target.objects_of("Out")) == [2, 10]

    def test_delete(self):
        state, _, links = self.session()
        result = self.check(state, Delta(deletes={"Link": (links[0],)}))
        assert result.target.class_sizes() == {"Out": 1}

    def test_chained_mixed_deltas(self):
        state, items, links = self.session()
        link = Oid.fresh("Link")
        self.check(state, Delta(
            inserts={"Link": {link: Record.of(label="l2", item=items[2])}},
            updates={"Item": {items[1]: self.item("b2", 2)}},
            deletes={"Link": (links[0],)}))
        self.check(state, Delta(
            updates={"Link": {link: Record.of(label="l2", item=items[0])}}))
        self.check(state, Delta(deletes={"Link": (link, links[1])}))
        assert state.target.size() == 0

    def test_unobserved_change_skips_the_clause(self):
        state, _, links = self.session()
        result = state.apply_delta(Delta(updates={
            "Link": {links[0]: state.source.value_of(
                links[0]).with_field("label", "renamed")}}))
        assert result.stats.clauses_recomputed == 0
        assert result.stats.clauses_skipped == 1
        assert_counts_equal_fresh_run(state)

    def test_phase_3_only_unseedability(self):
        """A Link the clause reads is re-pointed while an Item gains a
        reference to it through ``via``, which the clause never reads:
        over the old instance the Link's referrer closure holds no Item
        (a seeded join would answer), over the new one it does (it
        cannot) — and by then the pool has been rebased, so the whole
        clause must have been retracted over the old instance already."""
        state, items, links = self.session()
        self.check(state, Delta(updates={
            "Link": {links[0]: Record.of(label="l0", item=items[2])},
            "Item": {items[1]: state.source.value_of(
                items[1]).with_field("via", WolSet.of(links[0]))}}))

    def test_induced_conflict_spends_the_session(self):
        # A second Link reaching an Item named "a" with another rank.
        state, items, _ = self.session()
        delta = Delta(
            inserts={"Link": {Oid.fresh("Link"): Record.of(
                label="l2", item=items[2])}},
            updates={"Item": {items[2]: self.item("a", 3)}})
        with pytest.raises(ExecutionError, match="not functional"):
            execute(self.PROGRAM, delta.apply_to(state.source), self.TARGET)
        with pytest.raises(ExecutionError, match="not functional"):
            state.apply_delta(delta)
        with pytest.raises(ExecutionError, match="spent"):
            state.apply_delta(Delta())


class TestFreezeErrorParity:
    """A failing delta raises what ``execute`` over the updated source
    raises — type and message — because both freeze through
    ``TargetStore.freeze``."""

    def assert_same_error(self, program, source, target_schema, delta):
        session = IncrementalTransform(program, source, target_schema)
        with pytest.raises(ExecutionError) as batch:
            execute(program, delta.apply_to(source), target_schema)
        with pytest.raises(ExecutionError) as incremental:
            session.apply_delta(delta)
        assert str(incremental.value) == str(batch.value)
        return str(batch.value)

    def test_deleted_peer_with_several_referrers(self):
        # Eight live referrers dangle at once; full validation names
        # the first in ``str(oid)`` order, not whichever a set yields.
        source_schema = Schema.of("Src", PeerS=record(name=STR),
                                  Item=record(name=STR, peer=STR))
        target_schema = Schema.of(
            "Tgt", Out=record(name=STR, peer=ClassType("Peer")),
            Peer=record(name=STR))
        program = parse_program(
            "P: X in Peer, X = Mk_Peer(N), X.name = N"
            " <= S in PeerS, N = S.name;"
            "T: Y in Out, Y = Mk_Out(N), Y.name = N, Y.peer = Mk_Peer(M)"
            " <= I in Item, N = I.name, M = I.peer;",
            classes=["PeerS", "Item", "Out", "Peer"])
        builder = InstanceBuilder(source_schema)
        peer = builder.new("PeerS", Record.of(name="p"))
        for name in "hgfedcba":
            builder.new("Item", Record.of(name=name, peer="p"))
        message = self.assert_same_error(
            program, builder.freeze(), target_schema,
            Delta(deletes={"PeerS": (peer,)}))
        assert message == (
            "transformation produced an ill-formed instance: class Out, "
            "object &Out[\"a\"]: value references &Peer[\"p\"], which is "
            "not in the instance")

    def test_two_objects_left_incomplete(self):
        source_schema = Schema.of("Src", Item=record(name=STR, rank=INT),
                                  Tag=record(name=STR))
        target_schema = Schema.of("Tgt", Out=record(name=STR, rank=INT))
        program = parse_program(
            "T: Y in Out, Y = Mk_Out(N), Y.name = N, Y.rank = R"
            " <= I in Item, N = I.name, R = I.rank;"
            "U: Y in Out, Y = Mk_Out(N), Y.name = N <= G in Tag, N = G.name;",
            classes=["Item", "Tag", "Out"])
        builder = InstanceBuilder(source_schema)
        builder.new("Item", Record.of(name="a", rank=1))
        message = self.assert_same_error(
            program, builder.freeze(), target_schema,
            Delta(inserts={"Tag": {Oid.fresh("Tag"): Record.of(name=name)
                                   for name in ("x", "y")}}))
        assert message.count("missing attributes ['rank']") == 2


# ----------------------------------------------------------------------
# Constraint clauses in the one session
# ----------------------------------------------------------------------

def audit_oracle(instance, constraints):
    report = audit_constraints(instance, constraints,
                               limit_per_clause=None)
    return sorted(str(v) for name in report.violations
                  for v in report.violations[name])


def audit_session(instance, constraints):
    """Constraints only: the session over an empty program."""
    return IncrementalTransform((), instance, instance.schema,
                                constraints=constraints)


def assert_constraint_indexes_shared(state, held):
    """The constraints' index paths live in the program's one pool."""
    assert state.audit_plan.pool is state.plan.pool
    assert set(state.audit_plan.index_paths()) <= set(held)


class TestIncrementalAudit:
    @pytest.fixture(scope="class")
    def warehouse(self, genome_morphase, genome_source):
        return genome_morphase.transform(genome_source).target

    def test_initial_matches_batch_audit(self, warehouse):
        constraints = genome.warehouse_constraints()
        audit = audit_session(warehouse, constraints)
        assert sorted(str(v) for v in audit.violations()) \
            == audit_oracle(warehouse, constraints)

    def test_delete_raises_inclusion_violation(self, warehouse):
        constraints = genome.warehouse_constraints()
        audit = audit_session(warehouse, constraints)
        rev = ReverseIndex(warehouse)
        seq = next(oid for oid in sorted(
            warehouse.objects_of("SequenceT"), key=str)
            if rev.referrers(oid))
        delta = Delta(deletes={"SequenceT": (seq,)})
        result = audit.apply_delta(delta)
        assert result.added
        assert sorted(str(v) for v in result.violations) \
            == audit_oracle(audit.source, constraints)

    def test_reinsert_retracts_violation(self, warehouse):
        constraints = genome.warehouse_constraints()
        audit = audit_session(warehouse, constraints)
        rev = ReverseIndex(warehouse)
        seq = next(oid for oid in sorted(
            warehouse.objects_of("SequenceT"), key=str)
            if rev.referrers(oid))
        value = warehouse.value_of(seq)
        first = audit.apply_delta(Delta(deletes={"SequenceT": (seq,)}))
        assert first.added
        second = audit.apply_delta(
            Delta(inserts={"SequenceT": {seq: value}}))
        assert second.removed
        assert sorted(str(v) for v in second.violations) \
            == audit_oracle(audit.source, constraints)

    def test_update_rechecks_violations(self, warehouse):
        constraints = genome.warehouse_constraints()
        audit = audit_session(warehouse, constraints)
        clone = sorted(warehouse.objects_of("CloneT"), key=str)[0]
        value = warehouse.value_of(clone)
        delta = Delta(updates={"CloneT": {
            clone: value.with_field("length", -1)}})
        result = audit.apply_delta(delta)
        assert sorted(str(v) for v in result.violations) \
            == audit_oracle(audit.source, constraints)

    def test_insert_supplies_missing_head_witness(self):
        # cities: C4 requires every country to have a capital city.
        # Inserting a country raises a violation; inserting its capital
        # afterwards must retract it — the head-witness recheck path.
        from repro.workloads import cities
        m = Morphase([cities.us_schema(), cities.euro_schema()],
                     cities.target_schema(), cities.PROGRAM_TEXT)
        merged = m._merge_sources([cities.sample_us_instance(),
                                   cities.sample_euro_instance()])
        session = m.begin_incremental(merged)
        constraints = list(m.compile().source_constraints)
        assert session.violations() == []

        country = Oid.fresh("CountryE")
        first = session.apply_delta(Delta(inserts={"CountryE": {
            country: Record.of(name="Utopia", language="utopian",
                               currency="UTO")}}))
        assert len(first.added) == 1
        assert sorted(str(v) for v in first.violations) \
            == audit_oracle(session.source, constraints)

        capital = Oid.fresh("CityE")
        second = session.apply_delta(Delta(inserts={"CityE": {
            capital: Record.of(name="Nowhere", country=country,
                               is_capital=True)}}))
        assert len(second.removed) == 1
        assert second.violations == []
        assert audit_oracle(session.source, constraints) == []
        assert second.target.valuations \
            == m.transform(session.source).target.valuations

    def test_relibase_inverse_constraint_under_updates(self):
        m = Morphase([relibase.swissprot_schema(), relibase.pdb_schema()],
                     relibase.relibase_schema(), relibase.PROGRAM_TEXT)
        swissprot, pdb = relibase.generate_sources(
            proteins=20, structures_per_protein=2, ligands=8,
            bindings=20, seed=4)
        target = m.transform([swissprot, pdb]).target
        constraints = relibase.relibase_constraints()
        audit = audit_session(target, constraints)
        assert sorted(str(v) for v in audit.violations()) \
            == audit_oracle(target, constraints)
        # Corrupt a protein's structures set: drop one element.
        protein = next(
            oid for oid in sorted(target.objects_of("Protein"), key=str)
            if len(target.value_of(oid).get("structures")) > 0)
        structures = list(target.value_of(protein).get("structures"))
        corrupted = target.value_of(protein).with_field(
            "structures", WolSet(frozenset(structures[1:])))
        result = audit.apply_delta(
            Delta(updates={"Protein": {protein: corrupted}}))
        assert sorted(str(v) for v in result.violations) \
            == audit_oracle(audit.source, constraints)
        assert result.violations  # the inverse constraint now fails

    def test_random_audit_sweep(self, warehouse):
        """The constraint-path indexes live in the shared pool: each
        step patches them in place, like the program's."""
        import random
        rng = random.Random(23)
        constraints = genome.warehouse_constraints()
        audit = audit_session(warehouse, constraints)
        for step in range(3):
            instance = audit.source
            deletes = {}
            updates = {}
            for cname in ("GeneT", "SequenceT", "CloneT"):
                extent = sorted(instance.objects_of(cname), key=str)
                if len(extent) < 2:
                    continue
                victims = rng.sample(extent, k=2)
                deletes[cname] = (victims[0],)
                value = instance.value_of(victims[1])
                if value.has("map_position"):
                    updates[cname] = {victims[1]: value.with_field(
                        "map_position", f"22q{step}")}
            held = held_indexes(audit)
            assert_constraint_indexes_shared(audit, held)
            result = audit.apply_delta(
                Delta(deletes=deletes, updates=updates))
            assert_indexes_patched_in_place(audit, held)
            assert sorted(str(v) for v in result.violations) \
                == audit_oracle(audit.source, constraints)

    def test_cities_stream_keeps_target_and_violations(self):
        """Program and source constraints in one session under the
        seeded cities write stream: after every step the target bytes
        equal ``execute``, the violations ``audit_constraints``, the
        store counts a fresh pass, and every index of the one pool
        (the constraint paths included) a fresh build, patched in
        place."""
        morphase = cities_morphase()
        state = morphase.begin_incremental(cities_sources())
        constraints = list(morphase.compile().source_constraints)
        assert len(state.constraints) == 3
        writes = CitiesStream(seed=11)
        for _ in range(12):
            held = held_indexes(state)
            assert_constraint_indexes_shared(state, held)
            result = state.apply_delta(writes.next(state.source))
            assert_indexes_patched_in_place(state, held)
            assert canonical_json(instance_to_json(result.target)) \
                == canonical_json(instance_to_json(
                    morphase.transform(state.source).target))
            assert sorted(str(v) for v in result.violations) \
                == audit_oracle(state.source, constraints)
            assert_counts_equal_fresh_run(state)


# ----------------------------------------------------------------------
# A step's run record
# ----------------------------------------------------------------------

def _incremental_probes():
    label = {"engine": "incremental"}
    return (REGISTRY.value("repro_engine_index_hits_total", label),
            REGISTRY.value("repro_engine_index_misses_total", label))


def _cities_rename(instance):
    city = sorted(instance.objects_of("CityE"), key=str)[0]
    return Delta(updates={"CityE": {
        city: instance.value_of(city).with_field("name", "Renamed")}})


def _genome_insert(instance):
    gene = Oid.keyed("Gene", "GNEW")
    return Delta(inserts={
        "Gene": {gene: Record.of(
            name="GNEW", symbol=WolSet.of("gnew"),
            description=WolSet.of("a new gene"))},
        "Sequence": {Oid.keyed("Sequence", "SNEW"): Record.of(
            name="SNEW", dna_length=WolSet.of(123),
            method=WolSet.of("pcr"), gene=WolSet.of(gene))}})


class TestStepChargesItsProbes:
    """A delta step charges the session pool's probes to its own
    ``ExecutionStats``, and the registry's ``incremental`` counters are
    fed from that record."""

    @pytest.mark.parametrize("workload", ["cities", "genome"])
    def test_step_probes_equal_the_pool_delta(self, workload):
        morphase, sources, make_delta = {
            "cities": (cities_morphase, cities_sources, _cities_rename),
            "genome": (genome_stream_morphase, genome_sources,
                       _genome_insert)}[workload]
        state = morphase().begin_incremental(sources())
        pool = state.plan.pool
        before = pool.hits + pool.misses
        published = _incremental_probes()
        stats = state.apply_delta(make_delta(state.source)).stats
        probes = stats.index_hits + stats.index_misses
        assert probes == pool.hits + pool.misses - before
        assert probes > 0
        hits, misses = _incremental_probes()
        assert (hits - published[0], misses - published[1]) \
            == (stats.index_hits, stats.index_misses)
        # A step reports its clauses and bindings in its own fields.
        assert stats.clauses_run == stats.bindings_found == 0
        assert stats.clauses_seeded > 0
