"""Projections off class-typed references gather from attribute columns.

An equation ``V = X.a`` whose ``X`` is class-typed and whose ``a`` the
schema declares a class types ``V`` as that class, so ``V.b`` reads the
prebuilt column of ``b`` instead of decoding each referenced object
(``Instance.value_of`` plus ``Record.get`` per row).  Rows must equal
the oracle's over two hops, and after an ingest deletes a referenced
object its dangling references drop their rows, as the oracle drops
them.  The references a column holds are the referenced class's
extent objects, built or patched, so a warm gather finds every one by
identity: no two oids are compared field by field.
"""

import pytest

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.engine import IncrementalTransform, execute
from repro.evolution.delta import Delta
from repro.io.json_io import canonical_json, instance_to_json
from repro.lang import parse_program
from repro.model import parse_schema
from repro.model.instance import Instance, InstanceBuilder
from repro.model.values import Oid, Record
from repro.morphase import Morphase
from repro.oracle import naive_execute
from repro.query.query import Query
from repro.semantics.match import IndexPool
from repro.workloads import genome

SOURCE = parse_schema("""
schema Chain {
  class A = (name: str, next: B);
  class B = (name: str, next: C);
  class C = (name: str);
}
""")
TARGET = parse_schema("""
schema Out {
  class Out = (name: str, end: str);
}
""")
TWO_HOPS = "N, E | X in A, N = X.name, S = X.next, T = S.next, E = T.name"
PROGRAM = parse_program(
    "O: Y in Out, Y = Mk_Out(N), Y.name = N, Y.end = E"
    " <= X in A, N = X.name, S = X.next, T = S.next, E = T.name;",
    classes=["A", "B", "C", "Out"])

#: Literal copies of bodies in benchmarks/e2e/workloads.py (READ_POOL
#: and the program queries): every projection is off a class-typed
#: variable, so on a warm pool (as a serving session's) none reads an
#: object's value.
GENOME_BODIES = (
    "N | C in CloneT, S = C.seq, N = S.name",
    "N | P in SeqGene, S = P.seq, N = S.name",
    "N, Y | P in SeqGene, S = P.seq, G = P.gene, N = S.name, "
    "Y = G.symbol",
    "C, N, Y | X in CloneT, C = X.name, S = X.seq, N = S.name, "
    "P in SeqGene, P.seq = S, G = P.gene, Y = G.symbol",
)


def chain():
    """Four As over three Bs over two Cs: references are shared."""
    builder = InstanceBuilder(SOURCE)
    cs = [builder.new("C", Record.of(name=f"c{n}")) for n in range(2)]
    bs = [builder.new("B", Record.of(name=f"b{n}", next=cs[n % 2]))
          for n in range(3)]
    for n in range(4):
        builder.new("A", Record.of(name=f"a{n}", next=bs[n % 3]))
    return builder.freeze(), cs


def planned_rows(instance, body, pool=None):
    """The rows of ``Query.run_planned``, as sorted canonical JSON."""
    query = Query.parse(body, classes=instance.schema.class_names())
    names, batch, count = query.run_planned(instance, pool=pool)
    return sorted(canonical_json({name: str(batch[name][row])
                                  for name in names})
                  for row in range(count))


def oracle_rows(instance, body):
    """The rows of the dynamic matcher (``Query.run``), likewise."""
    query = Query.parse(body, classes=instance.schema.class_names())
    names = query.projection or query.variables()
    return sorted(canonical_json({name: str(row[name]) for name in names})
                  for row in query.run(instance))


def count_value_of(monkeypatch):
    calls = []
    value_of = Instance.value_of

    def counted(instance, oid):
        calls.append(oid)
        return value_of(instance, oid)
    monkeypatch.setattr(Instance, "value_of", counted)
    return calls


def count_oid_comparisons(monkeypatch):
    calls = []
    equal = Oid.__eq__

    def counted(oid, other):
        calls.append(oid)
        return equal(oid, other)
    monkeypatch.setattr(Oid, "__eq__", counted)
    return calls


def test_two_hop_references_gather_the_oracle_rows(monkeypatch):
    instance, _cs = chain()
    pool = IndexPool(instance)
    calls = count_value_of(monkeypatch)
    planned = planned_rows(instance, TWO_HOPS, pool)
    assert calls == []
    assert planned == oracle_rows(instance, TWO_HOPS) and len(planned) == 4


def test_a_dangling_reference_drops_its_row_after_an_ingest():
    instance, cs = chain()
    session = IncrementalTransform(PROGRAM, instance, TARGET)
    assert len(planned_rows(session.source, TWO_HOPS,
                            session.plan.pool)) == 4
    delta = Delta(deletes={"C": (cs[0],)})
    result = session.apply_delta(delta)
    # Bs b0 and b2 now reference the deleted c0: only a1 (via b1)
    # still reaches a C.
    assert planned_rows(session.source, TWO_HOPS, session.plan.pool) \
        == oracle_rows(session.source, TWO_HOPS) \
        == [canonical_json({"E": "c1", "N": "a1"})]
    updated = delta.apply_to(instance)
    for reference, _stats in (execute(PROGRAM, updated, TARGET),
                              naive_execute(PROGRAM, updated, TARGET)):
        assert instance_to_json(result.target) \
            == instance_to_json(reference)
    assert len(result.target.objects_of("Out")) == 1


def respelled(oid):
    """An oid equal to ``oid`` that is another object."""
    spelled = Oid(oid.class_name, serial=oid.serial)
    assert spelled == oid and spelled is not oid
    return spelled


def test_a_patched_reference_is_the_extent_object(monkeypatch):
    """A row an ingest appends holds its reference as the referenced
    extent's object, even when the delta spelled it as another, equal
    oid — also when it names an object the same delta inserts into a
    class patched after it."""
    instance, _cs = chain()
    session = IncrementalTransform(PROGRAM, instance, TARGET)
    pool = session.plan.pool
    planned_rows(session.source, TWO_HOPS, pool)     # build the columns
    b0 = next(oid for oid in instance.objects_of("B")
              if instance.value_of(oid).get("name") == "b0")
    c_new, b_new = Oid.fresh("C"), Oid.fresh("B")
    session.apply_delta(Delta(inserts={
        "A": {Oid.fresh("A"): Record.of(name="a-old", next=respelled(b0)),
              Oid.fresh("A"): Record.of(name="a-new",
                                        next=respelled(b_new))},
        "B": {b_new: Record.of(name="b-new", next=respelled(c_new))},
        "C": {c_new: Record.of(name="c-new")}}))
    assert pool.columns().rows_patched == 4
    calls = count_oid_comparisons(monkeypatch)
    planned = planned_rows(session.source, TWO_HOPS, pool)
    assert calls == []
    assert {canonical_json({"E": "c0", "N": "a-old"}),
            canonical_json({"E": "c-new", "N": "a-new"})} <= set(planned)
    monkeypatch.undo()
    assert planned == oracle_rows(session.source, TWO_HOPS)


@pytest.fixture(scope="module")
def genome_target():
    morphase = Morphase(
        [schema_of_acedb(AceDatabase("ACe22", genome.ACE_CLASSES))],
        genome.warehouse_schema(), genome.PROGRAM_TEXT)
    return morphase.transform(genome.source_instance()).target


@pytest.mark.parametrize("body", GENOME_BODIES)
def test_read_mix_reference_bodies_read_no_object_values(
        monkeypatch, genome_target, body):
    pool = IndexPool(genome_target)
    planned_rows(genome_target, body, pool)    # build the indexes
    calls = count_value_of(monkeypatch)
    planned = planned_rows(genome_target, body, pool)
    assert calls == []
    assert planned == oracle_rows(genome_target, body) and planned


@pytest.mark.parametrize("body", GENOME_BODIES[:3])
def test_a_warm_gather_compares_no_oids(monkeypatch, genome_target, body):
    """The bodies that reach objects only through references.  (The
    link-class join probes an index whose keys are the records' own
    oids, and tests ``P.seq = S`` with ``==``: both still compare.)"""
    pool = IndexPool(genome_target)
    first = planned_rows(genome_target, body, pool)
    calls = count_oid_comparisons(monkeypatch)
    assert planned_rows(genome_target, body, pool) == first
    assert calls == [] and first
