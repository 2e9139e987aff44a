"""Cross-engine differential fuzzing.

Four semantically-equivalent execution paths coexist: the naive
dynamic matcher (the oracle, ``repro.oracle``), the planned columnar
path (production), the CPL translation and the incremental delta
engine.  This suite generates random schemas (attribute width varies),
instances and deltas with Hypothesis and holds every pair of engines to
*byte-equal* serialised targets and *equal* violation sets — the
strongest oracle the JSON interchange format supports.

All generated source objects are Skolem-keyed, so serialisations are
stable across runs and processes (anonymous oids would embed unstable
serials).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.library import schema_constraints
from repro.engine import ExecutionError, IncrementalTransform, execute
from repro.io.json_io import instance_to_json
from repro.evolution.delta import Delta
from repro.lang import parse_program
from repro.model import INT, STR, InstanceBuilder, Record, Schema, record
from repro.model.schema import parse_schema
from repro.model.values import Oid
from repro.morphase import Morphase
from repro.oracle import naive_transform, naive_violations
from repro.semantics.satisfaction import program_violations

from tests.differential import execute_both


def serialized(instance) -> str:
    return json.dumps(instance_to_json(instance), sort_keys=True)


# ----------------------------------------------------------------------
# Generated universe: a two-class source, a keyed target with a
# set-accumulating link class, and the program between them.
# ----------------------------------------------------------------------

def source_schema_text(width: int) -> str:
    vals = ", ".join(f"v{i}: int" for i in range(width))
    return f"""
    schema Src {{
      class A = (name: str, {vals});
      class B = (name: str, ref: A, w: int);
    }}
    """


def target_schema_text(width: int) -> str:
    vals = ", ".join(f"v{i}: int" for i in range(width))
    return f"""
    schema Tgt {{
      class AT = (name: str, {vals}) key name;
      class BT = (name: str, ref: AT, w: int) key name;
      class LT = (a: AT, ws: {{int}}) key a.name;
    }}
    """


def program_text(width: int) -> str:
    heads = ", ".join(f"X.v{i} = V{i}" for i in range(width))
    bodies = ", ".join(f"V{i} = A.v{i}" for i in range(width))
    return f"""
    transformation TA:
      X in AT, X.name = N, {heads}
      <= A in A, N = A.name, {bodies};

    transformation TB:
      Y in BT, Y.name = M, Y.ref = X, Y.w = W
      <= B in B, M = B.name, W = B.w, A = B.ref,
         X in AT, X.name = A.name;

    transformation TL:
      L in LT, L.a = X, W in L.ws
      <= B in B, W = B.w, A = B.ref, X in AT, X.name = A.name;
    """


@st.composite
def universes(draw):
    """A generated (schema width, source instance, delta) triple.

    Object names are index-unique (Hypothesis varies counts and
    payloads, not key collisions — conflicting keyed inserts are a
    *program* property tested separately), and every generated object
    is keyed so serialisations are byte-stable.  The delta inserts new
    A/B objects, rewrites existing Bs (payload or reference) and
    deletes Bs — reference targets are always drawn from A objects that
    survive, keeping the updated instance well-formed.
    """
    width = draw(st.integers(min_value=1, max_value=3))
    a_count = draw(st.integers(min_value=0, max_value=6))
    a_payloads = draw(st.lists(
        st.tuples(*([st.integers(-5, 5)] * width)),
        min_size=a_count, max_size=a_count))
    b_count = draw(st.integers(min_value=0, max_value=8))
    b_specs = draw(st.lists(
        st.tuples(st.integers(0, max(a_count - 1, 0)),
                  st.integers(-9, 9)),
        min_size=b_count, max_size=b_count)) if a_count else []

    schema = parse_schema(source_schema_text(width))
    builder = InstanceBuilder(schema)
    a_oids = []
    for index, payload in enumerate(a_payloads):
        fields = {"name": f"a{index}"}
        fields.update({f"v{i}": payload[i] for i in range(width)})
        a_oids.append(builder.make("A", f"a{index}",
                                   Record.of(**fields)))
    b_oids = []
    for index, (ref, w) in enumerate(b_specs):
        b_oids.append(builder.make("B", f"b{index}", Record.of(
            name=f"b{index}", ref=a_oids[ref], w=w)))
    source = builder.freeze()

    # Delta: mutate only B (plus fresh A inserts), so deletions never
    # dangle and inserts never collide with existing keys.
    new_a = draw(st.integers(min_value=0, max_value=2))
    inserts_a = {}
    for index in range(new_a):
        name = f"na{index}"
        fields = {"name": name}
        fields.update({f"v{i}": draw(st.integers(-5, 5))
                       for i in range(width)})
        inserts_a[Oid.keyed("A", name)] = Record.of(**fields)
    all_a = a_oids + list(inserts_a)

    deletable = list(b_oids)
    delete_count = draw(st.integers(0, len(deletable))) if deletable else 0
    deletes_b = tuple(deletable[:delete_count])
    survivors = deletable[delete_count:]
    updates_b = {}
    for oid in survivors:
        if not draw(st.booleans()):
            continue
        ref = all_a[draw(st.integers(0, len(all_a) - 1))] if all_a \
            else None
        if ref is None:
            continue
        updates_b[oid] = Record.of(
            name=source.value_of(oid).get("name"), ref=ref,
            w=draw(st.integers(-9, 9)))
    inserts_b = {}
    if all_a:
        for index in range(draw(st.integers(0, 2))):
            name = f"nb{index}"
            inserts_b[Oid.keyed("B", name)] = Record.of(
                name=name,
                ref=all_a[draw(st.integers(0, len(all_a) - 1))],
                w=draw(st.integers(-9, 9)))

    delta = Delta(
        inserts={cname: group for cname, group in
                 (("A", inserts_a), ("B", inserts_b)) if group},
        deletes={"B": deletes_b} if deletes_b else {},
        updates={"B": updates_b} if updates_b else {})
    return width, source, delta


def build_morphase(width: int) -> Morphase:
    return Morphase([parse_schema(source_schema_text(width))],
                    parse_schema(target_schema_text(width)),
                    program_text(width))


# ----------------------------------------------------------------------
# Transform engines agree
# ----------------------------------------------------------------------

class TestTransformEngines:
    @settings(max_examples=40, deadline=None)
    @given(universes())
    def test_naive_planned_cpl_byte_equal(self, universe):
        width, source, _ = universe
        morphase = build_morphase(width)
        planned = morphase.transform(source).target
        naive = naive_transform(morphase, source).target
        cpl = morphase.transform(source, backend="cpl").target
        baseline = serialized(planned)
        assert serialized(naive) == baseline
        assert serialized(cpl) == baseline

    @settings(max_examples=40, deadline=None)
    @given(universes())
    def test_incremental_matches_recompute_and_oracle(self, universe):
        width, source, delta = universe
        morphase = build_morphase(width)
        state = morphase.begin_incremental(source)
        result = state.apply_delta(delta)
        updated_source = delta.apply_to(
            morphase._merge_sources(source))
        recomputed = morphase.transform(updated_source).target
        naive = naive_transform(morphase, updated_source).target
        assert serialized(result.target) == serialized(recomputed)
        assert serialized(naive) == serialized(recomputed)


# ----------------------------------------------------------------------
# Columnar vs naive on a program with a pattern equation
# ----------------------------------------------------------------------

MIXED_SRC_TEXT = """
schema MSrc {
  class C = (name: str, pt: (x: int, y: int));
}
"""

MIXED_TGT_TEXT = """
schema MTgt {
  class CT = (name: str, x: int, y: int) key name;
}
"""

#: The record-pattern equation ``(x = X, y = Y) = C.pt`` destructures
#: each row's point between two other batch stages: a type and
#: label-set test, then one gather per field.
MIXED_PROGRAM_TEXT = """
transformation TC:
  Z in CT, Z.name = M, Z.x = X, Z.y = Y
  <= C in C, M = C.name, (x = X, y = Y) = C.pt;
"""


class TestPatternStages:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                    min_size=1, max_size=8))
    def test_pattern_equation_preserves_byte_equality(self, points):
        schema = parse_schema(MIXED_SRC_TEXT)
        builder = InstanceBuilder(schema)
        for index, (x, y) in enumerate(points):
            builder.make("C", f"c{index}", Record.of(
                name=f"c{index}", pt=Record.of(x=x, y=y)))
        source = builder.freeze()
        morphase = Morphase([schema], parse_schema(MIXED_TGT_TEXT),
                            MIXED_PROGRAM_TEXT)
        columnar = morphase.transform(source)
        naive = naive_transform(morphase, source)
        assert serialized(columnar.target) == serialized(naive.target)
        # Every step, the pattern equation's included, ran as one
        # batch stage.
        (plan,) = columnar.plan.plans
        assert any(step.mode == "eq-bind" and step.binds == ("X", "Y")
                   for step in plan.steps)
        assert columnar.stats.vectorized_steps == len(plan.steps)
        assert naive.stats.vectorized_steps == 0
        # Effect counts agree — destructuring neither duplicates nor
        # drops work.
        assert (columnar.stats.objects_created
                == naive.stats.objects_created)
        assert (columnar.stats.attributes_set
                == naive.stats.attributes_set)


# ----------------------------------------------------------------------
# Audit engines agree
# ----------------------------------------------------------------------

class TestAuditEngines:
    @settings(max_examples=40, deadline=None)
    @given(universes(), st.booleans())
    def test_violation_sets_equal(self, universe, corrupt):
        width, source, _ = universe
        morphase = build_morphase(width)
        target = morphase.transform(source).target
        if corrupt and len(target.objects_of("AT")) >= 2:
            # Duplicate one AT's key attribute onto another: the
            # schema-derived key-uniqueness constraints must fire, and
            # every audit engine must report the same counterexamples.
            builder = target.builder()
            ats = sorted(target.objects_of("AT"), key=str)
            builder.put(ats[0], target.value_of(ats[0]).with_field(
                "name", target.value_of(ats[1]).get("name")))
            target = builder.freeze(validate=False)
        constraints = schema_constraints(
            parse_schema(target_schema_text(width)))
        planned = sorted(str(v) for v in program_violations(
            target, constraints, limit_per_clause=None))
        naive = sorted(str(v) for v in naive_violations(
            target, constraints))
        assert naive == planned


# ----------------------------------------------------------------------
# Conflicting heads: keyed rows collide with different values
# ----------------------------------------------------------------------

COLLIDE_SRC = Schema.of("CSrc", S=record(k=STR, a0=INT, a1=INT, a2=INT))
COLLIDE_TGT = Schema.of("CTgt", T=record(k=STR, v=INT))


def collide_program(clauses: int):
    """Clause ``Ti`` writes ``T(k).v`` from source attribute ``ai``: rows
    sharing a key collide within a clause when their ``ai`` differ, and
    across clauses when their ``ai`` and ``aj`` do."""
    return parse_program(" ".join(
        f"T{i}: X in T, X = Mk_T(K), X.k = K, X.v = V"
        f" <= S in S, K = S.k, V = S.a{i};" for i in range(clauses)),
        classes=["S", "T"])


def collide_record(key: str, values) -> Record:
    return Record.of(k=key, **{f"a{i}": value
                               for i, value in enumerate(values)})


ROWS = st.lists(st.tuples(st.sampled_from("pq"),
                          st.tuples(*([st.integers(0, 2)] * 3))),
                min_size=1, max_size=6)


class TestConflictingHeads:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), ROWS)
    def test_every_leg_raises_one_text(self, clauses, rows):
        builder = InstanceBuilder(COLLIDE_SRC)
        for index, (key, values) in enumerate(rows):
            builder.make("S", f"s{index}", collide_record(key, values))
        try:
            target, _ = execute_both(collide_program(clauses),
                                     builder.freeze(), COLLIDE_TGT)
        except ExecutionError as exc:
            assert str(exc).endswith("(the program is not functional)")
        else:
            assert target.size() == len({key for key, _ in rows})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.dictionaries(st.sampled_from("pq"),
                                              st.integers(0, 2),
                                              min_size=1), ROWS)
    def test_a_colliding_delta_spends_the_session_with_the_batch_text(
            self, clauses, base, rows):
        program = collide_program(clauses)
        builder = InstanceBuilder(COLLIDE_SRC)
        for key, value in base.items():
            builder.make("S", f"b{key}", collide_record(key, [value] * 3))
        session = IncrementalTransform(program, builder.freeze(),
                                       COLLIDE_TGT)
        delta = Delta(inserts={"S": {
            Oid.keyed("S", f"s{index}"): collide_record(key, values)
            for index, (key, values) in enumerate(rows)}})
        try:
            recomputed, _ = execute(program, delta.apply_to(session.source),
                                    COLLIDE_TGT)
        except ExecutionError as batch:
            with pytest.raises(ExecutionError) as step:
                session.apply_delta(delta)
            assert str(step.value) == str(batch)
            with pytest.raises(ExecutionError) as spent:
                session.apply_delta(Delta())
            assert str(spent.value) == (f"incremental session is spent "
                                        f"({batch}); start a new one")
        else:
            result = session.apply_delta(delta)
            assert serialized(result.target) == serialized(recomputed)
