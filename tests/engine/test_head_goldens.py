"""Head application, pinned byte for byte: every error a clause head
can raise, and the target of a head whose identities nest.

``goldens/heads.txt`` holds, per case, the full :class:`ExecutionError`
text or the canonical JSON of the target.  The hand-written programs run
through ``execute_both`` (production, the oracle and a session start,
held to the same outcome); the warehouse cases run as the tests they
come from run them.  Cases cover every check of the head, in the order
one firing makes them:

* identities (in dependency order): an argument that fails to
  evaluate, a body binding the head identity disagrees with;
* created objects: no identity, an identity of another class;
* assignments and insertions: a subject that is not an object, a value
  or element that fails to evaluate;
* residual head checks;
* then, per effect, a subject outside the target classes and the eager
  functionality check against the store and the firings before it —
  within one clause, within one firing, across clauses.

The ``order:`` cases put two of these in one batch, so the golden pins
which one a firing reports first.

To regenerate after an intentional change::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/engine/test_head_goldens.py
"""

import json
import os

import pytest

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.engine import ExecutionError, IncrementalTransform, execute
from repro.evolution.delta import Delta
from repro.io.json_io import instance_to_json
from repro.lang import parse_program
from repro.model import (INT, STR, ClassType, InstanceBuilder, Record,
                         Schema, WolSet, record, set_of)
from repro.model.schema import parse_schema
from repro.model.values import Oid
from repro.morphase import Morphase
from repro.workloads import cities, genome

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "heads.txt")

SRC = Schema.of("Src", Item=record(name=STR, rank=INT, c=STR))
TGT = Schema.of("Tgt", Out=record(name=STR, rank=INT, tags=set_of(STR)))
NESTED_TGT = Schema.of(
    "Tgt", CountryT=record(name=STR),
    CityT=record(name=STR, country=ClassType("CountryT")))


def items(rows=(("a", 1, "p"), ("b", 2, "q"), ("c", 2, None))):
    """Keyed items (stable names in every message); ``None`` leaves
    ``c`` out, so a projection of it fails on that row."""
    builder = InstanceBuilder(SRC)
    for name, rank, c in rows:
        fields = {"name": name, "rank": rank}
        if c is not None:
            fields["c"] = c
        builder.make("Item", name, Record.of(**fields))
    return builder.freeze(validate=False)


def wide(assignments, rows):
    """``tests/engine/test_columnar.py``'s arity cases: ``assignments``
    attribute writes through one created object keyed by ``grp``."""
    attrs = [f"a{index}" for index in range(1, assignments + 1)]
    source_schema = Schema.of(
        "WSrc", Item=record(grp=STR, **{attr: INT for attr in attrs}))
    builder = InstanceBuilder(source_schema)
    for grp, values in rows:
        builder.new("Item", Record.of(grp=grp, **dict(zip(attrs, values))))
    head = ", ".join(f"X.{attr} = V{index}"
                     for index, attr in enumerate(attrs))
    body = ", ".join(f"V{index} = I.{attr}"
                     for index, attr in enumerate(attrs))
    program = parse_program(
        f"T: X in Out, X = Mk_Out(G), {head}"
        f" <= I in Item, G = I.grp, {body};", classes=["Item", "Out"])
    return (program, builder.freeze(),
            Schema.of("WTgt", Out=record(**{attr: INT for attr in attrs})))


def key_items():
    """``tests/engine/test_columnar.py``'s ``key_source``."""
    builder = InstanceBuilder(Schema.of("KSrc",
                                        Item=record(a=STR, b=INT, c=STR)))
    for a, b, c in [("x", 1, "p"), ("x", 1, "p"), ("x", 2, "p"),
                    ("y", 1, "q"), ("x", 1, "p")]:
        builder.new("Item", Record.of(a=a, b=b, c=c))
    builder.new("Item", Record.of(a="z", b=3))
    return builder.freeze(validate=False)


def plain_items():
    """``tests/engine/test_executor*.py``'s anonymous items."""
    builder = InstanceBuilder(Schema.of("Src",
                                        Item=record(name=STR, rank=INT)))
    for name, rank in (("a", 1), ("b", 2), ("c", 2)):
        builder.new("Item", Record.of(name=name, rank=rank))
    return builder.freeze()


def out(text, classes=("Item", "Out")):
    return parse_program(text, classes=list(classes))


FIRST = ("T1: X in Out, X = Mk_Out(N), X.name = N, X.rank = R"
         " <= I in Item, N = I.name, R = I.rank;")

#: name -> (program, source, target schema), run through execute_both.
PROGRAMS = {
    # -- identities ----------------------------------------------------
    "identity: argument fails to evaluate": (
        out("T: X in Out, X = Mk_Out(A, I.c), X.a = A"
            " <= I in Item, A = I.a;"),
        key_items(), Schema.of("KTgt", Out=record(a=STR))),
    "identity: body binding disagrees": (
        out('T: X in Out, X = Mk_Out(N), X.name = N, X.rank = 1'
            ' <= I in Item, N = I.name, X = Mk_Out("fixed");'),
        plain_items(), TGT),
    "identity: nested identities (target)": (
        out("""
            T1: C in CountryT, C = Mk_CountryT(CN), C.name = CN
                <= E in Item, CN = E.name;
            T2: X in CityT, C in CountryT, C = Mk_CountryT(CN),
                C.name = CN, X = Mk_CityT(name = N, country = C),
                X.name = N, X.country = C
                <= E in Item, CN = E.name, N = E.name;
            """, classes=("Item", "CityT", "CountryT")),
        plain_items(), NESTED_TGT),
    # -- created objects -----------------------------------------------
    "create: no identity": (
        out("T: X in Out, X.name = N <= I in Item, N = I.name;"),
        items(), TGT),
    "create: identity of another class": (
        out("T: X in Out, X = Mk_Item(N), X.name = N, X.rank = R"
            " <= I in Item, N = I.name, R = I.rank;"),
        plain_items(), TGT),
    # -- assignments and insertions ------------------------------------
    "assign: subject is not an object": (
        out("T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R,"
            " Y.name = N <= I in Item, N = I.name, R = I.rank,"
            " Y = I.name;"),
        items(), TGT),
    "assign: value fails to evaluate": (
        out("T: X in Out, X = Mk_Out(N), I.c = X.name, X.rank = R"
            " <= I in Item, N = I.name, R = I.rank;"),
        items(), TGT),
    "assign: value dereferences a target object": (
        out("T: X in Out, X = Mk_Out(N), X.name = I.c, X.rank = R"
            " <= I in Item, N = I.name, R = I.rank;"),
        items(), TGT),
    "assign: value reads an unbound variable": (
        out("T: X in Out, X = Mk_Out(N), X.name = N, X.rank = Q"
            " <= I in Item, N = I.name;"),
        items(), TGT),
    "insert: subject is not an object": (
        out("T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R,"
            " N in Y.tags <= I in Item, N = I.name, R = I.rank,"
            " Y = I.name;"),
        items(), TGT),
    "insert: element fails to evaluate": (
        out("T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R,"
            " I.c in X.tags <= I in Item, N = I.name, R = I.rank;"),
        items(), TGT),
    # -- residual checks -----------------------------------------------
    "check: fails": (
        out("T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R, R = 1"
            " <= I in Item, N = I.name, R = I.rank;"),
        items(), TGT),
    # -- effects -------------------------------------------------------
    "effect: assignment subject outside the target classes": (
        out("T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R,"
            " I.name = N <= I in Item, N = I.name, R = I.rank;"),
        items(), TGT),
    "effect: insertion subject outside the target classes": (
        out("T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R,"
            " N in I.tags <= I in Item, N = I.name, R = I.rank;"),
        items(), TGT),
    "conflict: with an earlier clause": (
        out("""
            T1: X in Out, X = Mk_Out(N), X.name = N, X.rank = 0
                <= I in Item, N = I.name;
            T2: X in Out, X = Mk_Out(N), X.rank = R
                <= I in Item, N = I.name, R = I.rank;
            """),
        plain_items(), TGT),
    "conflict: with a filled store": (
        out(FIRST + 'T3: X in Out, X = Mk_Out(N), X.name = "zzz"'
                    ' <= I in Item, N = I.name;'),
        plain_items(), TGT),
    "conflict: after an agreeing write of this clause": (
        out(FIRST + "T2: X in Out, X = Mk_Out(G), X.rank = R"
                    " <= I in Item, R = I.rank, G = \"a\";"),
        items(), TGT),
    "conflict: two writes in one firing": (
        out("T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R,"
            " X.rank = 1 <= I in Item, N = I.name, R = I.rank;"),
        items(), TGT),
    "conflict: one attribute through two subjects": (
        out("""
            T: X in CityT, C in CountryT, C = Mk_CountryT(CN),
               C.name = CN, X = Mk_CityT(N), X.name = N, X.country = C
               <= E in Item, CN = "k", N = E.name;
            U: C in CountryT, C = Mk_CountryT(CN), C.name = N
               <= E in Item, CN = "k", N = E.name;
            """, classes=("Item", "CityT", "CountryT")),
        plain_items(), NESTED_TGT),
    # -- which check a batch reports first -----------------------------
    "order: a conflict before a later row's failed check": (
        out("T: X in Out, X = Mk_Out(G), X.name = G, X.rank = R, C = \"x\""
            " <= I in Item, G = \"g\", R = I.rank, C = I.c;"),
        items((("p", 1, "x"), ("q", 2, "x"), ("r", 3, "y"))), TGT),
    "order: a failed check before the same row's conflict": (
        out("T: X in Out, X = Mk_Out(G), X.name = G, X.rank = R, R = 1"
            " <= I in Item, G = \"g\", R = I.rank;"),
        items((("p", 1, "p"), ("q", 2, "q"))), TGT),
    "order: a conflict before a later effect's subject": (
        out(FIRST + "T2: X in Out, X = Mk_Out(N), X.rank = 9, N in I.tags"
                    " <= I in Item, N = I.name;"),
        items(), TGT),
    "order: a subject before a later effect's conflict": (
        out(FIRST + "T2: X in Out, X = Mk_Out(N), I.name = N, X.rank = 9"
                    " <= I in Item, N = I.name;"),
        items(), TGT),
    "order: an identity before a created object": (
        out("T: X in Out, Y in Out, X = Mk_Out(I.c), Y = Mk_Item(N),"
            " X.name = N <= I in Item, N = I.name;"),
        items((("p", 1, None),)), TGT),
}


# The disagreement sits in the last attribute, so every arity has to
# compare all of its columns.
for _arity in range(1, 7):
    _same = tuple(range(_arity))
    PROGRAMS[f"conflict: last of {_arity} attributes"] = wide(
        _arity, [("g", _same), ("h", _same), ("g", _same[:-1] + (99,))])


def run_case(execute_both, program, source, target_schema):
    try:
        target, _ = execute_both(program, source, target_schema)
    except ExecutionError as exc:
        return f"error: {exc}"
    return "target: " + json.dumps(instance_to_json(target), sort_keys=True)


def transform_error(morphase, sources):
    with pytest.raises(ExecutionError) as info:
        morphase.transform(sources)
    return f"error: {info.value}"


def genome_morphase():
    return Morphase([schema_of_acedb(AceDatabase("ACe22",
                                                 genome.ACE_CLASSES))],
                    genome.warehouse_schema(), genome.PROGRAM_TEXT)


def two_descriptions(morphase, seed):
    """``test_incremental.py``'s and ``test_recovery_fresh_run.py``'s
    conflicting gene: the first gene with one description gets two."""
    source = morphase._merge_sources(genome.source_instance(
        genome.generate_acedb(genes=40, sequences=80, clones=80,
                              sparsity=0.9, seed=seed)))
    genes = sorted(source.objects_of("Gene"), key=str)
    if seed == 5:
        genes = [oid for oid in genes
                 if len(source.value_of(oid).get("description")) == 1]
    gene = genes[0]
    return Delta(updates={"Gene": {gene: source.value_of(gene).with_field(
        "description", WolSet.of("one", "two"))}}).apply_to(
            source, validate_changed=False)


def two_capitals():
    builder = cities.sample_euro_instance().builder()
    france = next(o for o in builder.objects_of("CountryE")
                  if builder.value_of(o).get("name") == "France")
    builder.new("CityE", Record.of(name="Marseille", is_capital=True,
                                   country=france))
    return [cities.sample_us_instance(), builder.freeze()]


def induced_conflict():
    """``test_incremental.py::TestUnseedableClauseFallback``'s delta."""
    source_schema = Schema.of(
        "Src", Item=record(name=STR, rank=INT, via=set_of(ClassType("Link"))),
        Link=record(label=STR, item=ClassType("Item")))
    target_schema = Schema.of("Tgt", Out=record(name=STR, rank=INT))
    program = parse_program(
        "T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R"
        " <= L in Link, L.item in Item, N = L.item.name, R = L.item.rank;",
        classes=["Item", "Link", "Out"])
    builder = InstanceBuilder(source_schema)
    members = [builder.new("Item", Record.of(name=name, rank=rank,
                                             via=WolSet.of()))
               for name, rank in (("a", 1), ("b", 2), ("c", 3))]
    for n, item in enumerate(members[:2]):
        builder.new("Link", Record.of(label=f"l{n}", item=item))
    session = IncrementalTransform(program, builder.freeze(), target_schema)
    delta = Delta(
        inserts={"Link": {Oid.fresh("Link"): Record.of(
            label="l2", item=members[2])}},
        updates={"Item": {members[2]: Record.of(name="a", rank=3,
                                                via=WolSet.of())}})
    with pytest.raises(ExecutionError) as info:
        execute(program, delta.apply_to(session.source), target_schema)
    return f"error: {info.value}"


def dup_conflict():
    """``test_columnar.py``'s ``DUP_PROGRAM`` over two disagreeing
    rows, through ``Morphase.transform``."""
    source_schema = parse_schema(
        "schema DSrc { class Item = (name: str, grp: str, v: int); }")
    builder = InstanceBuilder(source_schema)
    for index, value in enumerate([7, 8]):
        builder.make("Item", f"i{index}", Record.of(
            name=f"i{index}", grp="g", v=value))
    morphase = Morphase(
        [source_schema],
        parse_schema("schema DTgt { class Out = (name: str, v: int) "
                     "key name; }"),
        "constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;\n"
        "transformation T: X in Out, X.name = N, X.v = V\n"
        "  <= I in Item, N = I.grp, V = I.v;\n")
    return transform_error(morphase, builder.freeze())


def render(execute_both):
    lines = []
    for name, (program, source, target_schema) in PROGRAMS.items():
        lines += [f"== {name}",
                  run_case(execute_both, program, source, target_schema)]
    morphase = genome_morphase()
    lines += ["== warehouse: genome gene with two descriptions (seed 5)",
              transform_error(morphase, two_descriptions(morphase, 5)),
              "== warehouse: genome gene with two descriptions (seed 7)",
              transform_error(morphase, two_descriptions(morphase, 7)),
              "== warehouse: cities country with two capitals",
              transform_error(Morphase(
                  [cities.us_schema(), cities.euro_schema()],
                  cities.target_schema(), cities.PROGRAM_TEXT),
                  two_capitals()),
              "== morphase: keyed duplicates disagree",
              dup_conflict(),
              "== session: a delta induces a conflict (batch text)",
              induced_conflict()]
    return "\n".join(lines) + "\n"


def test_heads_match_the_golden(execute_both):
    rendered = render(execute_both)
    if os.environ.get("UPDATE_GOLDENS"):
        with open(GOLDEN, "w") as handle:
            handle.write(rendered)
    with open(GOLDEN) as handle:
        expected = handle.read()
    assert rendered == expected, (
        "head outcomes drifted from tests/engine/goldens/heads.txt; if "
        "the change is intentional, regenerate with UPDATE_GOLDENS=1 and "
        "show the diff in the PR")
