"""Deterministic work bounds on the read path's JSON text (no timing).

Each piece of JSON text is produced once: ``GET /target`` encodes each
target object once and, after an ingest, re-encodes only the objects
the ingest changed — no dump, however often it is read — and the
reads after an ingest probe the target pool the ingest rebased instead
of building a new one.  A ``query`` statement of a query program
renders each distinct (column, value) pair of its batch once (a
string through the escaper ``canonical_json`` itself uses, anything
else through ``canonical_json``) and splices the rows' keys from those
fragments — set algebra and ``limit`` fold the keys they were handed
and render nothing — and ``/query`` and ``/program`` splice those keys
into the response text: no row dict is decoded on the way.  The
benchmark's ``p10`` at genome 4x (seed 11) emits 2 988 rows holding
2 776 distinct pairs: 2 776 renderings, where keying each row renders
2 988 and re-keying rows per statement 8 366.  A read path that
re-encodes per request or per write, renders per row, or re-keys rows
per statement fails these counts.  A result set is sorted only where
its order is read — the program's result and a ``limit`` operand, one
sort per program for ``p6`` and ``p10`` (a limit's output is a prefix
of its sorted operand), one per ``/query`` — never for an
intermediate statement that only feeds set algebra.
"""

import json
import threading
from collections.abc import Set
from http.client import HTTPConnection
from urllib.parse import quote

import pytest

import repro.program.interp as interp
import repro.service.session as session_module
from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.io.json_io import canonical_json, instance_to_json
from repro.morphase import Morphase
from repro.obs.metrics import REGISTRY
from repro.program import ResultSet
from repro.query.query import Query
from repro.semantics.match import IndexPool
from repro.service import envelope_ok, make_server
from repro.workloads import genome

READS = 5

# Literal copies of the query bodies and of programs p6 / p10 in
# benchmarks/e2e/workloads.py: the ruler is frozen per PR, so a copy
# cannot drift unnoticed.
QUERIES = {
    "cloned": "N | C in CloneT, S = C.seq, N = S.name",
    "genic": "N | P in SeqGene, S = P.seq, N = S.name",
    "named": "N | S in SequenceT, N = S.name",
    "short": "N | S in SequenceT, N = S.name, L = S.dna_length, L < 50000",
    "shotgun": 'N | S in SequenceT, N = S.name, M = S.method, '
               'M = "shotgun"',
}
PROGRAMS = {
    "p6": (("cloned", "genic", "named"),
           "core = intersect cloned, genic;\n"
           "rest = difference named, core;\n"
           "all = union core, rest;\n"),
    "p10": (("cloned", "genic", "named", "short", "shotgun"),
            "core = intersect cloned, genic;\n"
            "cheap = intersect short, shotgun;\n"
            "pick = union core, cheap;\n"
            "rest = difference named, pick;\n"
            "top = limit rest 200;\n"),
}

INSERT_GENE = {"inserts": {"Gene": [
    {"id": {"$oid": "Gene", "key": "G-new"},
     "value": {"$rec": {"name": "G-new", "symbol": {"$set": ["sym-new"]},
                        "description": {"$set": ["a new gene"]}}}}]}}


class Calls:
    """Counts calls to one module-level function, by patching the name
    the module under test looks up."""

    def __init__(self, monkeypatch, module, name):
        self.count = 0
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    source_schema = schema_of_acedb(AceDatabase("ACe22", genome.ACE_CLASSES))
    morphase = Morphase([source_schema], genome.warehouse_schema(),
                        genome.PROGRAM_TEXT)
    store = morphase.open_store(
        str(tmp_path_factory.mktemp("bound") / "store"),
        [genome.source_instance(genome.generate_acedb(
            genes=40, sequences=80, clones=80, sparsity=0.9, seed=7))])
    session = morphase.serve(store)
    server = make_server(session)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield session, server.server_address[:2]
    server.shutdown()
    server.server_close()
    session.close()


def read_target(address, times):
    conn = HTTPConnection(*address)
    try:
        bodies = []
        for _ in range(times):
            conn.request("GET", "/target")
            response = conn.getresponse()
            bodies.append(response.read())
            assert response.status == 200
        return bodies
    finally:
        conn.close()


def test_a_read_after_an_ingest_encodes_what_the_ingest_changed(
        served, monkeypatch):
    session, address = served
    dumps = Calls(monkeypatch, session_module, "instance_to_json")
    pools = []
    pool_init = IndexPool.__init__

    def counted_pool(pool, instance):
        if instance.schema == session.target.schema:
            pools.append(instance)
        pool_init(pool, instance)
    monkeypatch.setattr(IndexPool, "__init__", counted_pool)

    def outcome(value):
        return REGISTRY.value("repro_target_encode_total",
                              {"outcome": value})

    def encoded():
        return REGISTRY.value("repro_target_entries_encoded_total")

    objects = sum(map(len, session.target.valuations.values()))
    before = read_target(address, READS)
    assert (outcome("build"), outcome("hit")) == (1, READS - 1)
    assert encoded() == objects
    assert len(set(before)) == 1

    session.ingest_json(INSERT_GENE)
    changed = session.transform.stats.target_objects_touched
    after = read_target(address, READS)
    session.query_body_json(QUERIES["named"])
    session.program_json({"text": f"q = query {{ {QUERIES['cloned']} }};"})
    assert dumps.count == 0
    assert 0 < encoded() - objects <= changed
    assert (outcome("build"), outcome("patch"), outcome("hit")) \
        == (1, 1, 2 * (READS - 1))
    assert pools == []
    assert len(set(after)) == 1 and after[0] != before[0]
    assert after[0] == canonical_json(envelope_ok(
        instance_to_json(session.target))).encode("utf-8")


def program_text(name):
    queried, algebra = PROGRAMS[name]
    return "".join(f"{q} = query {{ {QUERIES[q]} }};\n"
                   for q in queried) + algebra


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rows_are_keyed_once_where_a_query_statement_emits_them(
        served, monkeypatch, name):
    session, _address = served
    target = session.target
    queried, algebra = PROGRAMS[name]
    emitted = distinct = 0
    for q in queried:
        columns, batch, count = Query.parse(
            QUERIES[q], classes=target.schema.class_names()
        ).run_planned(target)
        emitted += count
        distinct += sum(len(set(batch[column])) for column in columns)
    # A fragment renders through the string escaper or canonical_json.
    escaped = Calls(monkeypatch, interp, "encode_basestring_ascii")
    rendered = Calls(monkeypatch, interp, "canonical_json")

    def renderings():
        return escaped.count + rendered.count

    during = {"query": [], "algebra": []}

    def counting(kind, run):
        def counted(*args):
            before = renderings()
            try:
                return run(*args)
            finally:
                during[kind].append(renderings() - before)
        return counted
    monkeypatch.setattr(interp, "_run_query",
                        counting("query", interp._run_query))
    monkeypatch.setattr(interp, "_run_algebra",
                        counting("algebra", interp._run_algebra))
    response = json.loads(session.program_json({"text": program_text(name)}))
    assert 0 < escaped.count
    assert 0 < sum(during["query"]) <= distinct < emitted
    assert len(during["query"]) == len(queried)
    assert len(response["rows"]) > 0
    assert during["algebra"] == [0] * algebra.count(";")
    statements = {entry["name"]: entry for entry in response["statements"]}
    assert len(statements) == len(queried) + algebra.count(";")
    assert all(statements[q]["rows"] > 0 for q in statements)


def test_query_and_program_responses_decode_no_rows(served, monkeypatch):
    """``/query`` and ``/program`` splice the rows' keys into the
    response: no result set's row dicts are decoded on the way."""
    _session, address = served
    decoded = []
    rows = ResultSet.rows

    def counted(result):
        decoded.append(result)
        return rows.fget(result)
    monkeypatch.setattr(ResultSet, "rows", property(counted))
    conn = HTTPConnection(*address)
    try:
        for body in QUERIES.values():
            conn.request("GET", f"/query?body={quote(body)}")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["result"]["count"] > 0
        for name in sorted(PROGRAMS):
            conn.request("POST", "/program", body=json.dumps(
                {"text": program_text(name), "explain": True}))
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["result"]["rows"]
    finally:
        conn.close()
    assert decoded == []


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_a_program_parses_each_query_body_once(served, monkeypatch, name):
    """Validation parses every ``query`` body and compilation plans
    the parsed queries: a program's first request makes one
    ``Query.parse`` per query statement, and a repeat is answered from
    the session's compiled-statement cache without parsing any."""
    session, _address = served
    parsed = []
    parse = Query.parse

    def counted(text, *args, **kwargs):
        parsed.append(text)
        return parse(text, *args, **kwargs)
    monkeypatch.setattr(Query, "parse", staticmethod(counted))
    # A program name of its own: no earlier test compiled this value.
    text = f"program {name}_parsed;\n" + program_text(name)
    first = session.program_json({"text": text})
    queried, _algebra = PROGRAMS[name]
    assert parsed == [QUERIES[q] for q in queried]
    parsed.clear()
    assert session.program_json({"text": text}) == first
    assert parsed == []


#: The statements whose key set each program sorts: the result of
#: ``p6`` (``all``) and the ``limit`` operand of ``p10`` (``rest``,
#: whose first 200 keys are the result ``top``, already in order).
SORTED = {"p6": ["all"], "p10": ["rest"]}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_only_sets_whose_order_is_read_are_sorted(served, monkeypatch,
                                                  name):
    session, _address = served
    sorts = []

    def counted_sorted(iterable, *args, **kwargs):
        if isinstance(iterable, Set):       # a result set's keys
            sorts.append(iterable)
        return sorted(iterable, *args, **kwargs)
    monkeypatch.setattr(interp, "sorted", counted_sorted, raising=False)
    outcomes = []
    run = session_module.run_compiled

    def captured(*args, **kwargs):
        outcomes.append(run(*args, **kwargs))
        return outcomes[-1]
    monkeypatch.setattr(session_module, "run_compiled", captured)

    session.program_json({"text": program_text(name)})
    (outcome,) = outcomes
    assert len(sorts) == len(SORTED[name])
    assert [statement for statement, result in outcome.sets.items()
            if any(keys is result._keys for keys in sorts)] == SORTED[name]

    sorts.clear()
    session.query_body_json(QUERIES["named"])
    assert len(sorts) == 1
