"""Deterministic work bounds on the read path's JSON text (no timing).

Each piece of JSON text is produced once: ``GET /target`` encodes each
target object once and, after an ingest, re-encodes only the objects
the ingest changed — no dump, however often it is read — and the
reads after an ingest probe the target pool the ingest rebased instead
of building a new one.  A query program renders a row's canonical key
once, where a ``query`` statement emits the row — set algebra and
``limit`` fold the keys they were handed.  A read path that re-encodes
per request or per write, or re-keys rows per statement (8 366
renderings for the 2 988 rows of the benchmark's ``p10`` at genome
4x), fails these counts at any size.
"""

import threading
from http.client import HTTPConnection

import pytest

import repro.program.interp as interp
import repro.service.session as session_module
from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.io.json_io import canonical_json, instance_to_json
from repro.morphase import Morphase
from repro.obs.metrics import REGISTRY
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


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rows_are_keyed_once_where_a_query_statement_emits_them(
        served, monkeypatch, name):
    session, _address = served
    target = session.target
    queried, algebra = PROGRAMS[name]
    text = "".join(f"{q} = query {{ {QUERIES[q]} }};\n"
                   for q in queried) + algebra
    emitted = sum(
        sum(1 for _ in Query.parse(
            QUERIES[q], classes=target.schema.class_names()
        ).run_planned(target))
        for q in queried)
    keyed = Calls(monkeypatch, interp, "canonical_json")
    response = session.program_json({"text": text})
    assert keyed.count == emitted > len(response["rows"]) > 0
    statements = {entry["name"]: entry for entry in response["statements"]}
    assert len(statements) == len(queried) + algebra.count(";")
    assert all(statements[q]["rows"] > 0 for q in statements)
