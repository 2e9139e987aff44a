"""The session's compiled-statement cache changes cost, never bytes.

``/query`` bodies (keyed on their text) and ``/program`` programs
(keyed on the :class:`~repro.program.QueryProgram` value, so the text
and AST forms of one program share an entry) are parsed and validated
once, and planned and compiled once per vector of target class sizes.
A hit must answer byte for byte what the miss answered and what the
dynamic-matcher reference answers (the read-mix pins of
``test_read_mix_pinned``); an update-only ingest keeps the sizes, so
reads after it still hit and see the new values; an insert changes
them, and the next read of a cached statement plans it again without
parsing it again, making the plans an uncached read makes; errors are
never kept; and a warm repeat of the whole read mix makes no parse,
plan or stage-compile call.
"""

import json
import threading
import urllib.parse
from http.client import HTTPConnection

import pytest

import repro.engine.columnar as columnar
import repro.engine.planner as planner
import repro.program.compile as program_compile
from repro.evolution.delta import Delta
from repro.model.values import Oid, Record, WolSet
from repro.program import compile_program, parse_program_text
from repro.query.query import Query
from repro.service import make_server
from repro.service.session import StatementCache

from .streams import genome_morphase, genome_sources
from .test_read_mix_pinned import (PROGRAMS, QUERY_CASES, READ_POOL,
                                   expected_program, program_text,
                                   reference, wire)

#: Every read-mix body as sent (``project=`` included), and the
#: ``project=`` body once more without it.
BODIES = QUERY_CASES + [(READ_POOL[-1][0], None)]


@pytest.fixture
def served(tmp_path):
    morphase = genome_morphase()
    store = morphase.open_store(str(tmp_path / "store"), genome_sources())
    session = morphase.serve(store)
    server = make_server(session)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield session, server.server_address[:2]
    server.shutdown()
    server.server_close()
    session.close()


def send(address, method, path, body=None):
    conn = HTTPConnection(*address)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def query_path(body, project):
    path = "/query?body=" + urllib.parse.quote(body)
    if project:
        path += "&project=" + urllib.parse.quote(project)
    return path


def program_bodies(name):
    text = program_text(name)
    ast = parse_program_text(text).to_json()
    return [json.dumps(document).encode("utf-8") for document in (
        {"text": text}, {"ast": ast}, {"text": text, "explain": True},
        {"ast": ast, "explain": True})]


def lookups(session, route, outcome):
    return session.metrics.value("repro_statement_cache_total",
                                 {"route": route, "outcome": outcome})


def query_document(target, body, project):
    expected = reference(target, f"{project} | {body}" if project else body)
    return {"body": body, "columns": list(expected.columns),
            "count": len(expected.rows), "rows": list(expected.rows)}


@pytest.mark.parametrize("body, project", BODIES)
def test_a_query_hit_answers_the_miss_and_the_reference(
        served, body, project):
    session, address = served
    expected = wire(query_document(session.target, body, project))
    answers = [send(address, "GET", query_path(body, project))
               for _ in range(3)]
    assert answers == [(200, expected)] * 3
    assert (lookups(session, "query", "miss"),
            lookups(session, "query", "hit")) == (1, 2)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_a_program_hit_answers_the_miss_and_the_reference(served, name):
    """Text and AST forms share one entry: only the first request
    compiles; ``explain`` renders the cached plans, which equal the
    ones the miss made."""
    session, address = served
    document = expected_program(session.target, name)
    answers = [send(address, "POST", "/program", body)
               for body in program_bodies(name) * 2]
    plain, explained = answers[:2], answers[2:4]
    assert plain == [(200, wire(document))] * 2
    explain = json.loads(explained[0][1])["result"].pop("explain")
    assert explained == [(200, wire({**document, "explain": explain}))] * 2
    assert answers[4:] == answers[:4]
    uncached = compile_program(parse_program_text(program_text(name)),
                               session.target)
    assert explain == uncached.explain()
    assert (lookups(session, "program", "miss"),
            lookups(session, "program", "hit")) == (1, 7)


def test_an_update_keeps_the_sizes_hits_and_reads_the_new_values(served):
    session, address = served
    body = ('N, L | S in SequenceT, S.name = "S3", N = S.name, '
            'L = S.dna_length')
    path = query_path(body, None)
    before = send(address, "GET", path)
    sizes = session.target.class_sizes()
    oid = Oid.keyed("Sequence", "S3")
    current = session.transform.source.value_of(oid)
    session.ingest(Delta(updates={"Sequence": {
        oid: current.with_field("dna_length", WolSet.of(424242))}}))
    assert session.target.class_sizes() == sizes
    after = send(address, "GET", path)
    assert after != before
    assert after == (200, wire(query_document(session.target, body, None)))
    assert json.loads(after[1])["result"]["rows"] == [
        {"N": "S3", "L": 424242}]
    assert (lookups(session, "query", "miss"),
            lookups(session, "query", "hit")) == (1, 1)
    assert session.metrics.value(
        "repro_statement_cache_invalidations_total") == 0


def test_an_insert_changes_the_sizes_and_replans_without_parsing(
        served, monkeypatch):
    session, address = served
    body, project = READ_POOL[1]
    path = query_path(body, project)
    program = program_bodies("p2")[2]           # text, with explain
    send(address, "GET", path)
    send(address, "POST", "/program", program)
    assert len(session.statements) == 2
    seq = Oid.keyed("Sequence", "S-new")
    session.ingest(Delta(inserts={"Sequence": {seq: Record.of(
        name="S-new", dna_length=WolSet.of(1234),
        method=WolSet.of("shotgun"), gene=WolSet.of())}}))
    parsed = count_parses(monkeypatch)
    plans = Calls(monkeypatch, "plan_clause", planner, program_compile)
    after = send(address, "GET", path)
    status, raw = send(address, "POST", "/program", program)
    # One plan for the body, one for p2's only query statement.
    assert (parsed, plans.count) == ([], 2)
    assert after == (200, wire(query_document(session.target, body,
                                              project)))
    assert "S-new" in after[1].decode("utf-8")
    assert status == 200
    uncached = compile_program(parse_program_text(program_text("p2")),
                               session.target)
    assert json.loads(raw)["result"]["explain"] == uncached.explain()
    assert session.metrics.value(
        "repro_statement_cache_invalidations_total") == 2
    assert (lookups(session, "query", "miss"),
            lookups(session, "program", "miss")) == (2, 2)
    assert len(session.statements) == 2
    assert send(address, "GET", path) == after
    assert lookups(session, "query", "hit") == 1


def test_an_error_is_answered_afresh_and_never_kept(served):
    session, address = served
    unparsable = query_path('S in SequenceT, S.name = "abc', None)
    unsafe = query_path("N | S in SequenceT, L < N", None)
    bad_ast = json.dumps({"ast": {"version": 1, "statements": [
        {"name": "a", "op": "query", "body": "N = S.name",
         "project": []}]}}).encode("utf-8")
    answers = [send(address, "GET", unparsable),
               send(address, "GET", unsafe),
               send(address, "POST", "/program", bad_ast)]
    assert [status for status, _ in answers] == [400, 422, 422]
    assert [send(address, "GET", unparsable),
            send(address, "GET", unsafe),
            send(address, "POST", "/program", bad_ast)] == answers
    assert len(session.statements) == 0
    assert lookups(session, "query", "hit") == 0
    assert lookups(session, "program", "hit") == 0


def test_concurrent_misses_answer_identical_bytes(served):
    session, _address = served
    threads = 4
    barrier = threading.Barrier(threads)
    answers = [[] for _ in range(threads)]
    text = program_text("p6")

    def read(slot):
        barrier.wait()
        for body, project in BODIES:
            answers[slot].append(session.query_body_json(body, project))
        answers[slot].append(session.program_json({"text": text}))

    workers = [threading.Thread(target=read, args=(slot,))
               for slot in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert all(answer == answers[0] for answer in answers)
    assert len(answers[0]) == len(BODIES) + 1
    assert answers[0][-1] == session.program_json({"text": text})


class Calls:
    """Counts calls to a module-level function under every name the
    given modules bind it to."""

    def __init__(self, monkeypatch, name, *modules):
        self.count = 0
        original = getattr(modules[0], name)

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)
        for module in modules:
            monkeypatch.setattr(module, name, counted)


def count_parses(monkeypatch):
    """The texts :meth:`Query.parse` is called with, from now on."""
    parsed = []
    parse = Query.parse

    def counted_parse(text, *args, **kwargs):
        parsed.append(text)
        return parse(text, *args, **kwargs)
    monkeypatch.setattr(Query, "parse", staticmethod(counted_parse))
    return parsed


def test_a_warm_repeat_parses_plans_and_compiles_nothing(
        served, monkeypatch):
    session, _address = served
    programs = [json.loads(body) for name in sorted(PROGRAMS)
                for body in program_bodies(name)]

    def read_mix():
        return ([session.query_body_json(body, project)
                 for body, project in BODIES]
                + [session.program_json(document) for document in programs])

    cold = read_mix()
    parsed = count_parses(monkeypatch)
    plans = Calls(monkeypatch, "plan_clause", planner, program_compile)
    stages = Calls(monkeypatch, "compile_steps", columnar, program_compile)
    assert read_mix() == cold
    assert (parsed, plans.count, stages.count) == ([], 0, 0)
    assert lookups(session, "query", "hit") == len(BODIES)
    assert lookups(session, "program", "hit") \
        == len(programs) * 2 - len(PROGRAMS)
    # The counters see a miss's work.
    fresh = "N | S in SequenceT, N = S.name, N != \"S1\""
    session.query_body_json(fresh)
    assert (parsed, plans.count, stages.count) == ([fresh], 1, 1)


class Counter:
    def __init__(self):
        self.count = 0

    def inc(self, amount=1):
        self.count += amount


def test_the_cache_evicts_the_least_recently_used():
    evictions = Counter()
    cache = StatementCache(2, evictions)
    sizes = {"A": 1}
    assert cache.get("a") is None
    cache.put("a", sizes, 1)
    cache.put("b", {"A": 2}, 2)
    assert cache.get("a") == (sizes, 1)    # "b" is now the oldest
    cache.put("c", sizes, 3)
    assert (cache.get("b"), cache.get("a"), cache.get("c")) \
        == (None, (sizes, 1), (sizes, 3))
    assert (len(cache), evictions.count) == (2, 1)
    cache.put("a", {"A": 2}, 4)            # planned again: replaced
    assert (len(cache), cache.get("a"), evictions.count) \
        == (2, ({"A": 2}, 4), 1)
