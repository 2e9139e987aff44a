"""The encode-once read path against the uncached one, over the wire.

``GET /target`` answers from the target's text, kept as one encoded
entry per object (a batch marks the objects it changed, the next read
re-encodes them), spliced into the envelope.  Whatever that does, the
body a client reads must be — after every step of a seeded
insert/update/delete run, and after bursts of several batches between
two reads, on a leader and on a follower, across a follower reseed —
exactly the canonical JSON text of the envelope around
``session.target_json()`` (which dumps the target afresh on every
call), and that document must equal a cold batch transform of the
store's instance.  The target index pool the reads probe, rebased by
every batch, must equal a fresh one.
"""

import json
import random
import sys
import threading
from http.client import HTTPConnection
from urllib.parse import urlparse

import pytest

from repro.evolution.delta import Delta
from repro.io.json_io import (instance_to_json, keyed_oid_encoder,
                              value_to_json)
from repro.morphase import Morphase
from repro.obs.metrics import REGISTRY
from repro.program import ResultSet
from repro.query.query import Query
from repro.semantics.match import IndexPool
from repro.service import (ServiceClient, WalReplica, envelope_error,
                           envelope_ok, make_server)
from repro.service.server import encode_envelope
from repro.workloads import cities

from . import streams

STEPS = 36
RESEED_AT = 17


def build_morphase():
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


def served(session):
    server = make_server(session)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def get(url, path):
    """(status, raw body bytes) of one GET — no client-side decoding."""
    address = urlparse(url)
    conn = HTTPConnection(address.hostname, address.port)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def canonical(document):
    return json.dumps(document, sort_keys=True).encode("utf-8")


def plain(document):
    """The document as a JSON client would decode it."""
    return json.loads(json.dumps(document))


class DeltaScript:
    """Seeded label-addressed deltas over countries this script owns."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.live = []
        self.made = 0

    @staticmethod
    def _ref(label):
        return {"$oid": "CountryE", "label": label}

    def _country(self, label, currency):
        return {"id": self._ref(label), "value": {"$rec": {
            "name": f"Land-{label[9:]}", "language": "x",
            "currency": currency}}}

    def next(self):
        kind = self.rng.choice(("insert", "insert", "update", "delete"))
        if kind == "insert" or not self.live:
            label = f"CountryE#d{self.made}"
            self.made += 1
            self.live.append(label)
            return {"inserts": {"CountryE": [
                self._country(label, f"c{self.made}")]}}
        if kind == "update":
            return {"updates": {"CountryE": [self._country(
                self.rng.choice(self.live),
                f"u{self.rng.randrange(10**6)}")]}}
        label = self.live.pop(self.rng.randrange(len(self.live)))
        return {"deletes": {"CountryE": [self._ref(label)]}}


def assert_served_equals_uncached(morphase, session, url):
    """Miss, then hit: both bodies are the canonical envelope around a
    fresh dump, which equals the cold batch oracle."""
    fresh = session.target_json()
    cold = morphase.transform(session.store.instance).target
    assert plain(fresh) == plain(instance_to_json(cold))
    for _ in range(2):
        status, body = get(url, "/target")
        assert status == 200
        assert json.loads(body)["result"] == plain(fresh)
        assert body == canonical(envelope_ok(fresh))
    return body


def test_target_bytes_track_the_uncached_path(tmp_path):
    morphase = build_morphase()
    store = morphase.open_store(
        str(tmp_path / "leader"),
        [cities.sample_us_instance(), cities.sample_euro_instance()])
    session = morphase.serve(store)
    server = served(session)
    client = ServiceClient(server.url)
    replica = WalReplica(build_morphase(), server.url,
                         str(tmp_path / "follower"))
    rsession = replica.bootstrap()
    rserver = served(rsession)
    script = DeltaScript(seed=21)
    kinds = set()
    try:
        for step in range(STEPS):
            delta = script.next()
            kinds.update(delta)
            client.ingest(delta)
            if step == RESEED_AT:
                # The leader compacts past the follower's cursor: its
                # next step is a snapshot reseed, not a replay.
                client.ingest(script.next())
                client.snapshot()
                # Compaction re-derives labels from the dump: the
                # script's own labels stop resolving, so it starts over.
                script.live.clear()
                assert replica.step(wait=0.0) == 0
                assert rsession.metrics.value(
                    "repro_replication_resyncs") == 1
            replica.catch_up()
            assert rsession.applied_seq == session.applied_seq
            leader_body = assert_served_equals_uncached(
                morphase, session, server.url)
            follower_body = assert_served_equals_uncached(
                replica.morphase, rsession, rserver.url)
            assert follower_body == leader_body
        assert kinds == {"inserts", "updates", "deletes"}
    finally:
        for node in (rserver, server):
            node.shutdown()
            node.server_close()
        replica.close()
        session.close()


#: Deltas between two reads: bursts of 1, 3 and 7, a ``flicker`` burst
#: that inserts objects, writes once more and deletes them again, and a
#: ``reseed`` (the leader compacts past the follower's cursor).
BURSTS = (1, 3, 7, "flicker", 1, "reseed", 3, 7, "flicker", 1)

#: Per stream: three queries whose plans probe target indexes — a
#: local path, a join and a path through a reference.
STREAMS = {
    "genome": (streams.genome_morphase, streams.genome_sources,
               streams.GenomeStream,
               ('L | S in SequenceT, S.name = "S-t2", L = S.dna_length',
                "C, Y | X in CloneT, C = X.name, S = X.seq, P in SeqGene, "
                "P.seq = S, G = P.gene, Y = G.symbol",
                'C | X in CloneT, C = X.name, X.seq.name = "S-t5"')),
    "cities": (streams.cities_morphase, streams.cities_sources,
               streams.CitiesStream,
               ('N | X in CityT, X.name = "Capital-t3", N = X.name',
                "N | X in CityT, C in CountryT, C.capital = X, N = C.name",
                'N | C in CountryT, C.capital.name = "Capital-t4", '
                "N = C.name")),
}


def ingest_burst(session, writes, kind, step):
    """Ingest one burst, each delta drawn from the live source."""
    if kind == "flicker":
        inserted = writes.insert(f"flicker{step}")
        session.ingest(inserted)
        session.ingest(writes.next(session.store.instance))
        live = session.store.instance.valuations
        session.ingest(Delta(deletes={
            cname: tuple(oid for oid in objs if oid in live[cname])
            for cname, objs in inserted.inserts.items()}))
        return
    for _ in range(kind):
        session.ingest(writes.next(session.store.instance))


def query_rows(target, body):
    """A query's rows over ``target`` on a fresh index pool."""
    parsed = Query.parse(body, classes=target.schema.class_names())
    columns = tuple(parsed.projection or parsed.variables())
    return list(ResultSet.from_rows(columns, (
        {name: value_to_json(value, keyed_oid_encoder)
         for name, value in row.items()}
        for row in parsed.run_planned(target))).rows)


def assert_node_reads_a_cold_transform(morphase, session, url, queries):
    """/target, the target pool's built indexes and /query answers all
    equal what a cold transform of the node's source gives."""
    cold = morphase.transform(session.store.instance).target
    status, body = get(url, "/target")
    assert status == 200
    assert body == canonical(envelope_ok(instance_to_json(cold)))
    for query in queries:
        assert session.query_body_json(query)["rows"] \
            == query_rows(cold, query), query
    target = session.target
    pool = session.transform.target_pool
    assert pool.instance is target and pool.indexed_keys()
    fresh = IndexPool(target)
    for key in pool.indexed_keys():
        assert {value: set(oids)
                for value, oids in pool.index_for(*key).items()} == {
            value: set(oids)
            for value, oids in fresh.index_for(*key).items()}, key
    return body


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_target_bytes_track_the_uncached_path_in_bursts(tmp_path, name):
    """Reads after bursts of writes, not after every write: a batch
    marks what it changed, and a read must re-encode everything the
    batches since the last read marked — including an object a burst
    inserted and deleted again."""
    build, sources, stream, queries = STREAMS[name]
    morphase = build()
    session = morphase.serve(morphase.open_store(
        str(tmp_path / "leader"), sources()))
    server = served(session)
    replica = WalReplica(build(), server.url, str(tmp_path / "follower"))
    rsession = replica.bootstrap()
    rserver = served(rsession)
    writes = stream(seed=5)
    try:
        for step, kind in enumerate(BURSTS):
            if kind == "reseed":
                session.ingest(writes.next(session.store.instance))
                session.snapshot()
                assert replica.step(wait=0.0) == 0
                assert rsession.metrics.value(
                    "repro_replication_resyncs") == 1
            else:
                ingest_burst(session, writes, kind, step)
            replica.catch_up()
            assert rsession.applied_seq == session.applied_seq
            leader_body = assert_node_reads_a_cold_transform(
                morphase, session, server.url, queries)
            follower_body = assert_node_reads_a_cold_transform(
                replica.morphase, rsession, rserver.url, queries)
            assert follower_body == leader_body
        assert REGISTRY.value("repro_target_encode_total",
                              {"outcome": "patch"}) > 0
    finally:
        for node in (rserver, server):
            node.shutdown()
            node.server_close()
        replica.close()
        session.close()


def test_concurrent_reads_render_whole_targets(tmp_path):
    """Readers render the /target text concurrently with each other and
    between batches: every text any of them gets is the text of a
    target the writer produced — none is half-patched or patched twice."""
    morphase = streams.cities_morphase()
    session = morphase.serve(morphase.open_store(
        str(tmp_path / "store"), streams.cities_sources()))
    writes = streams.CitiesStream(seed=9)
    expected = {session.target_json_bytes()}
    read, failures, done = [], [], threading.Event()

    def reader():
        try:
            while not done.is_set():
                read.append(session.target_json_bytes())
        except Exception as exc:  # re-raised below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for thread in readers:
            thread.start()
        for _ in range(60):
            session.ingest(writes.next(session.store.instance))
            expected.add(canonical(instance_to_json(session.target)))
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
        session.close()
    assert not any(thread.is_alive() for thread in readers)
    assert failures == []
    assert read and set(read) <= expected


@pytest.fixture()
def node(tmp_path):
    morphase = build_morphase()
    session = morphase.serve(morphase.open_store(
        str(tmp_path / "store"),
        [cities.sample_us_instance(), cities.sample_euro_instance()]))
    server = served(session)
    yield session, server.url
    server.shutdown()
    server.server_close()
    session.close()


def test_traced_target_splices_the_trace_between_result_and_version(node):
    session, url = node
    get(url, "/target")                     # the traced read is a hit
    status, body = get(url, "/target?trace=1")
    document = json.loads(body)
    assert status == 200
    assert list(document) == ["ok", "result", "trace", "version"]
    assert document["trace"]["root"]["name"] == "GET /target"
    assert body == canonical({**envelope_ok(session.target_json()),
                              "trace": document["trace"]})


def test_error_and_plain_envelopes_are_canonical_text(node):
    _session, url = node
    status, body = get(url, "/no-such-route")
    assert status == 404
    assert body == canonical(envelope_error("not_found",
                                            "no route /no-such-route"))
    for path in ("/health", "/check",
                 "/query?body=X%20in%20CountryT"):
        status, body = get(url, path)
        assert status == 200
        assert body == canonical(json.loads(body)), path
        assert b"\n" not in body, path


@pytest.mark.parametrize("trace", [None, {"trace_id": "t", "spans": []}])
def test_encode_envelope_splices_what_it_would_have_encoded(trace):
    result = {"b": [1, 2.5, "é"], "a": {"z": None, "y": True}}
    whole = encode_envelope(envelope_ok(result), trace)
    spliced = encode_envelope(envelope_ok(canonical(result)), trace)
    extra = {} if trace is None else {"trace": trace}
    assert spliced == whole == canonical({**envelope_ok(result), **extra})
    failure = envelope_error("conflict", "no", details={"k": 1})
    assert encode_envelope(failure, trace) == canonical({**failure, **extra})
