"""The encode-once read path against the uncached one, over the wire.

``GET /target`` answers from bytes encoded once per applied seq and
spliced into the envelope.  Whatever the cache does, the body a client
reads must be — after every step of a seeded insert/update/delete run,
on a leader and on a follower, across a follower reseed — exactly the
canonical JSON text of the envelope around ``session.target_json()``
(which dumps the target afresh on every call), and that document must
equal a cold batch transform of the store's instance.
"""

import json
import random
import threading
from http.client import HTTPConnection
from urllib.parse import urlparse

import pytest

from repro.io.json_io import instance_to_json
from repro.morphase import Morphase
from repro.service import (ServiceClient, WalReplica, envelope_error,
                           envelope_ok, make_server)
from repro.service.server import encode_envelope
from repro.workloads import cities

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
