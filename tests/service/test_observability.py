"""End-to-end observability over real HTTP: /metrics scrapes on
leader and follower, trace propagation across the replication hop,
slow-query events correlated by trace id, and the client's handling
of non-envelope 5xx bodies."""

import itertools
import json
import logging
import threading

import pytest

from repro.morphase import Morphase
from repro.obs.events import configure_event_log
from repro.obs.events import logger as event_logger
from repro.obs.metrics import REGISTRY
from repro.obs.trace import start_trace
from repro.service import (ServiceClient, ServiceClientError,
                           WalReplica, make_server)
from repro.workloads import cities

_fresh = itertools.count()


def insert_delta(tag="o"):
    n = next(_fresh)
    return {"inserts": {"CountryE": [
        {"id": {"$oid": "CountryE", "label": f"CountryE#{tag}{n}"},
         "value": {"$rec": {"name": f"Land-{tag}-{n}", "language": "x",
                            "currency": f"c{n}"}}}]}}


def build_morphase():
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


def serve(session, **kwargs):
    server = make_server(session, **kwargs)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def stop(server):
    server.shutdown()
    server.server_close()


@pytest.fixture()
def leader(tmp_path):
    morphase = build_morphase()
    store = morphase.open_store(
        str(tmp_path / "leader"),
        [cities.sample_us_instance(), cities.sample_euro_instance()])
    session = morphase.serve(store)
    server = serve(session)
    yield session, ServiceClient(server.url), server.url
    stop(server)
    session.close()


class EventStream:
    """The event log's stream: keeps every JSON line written to it and
    wakes whoever waits for an event.

    A server logs a request's ``http_request`` event (and its
    ``slow_query`` event) after the response is written, so the client
    can hold the response before the event exists.  Tests wait on the
    event itself, not on time.
    """

    def __init__(self):
        self._lines = []
        self._written = threading.Condition()

    def write(self, text):
        with self._written:
            self._lines.append(text)
            self._written.notify_all()

    def flush(self):
        pass

    def _events(self):
        return [json.loads(line)
                for line in "".join(self._lines).splitlines() if line]

    def __call__(self):
        with self._written:
            return self._events()

    def wait_for(self, predicate, timeout=10.0):
        """Every event so far, once one satisfies ``predicate``."""
        with self._written:
            if not self._written.wait_for(
                    lambda: any(map(predicate, self._events())), timeout):
                raise AssertionError(
                    f"no matching event within {timeout} s: "
                    f"{self._events()}")
            return self._events()


@pytest.fixture()
def events():
    """Capture structured events emitted anywhere in-process."""
    stream = EventStream()
    handler = configure_event_log(stream, level=logging.DEBUG)
    yield stream
    event_logger.removeHandler(handler)
    event_logger.setLevel(logging.NOTSET)


def scrape_until(client, name, key, tries=50):
    """Scrape /metrics until ``name``'s ``key`` sample is counted.

    Request metrics are recorded after the response is written, so a
    scrape issued immediately after a response can race the recording
    thread by a few microseconds.  (A label child another test created
    survives the per-test registry reset at 0, so the sample being
    present proves nothing.)
    """
    import time as _time
    for _ in range(tries):
        text = client.metrics()
        if metric_samples(text, name).get(key, 0) > 0:
            return text
        _time.sleep(0.01)
    raise AssertionError(f"{name}{key} never appeared in /metrics")


def metric_samples(text, name):
    """Parse one family's samples out of a Prometheus text page."""
    out = {}
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            rest = line[len(name):]
            if rest[:1] not in ("{", " "):
                continue  # a longer name sharing the prefix
            labels, _, value = rest.rpartition(" ")
            out[labels.strip()] = float(value)
    return out


class TestMetricsEndpoint:
    def test_leader_scrape_shows_request_wal_and_engine_families(
            self, leader):
        session, client, _url = leader
        client.ingest(insert_delta())
        client.query("X in CountryT, N = X.name", project=["N"])
        text = scrape_until(
            client, "repro_http_requests_total",
            '{method="GET",endpoint="/query",status="200"}')
        # Request-level families, with the endpoint label bounded to
        # known routes:
        requests = metric_samples(text, "repro_http_requests_total")
        assert requests['{method="POST",endpoint="/ingest",'
                        'status="200"}'] >= 1
        assert requests['{method="GET",endpoint="/query",'
                        'status="200"}'] >= 1
        latency = metric_samples(text, "repro_http_request_seconds_count")
        assert latency['{method="GET",endpoint="/query"}'] >= 1
        # Durability path: the ingest appended (and timed) WAL records.
        assert metric_samples(text, "repro_wal_appends_total")[""] >= 1
        assert metric_samples(text,
                              "repro_wal_append_seconds_count")[""] >= 1
        # The query ran through an engine and published its stats.
        runs = metric_samples(text, "repro_engine_runs_total")
        assert sum(runs.values()) >= 1
        # Session identity and progress gauges.
        assert metric_samples(text, "repro_session_role")[
            '{role="leader"}'] == 1
        assert metric_samples(text, "repro_session_applied_seq")[""] \
            == session.applied_seq
        assert metric_samples(text, "repro_session_ingested")[""] >= 1

    def test_scrape_content_type_is_prometheus_text(self, leader):
        import urllib.request
        _session, _client, url = leader
        with urllib.request.urlopen(url + "/metrics") as resp:
            assert resp.headers["Content-Type"] \
                == "text/plain; version=0.0.4; charset=utf-8"
            assert b"# TYPE repro_http_requests_total counter" \
                in resp.read()

    def test_follower_scrape_shows_replication_lag(self, leader,
                                                   tmp_path):
        session, client, url = leader
        client.ingest(insert_delta())
        replica = WalReplica(build_morphase(), url,
                             str(tmp_path / "replica"))
        rsession = replica.bootstrap()
        replica.catch_up()
        rserver = serve(rsession)
        try:
            text = ServiceClient(rserver.url).metrics()
            assert metric_samples(text, "repro_session_role")[
                '{role="replica"}'] == 1
            assert metric_samples(text, "repro_replication_lag")[""] \
                == 0
            assert metric_samples(text,
                                  "repro_replication_leader_seq")[""] \
                == session.applied_seq
            assert metric_samples(text,
                                  "repro_replication_records")[""] >= 1
        finally:
            stop(rserver)
            replica.close()

    def test_each_node_reports_only_itself(self, leader, tmp_path):
        """A leader and a follower in one process: each ``/metrics``
        page carries its own session's families and no other's."""
        session, client, url = leader
        client.ingest(insert_delta())
        replica = WalReplica(build_morphase(), url,
                             str(tmp_path / "replica"))
        rsession = replica.bootstrap()
        replica.catch_up()
        rserver = serve(rsession)
        try:
            follower = ServiceClient(rserver.url).metrics()  # first
            page = client.metrics()
        finally:
            stop(rserver)
            replica.close()
        assert metric_samples(page, "repro_session_role") \
            == {'{role="leader"}': 1}
        assert "repro_replication_" not in page
        assert metric_samples(page, "repro_commit_batch_size_count")[""] \
            == session.metrics.value("repro_session_batches") == 1
        assert metric_samples(follower, "repro_session_role") \
            == {'{role="replica"}': 1}
        assert metric_samples(follower, "repro_replication_lag")[""] == 0
        assert metric_samples(follower,
                              "repro_replication_records")[""] == 1
        for text in (page, follower):
            types = [line for line in text.splitlines()
                     if line.startswith("# TYPE ")]
            assert len(types) == len(set(types))
        assert not [family.name for family in REGISTRY.families()
                    if family.name.startswith(("repro_session_",
                                               "repro_replication_",
                                               "repro_commit_"))]

    def test_compaction_metrics_after_snapshot(self, leader):
        _session, client, _url = leader
        client.ingest(insert_delta())
        client.snapshot()
        text = client.metrics()
        assert metric_samples(text,
                              "repro_store_compactions_total")[""] >= 1
        assert metric_samples(
            text, "repro_store_compaction_seconds_count")[""] >= 1
        assert metric_samples(text, "repro_wal_resets_total")[""] >= 1


class TestTracing:
    def test_traced_query_embeds_plan_span_tree(self, leader):
        _session, client, _url = leader
        client.query("X in CountryT, N = X.name", project=["N"],
                     trace=True)
        trace = client.last_trace
        assert trace is not None
        assert len(trace["trace_id"]) == 16
        root = trace["root"]
        assert root["name"] == "GET /query"
        names = [child["name"] for child in root.get("spans", [])]
        assert names == ["parse", "execute", "encode"]
        execute = root["spans"][names.index("execute")]
        assert "rows" in execute.get("attrs", {})
        assert root["spans"][2]["attrs"]["rows"] \
            == client.query("X in CountryT, N = X.name",
                            project=["N"])["count"]
        # The columnar engine's per-PlanStep spans ride inside
        # execute: numbered, labelled by atom, with row counts (every
        # step is a batch stage, so no span names a mode).
        steps = execute.get("spans", [])
        assert steps and steps[0]["name"].startswith("1. ")
        for step in steps:
            attrs = step.get("attrs", {})
            assert "mode" not in attrs
            assert "rows_in" in attrs and "rows_out" in attrs

    def test_traced_program_spans_parse_and_encode(self, leader):
        """Parsing the program and building the response are spans
        too, not time outside every span."""
        _session, client, _url = leader
        client.program(text="n = query { N | X in CountryT, N = X.name };",
                       trace=True)
        root = client.last_trace["root"]
        names = [child["name"] for child in root.get("spans", [])]
        assert names[0] == "parse" and names[-1] == "encode"
        assert "compile" in names and "query n" in names

    def test_commit_span_reports_the_target_change(self, leader):
        """The commit span says how many target objects the batch
        changed and what rebasing the target pool cost."""
        session, _client, _url = leader
        session.query_body_json('X in CityT, X.name = "x", N = X.name')
        with start_trace("ingest") as trace:
            session.ingest_json({"inserts": {"CityE": [
                {"id": {"$oid": "CityE", "label": "CityE#traced"},
                 "value": {"$rec": {
                     "name": "Traced", "is_capital": False,
                     "country": {"$oid": "CountryE",
                                 "label": "CountryE#0"}}}}]}})
        commit, = [span for span in trace.root.to_json()["spans"]
                   if span["name"] == "commit"]
        attrs = commit["attrs"]
        assert attrs["target_changed"] \
            == session.transform.stats.target_objects_touched > 0
        assert attrs["target_indexes_maintained"] >= 1
        assert attrs["target_indexes_dropped"] == 0

    def test_untraced_response_has_no_trace(self, leader):
        _session, client, _url = leader
        client.query("X in CountryT, N = X.name", project=["N"])
        assert client.last_trace is None

    def test_client_trace_id_is_adopted_by_the_server(self, leader):
        _session, client, _url = leader
        with start_trace("cli transform", trace_id="cafe0123feed4567"):
            client.query("X in CountryT, N = X.name", project=["N"],
                         trace=True)
        assert client.last_trace["trace_id"] == "cafe0123feed4567"

    def test_trace_id_propagates_across_the_replication_hop(
            self, leader, tmp_path, events):
        """leader → follower: the replica's /wal poll carries the
        active trace id, and the leader's request event records it."""
        _session, client, url = leader
        client.ingest(insert_delta())
        replica = WalReplica(build_morphase(), url,
                             str(tmp_path / "replica"))
        replica.bootstrap()
        try:
            with start_trace("replica catch-up",
                             trace_id="beef8765dead4321"):
                replica.catch_up()
        finally:
            replica.close()
        events.wait_for(lambda e: e["event"] == "http_request"
                        and e["endpoint"] == "/wal"
                        and e.get("trace_id") == "beef8765dead4321")


class TestSlowQueryLog:
    def test_slow_reads_emit_correlated_events(self, tmp_path, events):
        morphase = build_morphase()
        store = morphase.open_store(
            str(tmp_path / "slow"),
            [cities.sample_us_instance(),
             cities.sample_euro_instance()])
        session = morphase.serve(store)
        # Threshold 0: every read is "slow" — deterministic firing.
        server = serve(session, slow_query_ms=0.0)
        try:
            client = ServiceClient(server.url)
            client.query("X in CountryT, N = X.name", project=["N"],
                         trace=True)
            trace_id = client.last_trace["trace_id"]
            slow = [e for e in events.wait_for(
                        lambda e: e["event"] == "slow_query")
                    if e["event"] == "slow_query"]
        finally:
            stop(server)
            session.close()
        event = slow[-1]
        assert event["level"] == "warning"
        assert event["endpoint"] == "/query"
        assert event["ms"] > 0
        assert event["threshold_ms"] == 0.0
        assert event["trace_id"] == trace_id

    def test_writes_do_not_hit_the_slow_query_log(self, tmp_path,
                                                  events):
        morphase = build_morphase()
        store = morphase.open_store(
            str(tmp_path / "slow2"),
            [cities.sample_us_instance(),
             cities.sample_euro_instance()])
        session = morphase.serve(store)
        server = serve(session, slow_query_ms=0.0)
        try:
            ServiceClient(server.url).ingest(insert_delta())
            # a slow-query event would precede the request's own event
            logged = events.wait_for(
                lambda e: e["event"] == "http_request"
                and e["endpoint"] == "/ingest")
        finally:
            stop(server)
            session.close()
        assert not [e for e in logged
                    if e["event"] == "slow_query"
                    and e["endpoint"] == "/ingest"]


class _ProxyErrorHandler:
    """Not a repro server: answers every request with an HTML 502."""


class TestClientErrorBodies:
    def test_non_envelope_5xx_quotes_the_body_snippet(self):
        from http.server import (BaseHTTPRequestHandler,
                                 ThreadingHTTPServer)

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                body = b"<html>Bad Gateway: upstream died</html>"
                self.send_response(502)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever,
                         daemon=True).start()
        host, port = server.server_address[:2]
        try:
            client = ServiceClient(f"http://{host}:{port}")
            with pytest.raises(ServiceClientError) as excinfo:
                client.health()
        finally:
            server.shutdown()
            server.server_close()
        error = excinfo.value
        assert error.status == 502
        assert error.code == "internal_error"
        assert "Bad Gateway: upstream died" in error.message
