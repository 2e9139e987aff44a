"""Leader→follower WAL replication, end to end over real HTTP.

The acceptance bar: a follower seeded from the leader's snapshot and
tailing its ``/wal`` feed converges to a *byte-identical* ``/target``
document — the replicated state machine argument made empirical.
Everything here drives the follower deterministically through
``step()``/``catch_up()`` (no background thread) except the one test
of the threaded tailing loop itself.
"""

import itertools
import json
import threading
import time

import pytest

from repro.morphase import Morphase
from repro.service import (ReplicaError, ServiceClient,
                           ServiceConflictError, WalReplica,
                           make_server)
from repro.workloads import cities

_fresh = itertools.count()


def insert_delta(tag="r"):
    n = next(_fresh)
    return {"inserts": {"CountryE": [
        {"id": {"$oid": "CountryE", "label": f"CountryE#{tag}{n}"},
         "value": {"$rec": {"name": f"Land-{tag}-{n}", "language": "x",
                            "currency": f"c{n}"}}}]}}


def build_morphase():
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


@pytest.fixture()
def leader(tmp_path):
    morphase = build_morphase()
    store = morphase.open_store(
        str(tmp_path / "leader"),
        [cities.sample_us_instance(), cities.sample_euro_instance()])
    session = morphase.serve(store)
    server = make_server(session)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield morphase, session, ServiceClient(server.url), server.url
    server.shutdown()
    server.server_close()
    session.close()


def make_replica(leader_url, tmp_path, name="replica", **kwargs):
    # A separate Morphase instance: the follower is its own process in
    # production and must not lean on the leader's in-memory state.
    return WalReplica(build_morphase(), leader_url,
                      str(tmp_path / name), **kwargs)


class TestSeedAndCatchUp:
    def test_replica_target_is_byte_identical(self, leader, tmp_path):
        _, session, client, url = leader
        for _ in range(4):
            client.ingest(insert_delta())
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        replica.catch_up()
        assert rsession.store.seq == session.store.seq
        assert json.dumps(rsession.target_json(), sort_keys=True) \
            == json.dumps(session.target_json(), sort_keys=True)
        # And over the wire, through a second HTTP server:
        rserver = make_server(rsession)
        threading.Thread(target=rserver.serve_forever,
                         daemon=True).start()
        try:
            assert json.dumps(ServiceClient(rserver.url).target(),
                              sort_keys=True) \
                == json.dumps(client.target(), sort_keys=True)
        finally:
            rserver.shutdown()
            rserver.server_close()
        replica.close()

    def test_seed_verifies_snapshot_content_address(self, leader,
                                                    tmp_path):
        _, session, client, url = leader
        client.ingest(insert_delta())
        client.snapshot()  # give the seed a non-trivial base_seq
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        assert rsession.store.base_seq == session.store.base_seq
        assert rsession.store.snapshot_file \
            == session.store.snapshot_file
        replica.close()

    def test_checks_and_queries_match(self, leader, tmp_path):
        _, session, client, url = leader
        client.ingest(insert_delta())
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        replica.catch_up()
        # Violation *strings* embed process-local oid serials, so
        # compare the semantic content: count, verdict, and which
        # clauses fired.
        mine, theirs = rsession.check_json(), session.check_json()
        assert (mine["ok"], mine["count"]) \
            == (theirs["ok"], theirs["count"])
        assert {v.split(" at ")[0] for v in mine["violations"]} \
            == {v.split(" at ")[0] for v in theirs["violations"]}
        body = "X in CountryT, N = X.name"
        assert rsession.query_body_json(body, project="N") \
            == session.query_body_json(body, project="N")
        replica.close()


class TestReadOnly:
    def test_writes_answer_409_with_leader_address(self, leader,
                                                   tmp_path):
        _, _, client, url = leader
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        rserver = make_server(rsession)
        threading.Thread(target=rserver.serve_forever,
                         daemon=True).start()
        try:
            with pytest.raises(ServiceConflictError) as info:
                ServiceClient(rserver.url).ingest(insert_delta())
            assert info.value.status == 409
            assert info.value.code == "read_only_replica"
            assert info.value.details["leader"] == url
        finally:
            rserver.shutdown()
            rserver.server_close()
        replica.close()

    def test_replica_stats_report_role_and_lag(self, leader, tmp_path):
        _, session, client, url = leader
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        replica.step(wait=0.0)
        client.ingest(insert_delta())
        client.ingest(insert_delta())
        value = rsession.metrics.value
        # A poll that fetches nothing: the lag is how far the leader is
        # ahead.
        replica.poll_limit = 0
        replica.step(wait=0.0)
        assert (rsession.leader_seq, value("repro_replication_lag")) \
            == (session.applied_seq, 2)
        replica.poll_limit = 500
        replica.step(wait=0.0)  # observe leader_seq and apply
        assert rsession.leader_url == url
        assert value("repro_session_role", {"role": "replica"}) == 1
        assert value("repro_replication_lag") == 0
        assert value("repro_replication_records") == 2
        assert value("repro_replication_polls") == 3
        assert value("repro_replication_connected") == 1
        assert rsession.connected is True
        replica.close()


class TestFeedDiscipline:
    def test_duplicate_delivery_is_idempotent(self, leader, tmp_path):
        _, session, client, url = leader
        client.ingest(insert_delta())
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        replica.catch_up()
        feed = client.wal(1)
        assert feed["records"]  # the whole tail, already applied
        assert rsession.replicate(feed["records"]) == 0
        assert rsession.store.seq == session.store.seq

    def test_gap_raises_replica_error(self, leader, tmp_path):
        _, _, client, url = leader
        for _ in range(3):
            client.ingest(insert_delta())
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        feed = client.wal(1)
        with_gap = [feed["records"][0], feed["records"][2]]
        with pytest.raises(ReplicaError, match="gap"):
            rsession.replicate(with_gap)
        replica.close()

    def test_compaction_forces_snapshot_reseed(self, leader, tmp_path):
        _, session, client, url = leader
        client.ingest(insert_delta())
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        replica.catch_up()
        behind = rsession.store.seq
        # Leader moves on AND compacts past the replica's cursor: the
        # records it needs are gone, only the snapshot has them.
        for _ in range(3):
            client.ingest(insert_delta())
        client.snapshot()
        assert session.store.base_seq > behind
        applied = replica.step(wait=0.0)
        assert applied == 0  # the step was a reseed, not a replay
        assert rsession.metrics.value("repro_replication_resyncs") == 1
        assert rsession.store.seq == session.store.seq
        assert json.dumps(rsession.target_json(), sort_keys=True) \
            == json.dumps(session.target_json(), sort_keys=True)
        replica.close()

    def test_caught_up_follower_follows_labels_across_compaction(
            self, leader, tmp_path):
        # A follower that is current when the leader compacts keeps
        # tailing without a reseed, so the leader's labels must mean
        # after compaction what they meant before it.
        _, session, client, url = leader
        for n in range(3):
            client.ingest({"inserts": {"CityE": [
                {"id": {"$oid": "CityE", "label": f"CityE#new{n}"},
                 "value": {"$rec": {
                     "name": f"Newtown{n}", "is_capital": False,
                     "country": {"$oid": "CountryE",
                                 "label": "CountryE#0"}}}}]}})
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        replica.catch_up()
        client.snapshot()
        # Every CityE, addressed the way the leader's store names it.
        updates = session.store.canonical_json()["objects"]["CityE"]
        for entry in updates:
            entry["value"]["$rec"]["name"] += "-renamed"
        client.ingest({"updates": {"CityE": updates}})
        assert replica.catch_up() == session.store.seq
        assert rsession.metrics.value("repro_replication_resyncs") == 0
        assert json.dumps(rsession.target_json(), sort_keys=True) \
            == json.dumps(session.target_json(), sort_keys=True)
        replica.close()

    def test_restart_resumes_from_local_store(self, leader, tmp_path):
        _, session, client, url = leader
        client.ingest(insert_delta())
        replica = make_replica(url, tmp_path)
        replica.bootstrap()
        replica.catch_up()
        replica.close()
        client.ingest(insert_delta())  # while the follower is down
        again = make_replica(url, tmp_path)  # same store directory
        rsession = again.bootstrap()
        assert again.catch_up() == session.store.seq
        assert json.dumps(rsession.target_json(), sort_keys=True) \
            == json.dumps(session.target_json(), sort_keys=True)
        again.close()


class TestChainedReplication:
    def test_replica_of_a_replica_converges(self, leader, tmp_path):
        """The feed lives on the session, so followers can fan out in
        a tree: a second-tier replica tails the first-tier one."""
        _, session, client, url = leader
        client.ingest(insert_delta())
        mid = make_replica(url, tmp_path, name="mid")
        mid_session = mid.bootstrap()
        mid.catch_up()
        mid_server = make_server(mid_session)
        threading.Thread(target=mid_server.serve_forever,
                         daemon=True).start()
        try:
            edge = make_replica(mid_server.url, tmp_path, name="edge")
            edge_session = edge.bootstrap()
            edge.catch_up()
            client.ingest(insert_delta())
            mid.catch_up()
            edge.catch_up()
            assert json.dumps(edge_session.target_json(),
                              sort_keys=True) \
                == json.dumps(session.target_json(), sort_keys=True)
            edge.close()
        finally:
            mid_server.shutdown()
            mid_server.server_close()
        mid.close()


class TestThreadedTailing:
    def test_start_tails_until_stopped(self, leader, tmp_path):
        _, session, client, url = leader
        replica = make_replica(url, tmp_path, poll_wait=0.2,
                               retry_seconds=0.05)
        rsession = replica.start()
        try:
            client.ingest(insert_delta())
            target_seq = session.store.seq
            deadline = time.monotonic() + 15.0
            while (rsession.store.seq < target_seq
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert rsession.store.seq == target_seq
            assert json.dumps(rsession.target_json(), sort_keys=True) \
                == json.dumps(session.target_json(), sort_keys=True)
        finally:
            replica.close()

    def test_leader_outage_is_survived(self, leader, tmp_path):
        """An unreachable leader marks the replica disconnected; the
        loop keeps retrying instead of dying."""
        _, _, client, url = leader
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        replica.leader_url = "http://127.0.0.1:9"  # discard port
        replica.timeout = 0.2
        with pytest.raises(ReplicaError):
            replica.step(wait=0.0)
        replica.leader_url = url
        replica.timeout = 30.0
        client.ingest(insert_delta())
        replica.catch_up()
        assert rsession.connected is True
        replica.close()


class TestMonotonicReadsAcrossNodes:
    def test_client_token_blocks_stale_replica_then_succeeds(
            self, leader, tmp_path):
        _, session, client, url = leader
        replica = make_replica(url, tmp_path)
        rsession = replica.bootstrap()
        replica.catch_up()
        rserver = make_server(rsession)
        threading.Thread(target=rserver.serve_forever,
                         daemon=True).start()
        try:
            client.ingest(insert_delta())  # replica now behind
            rclient = ServiceClient(rserver.url, behind_wait=10.0)
            token = rclient.last_seq = client.last_seq  # from the leader
            assert token > rsession.applied_seq

            # Impatient client: surfaces the 409 instead of waiting.
            blunt = ServiceClient(rserver.url, behind_wait=0.0)
            blunt.last_seq = client.last_seq
            with pytest.raises(ServiceConflictError) as info:
                blunt.health()
            assert info.value.code == "replica_behind"

            # Patient client: the retry loop resolves once the tailer
            # catches up.
            threading.Thread(
                target=lambda: (time.sleep(0.2),
                                replica.step(wait=0.0)),
                daemon=True).start()
            assert rclient.health()["seq"] >= token
            assert rsession.applied_seq >= token
        finally:
            rserver.shutdown()
            rserver.server_close()
        replica.close()
