#!/usr/bin/env python3
"""Replication walkthrough: one leader, two followers, one crash.

The warehouse service scales reads horizontally by shipping its write-
ahead log: followers seed from the leader's content-addressed snapshot,
tail ``GET /wal`` (long-polled), and replay every delta through their
own incremental session — deterministically, so their ``/target`` is
byte-identical to the leader's.  This demo exercises the whole story:

1. start a leader over the Cities/Countries store and two followers,
   each serving ``/query``/``/target``/``/check`` on its own port,
2. sustain a stream of ingests against the leader while the followers
   tail the feed live,
3. kill follower B mid-stream, keep writing, compact the leader so the
   log B would need is gone (only the snapshot subsumes it),
4. restart B over its own store directory and watch it reseed from the
   leader's snapshot and catch up,
5. verify both followers converge to a byte-identical ``/target``,
6. scrape ``GET /metrics`` on the leader and a follower and assert
   the replication gauges (lag, leader seq, records shipped) and the
   leader's request/WAL families carry live samples — and that the
   leader's page reports only the leader,
7. show a write bouncing off a follower (409 with the leader's URL)
   and the monotonic-read token holding across nodes.

Run:  PYTHONPATH=src python examples/replication_demo.py

Exits non-zero on any mismatch — CI runs this as the replication
smoke.
"""

import json
import sys
import tempfile
import threading
import time

from repro.morphase import Morphase
from repro.service import (ServiceClient, ServiceConflictError,
                           WalReplica, make_server)
from repro.workloads import cities

INGESTS = 40          # sustained-write stream length
KILL_AFTER = 12       # ingests before follower B is killed
RESTART_AFTER = 28    # ingests before B comes back


def build_morphase():
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


def insert_delta(n):
    return {"inserts": {"CountryE": [
        {"id": {"$oid": "CountryE", "label": f"CountryE#demo{n}"},
         "value": {"$rec": {"name": f"Country-{n}",
                            "language": f"lang-{n}",
                            "currency": f"CUR{n}"}}}]}}


def serve(session):
    server = make_server(session)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def metric_value(text: str, sample: str) -> float:
    """One sample's value out of a Prometheus text page (or -1)."""
    for line in text.splitlines():
        if line.startswith(sample + " "):
            return float(line.rsplit(" ", 1)[1])
    return -1.0


def check_metrics(client: ServiceClient, role: str,
                  samples: dict) -> bool:
    """Assert each sample appears on this node with a live value."""
    text = client.metrics()
    ok = True
    for sample, minimum in samples.items():
        value = metric_value(text, sample)
        if value < minimum:
            print(f"MISSING METRIC on {role}: {sample} = {value} "
                  f"(wanted >= {minimum})")
            ok = False
    if ok:
        shown = ", ".join(sorted(samples))
        print(f"  {role} /metrics exposes {shown}")
    return ok


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="morphase-replication-")

    # 1. Leader + two followers, all speaking the same HTTP API.
    morphase = build_morphase()
    store = morphase.open_store(
        f"{tmp}/leader",
        [cities.sample_us_instance(), cities.sample_euro_instance()])
    leader_session = morphase.serve(store)
    leader_server = serve(leader_session)
    leader = ServiceClient(leader_server.url)
    print(f"leader on {leader_server.url}")

    replica_a = WalReplica(build_morphase(), leader_server.url,
                           f"{tmp}/replica-a", poll_wait=0.5)
    server_a = serve(replica_a.start())
    replica_b = WalReplica(build_morphase(), leader_server.url,
                           f"{tmp}/replica-b", poll_wait=0.5)
    server_b = serve(replica_b.start())
    print(f"follower A on {server_a.url}, follower B on {server_b.url}")

    # 2-4. Sustained ingest with a mid-stream crash and restart of B.
    for n in range(INGESTS):
        leader.ingest(insert_delta(n))
        if n == KILL_AFTER:
            server_b.shutdown()
            server_b.server_close()
            replica_b.close()
            print(f"  killed follower B at leader seq "
                  f"{leader_session.store.seq}")
        if n == KILL_AFTER + 8:
            # Compact while B is down: the WAL records B still needs
            # are subsumed into the snapshot — on restart it *must*
            # reseed, not replay.
            report = leader.snapshot()
            print(f"  leader compacted at base_seq "
                  f"{report['base_seq']} (B's log is gone)")
        if n == RESTART_AFTER:
            replica_b = WalReplica(build_morphase(), leader_server.url,
                                   f"{tmp}/replica-b", poll_wait=0.5)
            server_b = serve(replica_b.start())
            print(f"  restarted follower B at leader seq "
                  f"{leader_session.store.seq}")

    # 5. Convergence: both followers reach the leader's seq and serve
    # a byte-identical target document.
    final_seq = leader_session.store.seq
    deadline = time.monotonic() + 60.0
    sessions = {"A": replica_a.session, "B": replica_b.session}
    while time.monotonic() < deadline:
        if all(s.store.seq >= final_seq for s in sessions.values()):
            break
        time.sleep(0.05)
    leader_target = json.dumps(leader.target(), sort_keys=True)
    for name, url in (("A", server_a.url), ("B", server_b.url)):
        session = sessions[name]
        if session.store.seq < final_seq:
            print(f"MISMATCH: follower {name} stuck at seq "
                  f"{session.store.seq} < {final_seq}")
            return 1
        follower_target = json.dumps(
            ServiceClient(url).target(), sort_keys=True)
        if follower_target != leader_target:
            print(f"MISMATCH: follower {name} /target differs "
                  f"from the leader's")
            return 1
        value = session.metrics.value
        print(f"follower {name}: seq {session.store.seq}, lag "
              f"{value('repro_replication_lag'):g}, "
              f"{value('repro_replication_records'):g} record(s) "
              f"replicated, {value('repro_replication_resyncs'):g} "
              f"resync(s)")
    if sessions["B"].metrics.value("repro_replication_resyncs") < 1:
        print("MISMATCH: follower B never reseeded — the compaction "
              "should have forced a snapshot catch-up")
        return 1
    print("both followers byte-identical to the leader "
          f"at seq {final_seq}")

    # 6. The replication control plane is on /metrics: the leader
    # shows the write-path families, the follower shows the lag,
    # progress and resync gauges a dashboard would alert on.
    if not check_metrics(leader, "leader", {
            'repro_http_requests_total{method="POST",'
            'endpoint="/ingest",status="200"}': INGESTS,
            "repro_wal_appends_total": INGESTS,
            'repro_session_role{role="leader"}': 1,
    }):
        return 1
    # Each node's page is its own: the followers share this process,
    # yet none of their session families shows up on the leader.
    if 'repro_session_role{role="replica"}' in leader.metrics():
        print("MISMATCH: the leader's /metrics reports a replica role")
        return 1
    if not check_metrics(ServiceClient(server_a.url), "follower A", {
            'repro_session_role{role="replica"}': 1,
            "repro_replication_lag": 0,  # present (and 0: converged)
            "repro_replication_leader_seq": 1,
            "repro_replication_records": 1,
    }):
        return 1
    # B reseeded from the snapshot, so its resync counter is live.
    if not check_metrics(ServiceClient(server_b.url), "follower B", {
            "repro_replication_resyncs": 1,
    }):
        return 1

    # 7a. Writes bounce off followers with the leader's address.
    try:
        ServiceClient(server_a.url).ingest(insert_delta(999))
        print("MISMATCH: follower A accepted a write")
        return 1
    except ServiceConflictError as exc:
        print(f"follower A refused a write: {exc.code} "
              f"(leader: {exc.details['leader']})")

    # 7b. Monotonic reads: a client that just read the leader carries
    # its token to a follower and never sees older state.
    roaming = ServiceClient(server_a.url)
    roaming.last_seq = leader.last_seq  # token observed on the leader
    seq = roaming.health()["seq"]
    if seq < leader.last_seq:
        print("MISMATCH: follower answered below the read token")
        return 1
    print(f"monotonic token held across nodes "
          f"(seq {seq} >= token {leader.last_seq})")

    for server in (server_a, server_b, leader_server):
        server.shutdown()
        server.server_close()
    replica_a.close()
    replica_b.close()
    leader_session.close()
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
