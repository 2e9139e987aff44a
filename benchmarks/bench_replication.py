"""R1: read scale-out via WAL replication, and replica lag under load.

The replication layer's reason to exist: one leader takes the writes,
N followers replay its WAL and absorb the reads.  Because CPython
holds the GIL per process, real read scaling only shows up when every
node is its own *process* — so this benchmark forks each follower as a
separate process (own store, own HTTP server, own GIL) and measures:

* ``read_scaleout``: aggregate query RPS (a planned join over the
  warm genome target, through HTTP) as client threads fan out over
  1 node (leader only), 2 nodes (+1 follower) and 3 nodes
  (+2 followers).  Floor: with 2 followers the aggregate must beat
  the single-node baseline by >= 1.5x — recorded only on machines
  with >= 4 cores (below that the nodes share cores and the series
  is informational).
* ``replica_lag``: follower lag (``repro_replication_lag``, leader
  seq at the last poll minus applied seq, sampled from its /metrics)
  while the leader sustains a write stream, and the time to drain back
  to lag 0 after the stream stops.
"""

import json
import multiprocessing
import os
import statistics
import tempfile
import threading
import time
from http.client import HTTPConnection
from urllib.parse import quote

import pytest

from conftest import print_table

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.evolution.delta import Delta
from repro.model.values import Oid, Record, WolSet
from repro.morphase import Morphase
from repro.service import WalReplica, make_server
from repro.workloads import genome

#: Genome workload default size (matches bench_service/bench_planner).
GENOME_SIZE = {"genes": 150, "sequences": 300, "clones": 300,
               "sparsity": 0.9, "seed": 7}

#: The read under test: a planned two-hop join over the warm target.
QUERY_PATH = ("/query?body=" + quote("P in SeqGene, S = P.seq, "
                                     "N = S.name") + "&project=N")

#: Aggregate-RPS floor for leader + 2 followers vs leader alone —
#: enforced only on >= 4 cores (one per node plus the clients).
SCALEOUT_FLOOR = 1.5
MIN_CORES_FOR_FLOOR = 4

CLIENT_THREADS = 6
MEASURE_SECONDS = 2.0
LAG_INGESTS = 60


def make_morphase():
    source_schema = schema_of_acedb(
        AceDatabase("ACe22", genome.ACE_CLASSES))
    m = Morphase([source_schema], genome.warehouse_schema(),
                 genome.PROGRAM_TEXT)
    m.compile()
    return m


def small_delta(tag):
    gene = Oid.keyed("Gene", f"G-{tag}")
    seq = Oid.keyed("Sequence", f"S-{tag}")
    return Delta(inserts={
        "Gene": {gene: Record.of(
            name=f"G-{tag}", symbol=WolSet.of(f"sym{tag}"),
            description=WolSet.of(f"bench {tag}"))},
        "Sequence": {seq: Record.of(
            name=f"S-{tag}", dna_length=WolSet.of(51_000),
            method=WolSet.of("shotgun"), gene=WolSet.of(gene))},
    })


def follower_process(leader_url, store_dir, url_queue):
    """One follower node: seed, catch up, serve, tail — own process."""
    replica = WalReplica(make_morphase(), leader_url, store_dir,
                         poll_wait=1.0)
    session = replica.start()
    replica.catch_up(deadline_seconds=120.0)
    server = make_server(session)
    url_queue.put(server.url)
    server.serve_forever()  # until the parent terminates us


def http_get(address, path):
    conn = HTTPConnection(*address)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        payload = response.read()
        assert response.status == 200, payload
        document = json.loads(payload)
        return document.get("result", document)  # unwrap the envelope
    finally:
        conn.close()


def scrape(address, *names):
    """Sample values off a node's /metrics page, in ``names`` order."""
    conn = HTTPConnection(*address)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        payload = response.read().decode("utf-8")
        assert response.status == 200, payload
    finally:
        conn.close()
    values = dict(line.rsplit(" ", 1) for line in payload.splitlines()
                  if line and not line.startswith("#"))
    return [float(values[name]) for name in names]


def measure_rps(addresses, seconds=MEASURE_SECONDS,
                threads=CLIENT_THREADS):
    """Aggregate completed queries/sec, clients round-robin per node."""
    stop = time.monotonic() + seconds
    counts = [0] * threads
    errors = []

    def client(worker):
        address = addresses[worker % len(addresses)]
        conn = HTTPConnection(*address)
        try:
            while time.monotonic() < stop:
                conn.request("GET", QUERY_PATH)
                response = conn.getresponse()
                payload = response.read()
                if response.status != 200:
                    errors.append(payload)
                    return
                counts[worker] += 1
        except Exception as exc:  # pragma: no cover - asserted below
            errors.append(exc)
        finally:
            conn.close()

    pool = [threading.Thread(target=client, args=(w,))
            for w in range(threads)]
    start = time.monotonic()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    elapsed = time.monotonic() - start
    assert not errors, errors[0]
    return sum(counts) / elapsed


@pytest.fixture(scope="module")
def leader():
    morphase = make_morphase()
    merged = morphase._merge_sources(genome.source_instance(
        genome.generate_acedb(**GENOME_SIZE)))
    store = morphase.open_store(tempfile.mkdtemp(), merged)
    session = morphase.serve(store)
    server = make_server(session)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield session, server
    server.shutdown()
    server.server_close()
    session.close()


def spawn_followers(leader_url, count, context):
    followers = []
    for n in range(count):
        queue = context.Queue()
        process = context.Process(
            target=follower_process,
            args=(leader_url, tempfile.mkdtemp(suffix=f"-r{n}"), queue),
            daemon=True)
        process.start()
        url = queue.get(timeout=180.0)
        host, port = url.replace("http://", "").rsplit(":", 1)
        followers.append((process, (host, int(port))))
    return followers


def test_read_scaleout_with_process_replicas(bench_report, leader):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork start method for follower processes")
    session, server = leader
    context = multiprocessing.get_context("fork")
    leader_address = server.server_address[:2]
    followers = spawn_followers(server.url, 2, context)
    try:
        addresses = [leader_address] + [a for _, a in followers]
        # Warm every node's query caches before timing.
        for address in addresses:
            http_get(address, QUERY_PATH)
        rps = [measure_rps(addresses[:n]) for n in (1, 2, 3)]
    finally:
        for process, _ in followers:
            process.terminate()
            process.join(timeout=10.0)
    speedup_2 = rps[1] / rps[0]
    speedup_3 = rps[2] / rps[0]
    cores = os.cpu_count() or 1
    print_table(
        "R1: aggregate query RPS vs node count "
        f"({CLIENT_THREADS} client threads, {cores} cores)",
        ("nodes", "aggregate RPS", "vs single"),
        [("leader only", f"{rps[0]:.0f}", "1.00x"),
         ("+1 follower", f"{rps[1]:.0f}", f"{speedup_2:.2f}x"),
         ("+2 followers", f"{rps[2]:.0f}", f"{speedup_3:.2f}x")])
    row = dict(
        rps_1_node=round(rps[0], 1), rps_2_nodes=round(rps[1], 1),
        rps_3_nodes=round(rps[2], 1),
        speedup=round(speedup_3, 2), cores=cores,
        client_threads=CLIENT_THREADS)
    if cores >= MIN_CORES_FOR_FLOOR:
        row["floor"] = SCALEOUT_FLOOR
        bench_report.record("read_scaleout_2_replicas", **row)
        assert speedup_3 >= SCALEOUT_FLOOR
    else:
        # Nodes share cores: the series is recorded but not gated.
        bench_report.record("read_scaleout_2_replicas_ungated", **row)


def test_replica_lag_under_sustained_ingest(bench_report, leader):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork start method for follower processes")
    session, server = leader
    context = multiprocessing.get_context("fork")
    [(process, address)] = spawn_followers(server.url, 1, context)
    lags = []
    try:
        def writer():
            for n in range(LAG_INGESTS):
                session.ingest(small_delta(f"lag{n}"))

        thread = threading.Thread(target=writer)
        thread.start()
        while thread.is_alive():
            lags.append(int(scrape(address, "repro_replication_lag")[0]))
            time.sleep(0.02)
        thread.join()
        drain_start = time.monotonic()
        while True:
            lag, applied = scrape(address, "repro_replication_lag",
                                  "repro_session_applied_seq")
            lags.append(int(lag))
            if lag == 0 and applied == session.store.seq:
                break
            assert time.monotonic() - drain_start < 60.0, \
                "follower never drained its lag"
            time.sleep(0.02)
        drain_seconds = time.monotonic() - drain_start
    finally:
        process.terminate()
        process.join(timeout=10.0)
    print_table(
        f"R1: follower lag under {LAG_INGESTS} sustained ingests",
        ("metric", "value"),
        [("samples", len(lags)),
         ("max lag (records)", max(lags)),
         ("mean lag", f"{statistics.mean(lags):.2f}"),
         ("final lag", lags[-1]),
         ("drain seconds", f"{drain_seconds:.2f}")])
    bench_report.record(
        "replica_lag_sustained_ingest",
        ingests=LAG_INGESTS, samples=len(lags), max_lag=max(lags),
        mean_lag=round(statistics.mean(lags), 2), final_lag=lags[-1],
        drain_seconds=round(drain_seconds, 3))
    assert lags[-1] == 0
