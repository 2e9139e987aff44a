"""Recovery is a fresh run: a reopened session equals one production
pass over the instance the store recovered.

A warm session starts from ``store.instance`` instead of re-propagating
the WAL tail, which is sound only if production under deltas equals
production from scratch.  Each stream below is killed and reopened at
several points; every reopened session's ``/target`` bytes, violation
list and counted target store must equal
``Morphase.begin_incremental(store.instance)``'s, match what the
session had before the kill, and keep applying deltas.  A store whose
tail leaves the program conflicting fails at ``serve`` exactly as a
batch transform of the recovered instance fails.
"""

import threading

import pytest

from repro.engine import ExecutionError
from repro.evolution.delta import Delta
from repro.io.json_io import canonical_json, instance_to_json
from repro.model.values import WolSet
from repro.service import WalReplica, make_server

from .streams import (CitiesStream, GenomeStream, cities_morphase,
                      cities_sources, genome_morphase, genome_sources)

KILL_POINTS = (1, 9, 24, 60)


def counted_state(store):
    return {oid: (pending.creates, pending.attributes,
                  pending.set_attributes)
            for oid, pending in store.objects.items()}


def observed(session):
    """What a client and the engine's own bookkeeping see."""
    return (session.target_json_bytes(),
            [str(violation) for violation in session.transform.violations()],
            counted_state(session.transform.store))


def fresh_run(morphase, instance):
    fresh = morphase.begin_incremental(instance)
    return (canonical_json(instance_to_json(fresh.target)).encode(),
            [str(violation) for violation in fresh.violations()],
            counted_state(fresh.store))


@pytest.mark.parametrize("build, sources, stream", [
    (genome_morphase, genome_sources, GenomeStream),
    (cities_morphase, cities_sources, CitiesStream)],
    ids=["genome", "cities"])
def test_reopened_session_equals_a_fresh_run(tmp_path, build, sources,
                                             stream):
    morphase = build()
    path = str(tmp_path / "store")
    session = morphase.serve(morphase.open_store(path, sources()))
    writes = stream(seed=3)
    applied = 0
    for kill_at in KILL_POINTS:
        while applied < kill_at:
            session.ingest(writes.next(session.store.instance))
            applied += 1
        before = observed(session)
        session.close()  # killed: no compaction, the WAL tail stays
        store = morphase.open_store(path)
        assert store.stats()["wal_records"] == applied
        session = morphase.serve(store)
        assert session.metrics.value("repro_session_replayed_on_open") \
            == applied
        assert observed(session) == fresh_run(morphase, store.instance)
        assert observed(session) == before
    # The reopened session is a live incremental session, not a copy.
    for _ in range(5):
        session.ingest(writes.next(session.store.instance))
    assert observed(session) == fresh_run(morphase, session.store.instance)
    session.close()


def test_conflicting_tail_fails_serve_like_a_batch_transform(tmp_path):
    morphase = genome_morphase()
    path = str(tmp_path / "store")
    store = morphase.open_store(path, genome_sources())
    gene = sorted(store.instance.objects_of("Gene"), key=str)[0]
    # Two descriptions make the target's gene description non-functional;
    # the source schema allows it, so the WAL accepts the delta.
    store.append(Delta(updates={"Gene": {
        gene: store.instance.value_of(gene).with_field(
            "description", WolSet.of("one", "two"))}}))
    store.close()
    reopened = morphase.open_store(path)
    with pytest.raises(ExecutionError) as batch:
        morphase.transform(reopened.instance)
    with pytest.raises(Exception) as served:
        morphase.serve(reopened)
    assert type(served.value) is type(batch.value)
    assert str(served.value) == str(batch.value)
    reopened.close()


def test_follower_reopens_its_own_store_as_a_fresh_run(tmp_path):
    morphase = cities_morphase()
    leader = morphase.serve(morphase.open_store(str(tmp_path / "leader"),
                                                cities_sources()))
    server = make_server(leader)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    writes = CitiesStream(seed=5)
    try:
        for _ in range(6):
            leader.ingest(writes.next(leader.store.instance))
        follower_dir = str(tmp_path / "follower")
        first = WalReplica(cities_morphase(), server.url, follower_dir)
        first.bootstrap()
        first.catch_up()
        first.close()
        for _ in range(4):
            leader.ingest(writes.next(leader.store.instance))
        # A restarted follower resumes from its own store: the seed
        # snapshot plus six replicated WAL records.
        replica = WalReplica(cities_morphase(), server.url, follower_dir)
        follower = replica.bootstrap()
        assert follower.store.stats()["wal_records"] == 6
        assert observed(follower) == fresh_run(follower.morphase,
                                               follower.store.instance)
        replica.catch_up()
        assert follower.store.seq == leader.store.seq == 10
        assert follower.target_json_bytes() == leader.target_json_bytes()
        replica.close()
    finally:
        server.shutdown()
        server.server_close()
        leader.close()
