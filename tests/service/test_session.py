"""WarehouseSession tests: warm state vs the cold-batch oracle.

The differential guarantee the service layer rides on: after any
sequence of ingested deltas, the warm session's target is
byte-identical to a cold ``Morphase.transform`` of the store's final
instance, and its violation set matches a cold audit.  Plus the
service-specific machinery: group-commit batching, concurrent
ingestion, label-addressed JSON ingestion, snapshot during operation.
"""

import json
import threading

import pytest

from repro.constraints.audit import audit_constraints
from repro.evolution.delta import Delta, compose_deltas, delta_between
from repro.io.json_io import instance_to_json
from repro.model.values import Oid, Record
from repro.morphase import Morphase
from repro.service.session import ServiceError
from repro.workloads import cities


def make_morphase():
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


@pytest.fixture()
def morphase():
    return make_morphase()


@pytest.fixture()
def session(morphase, tmp_path):
    store = morphase.open_store(
        str(tmp_path / "store"),
        [cities.sample_us_instance(), cities.sample_euro_instance()])
    session = morphase.serve(store)
    yield session
    session.close()


def dumps(instance) -> str:
    return json.dumps(instance_to_json(instance), sort_keys=True)


def insert_country(tag):
    oid = Oid.fresh("CountryE")
    return oid, Delta(inserts={"CountryE": {oid: Record.of(
        name=f"Land{tag}", language=f"lang{tag}", currency=f"C{tag}")}})


def assert_matches_cold_oracle(session):
    morphase, store = session.morphase, session.store
    cold = morphase.transform(store.instance)
    assert dumps(session.target) == dumps(cold.target)
    constraints = list(morphase.compile().source_constraints)
    report = audit_constraints(store.instance, constraints,
                               limit_per_clause=None)
    oracle = sorted(str(v) for name in report.failed_clauses()
                    for v in report.violations[name])
    assert sorted(str(v) for v in session.transform.violations()) == oracle


class TestDifferential:
    def test_each_ingest_matches_cold_batch(self, session):
        for tag in range(4):
            oid, delta = insert_country(tag)
            result = session.ingest(delta)
            assert result.applied_seq >= result.seq
            assert_matches_cold_oracle(session)

    def test_mixed_ops_match(self, session):
        oid, delta = insert_country("X")
        session.ingest(delta)
        session.ingest(Delta(updates={"CountryE": {oid: Record.of(
            name="LandX", language="other", currency="CX")}}))
        assert_matches_cold_oracle(session)
        session.ingest(Delta(deletes={"CountryE": (oid,)}))
        assert_matches_cold_oracle(session)

    def test_warm_rebuild_starts_from_recovered_instance(self, morphase,
                                                         tmp_path):
        store = morphase.open_store(
            str(tmp_path / "store"),
            [cities.sample_us_instance(), cities.sample_euro_instance()])
        first = morphase.serve(store)
        for tag in range(3):
            first.ingest(insert_country(tag)[1])
        first.close()
        reopened = morphase.open_store(str(tmp_path / "store"))
        assert reopened.stats()["wal_records"] == 3
        warm = morphase.serve(reopened)
        assert warm.metrics.value("repro_session_replayed_on_open") == 3
        assert warm.transform.source is reopened.instance
        assert_matches_cold_oracle(warm)
        warm.close()

    def test_ingest_json_with_labels(self, session):
        session.ingest_json({"inserts": {
            "CountryE": [{"id": {"$oid": "CountryE",
                                 "label": "CountryE#new"},
                          "value": {"$rec": {"name": "Utopia",
                                             "language": "u",
                                             "currency": "UTO"}}}],
            "CityE": [{"id": {"$oid": "CityE", "label": "CityE#new"},
                       "value": {"$rec": {
                           "name": "Nowhere", "is_capital": True,
                           "country": {"$oid": "CountryE",
                                       "label": "CountryE#new"}}}}]}})
        assert_matches_cold_oracle(session)
        # the client's label remains the durable address
        session.ingest_json({"updates": {
            "CityE": [{"id": {"$oid": "CityE", "label": "CityE#new"},
                       "value": {"$rec": {
                           "name": "Somewhere", "is_capital": True,
                           "country": {"$oid": "CountryE",
                                       "label": "CountryE#new"}}}}]}})
        assert_matches_cold_oracle(session)
        names = {session.store.instance.value_of(oid).get("name")
                 for oid in session.store.instance.objects_of("CityE")}
        assert "Somewhere" in names and "Nowhere" not in names


class TestBatching:
    def test_concurrent_ingest_all_land(self, session):
        errors = []

        def worker(tag):
            try:
                session.ingest(insert_country(tag)[1])
            except Exception as exc:  # pragma: no cover - fails test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert session.metrics.value("repro_session_ingested") == 8
        assert session.store.seq == 8
        assert 1 <= session.metrics.value("repro_session_batches") <= 8
        assert_matches_cold_oracle(session)

    def test_compose_equals_sequential(self, session):
        base = session.store.instance
        oid_a, delta_a = insert_country("A")
        delta_b = Delta(updates={"CountryE": {oid_a: Record.of(
            name="LandA", language="changed", currency="CA")}})
        composed = compose_deltas(delta_a, delta_b)
        sequential = delta_b.apply_to(delta_a.apply_to(base))
        assert delta_between(composed.apply_to(base),
                             sequential).is_empty()

    def test_empty_delta_is_acknowledged(self, session):
        result = session.ingest(Delta())
        assert result.seq == session.store.seq
        assert result.batch_size == 0


class TestMaintenance:
    def test_snapshot_during_operation(self, session):
        session.ingest(insert_country("A")[1])
        report = session.snapshot()
        assert report["base_seq"] == 1
        session.ingest(insert_country("B")[1])
        assert_matches_cold_oracle(session)
        assert session.metrics.value("repro_session_snapshots") == 1

    def test_query_body_unknown_class(self, session):
        with pytest.raises(ServiceError, match="Nonsense") as info:
            session.query_body_json("X in Nonsense")
        assert info.value.status == 422

    def test_read_between_apply_and_seq_runs_on_the_new_target(self,
                                                               session):
        """A batch replaces the target under the write lock and
        advances the applied seq only afterwards: a read in between
        gets a pool over the new target, not the cached one over the
        old target (whose index probes would miss the new country)."""
        body = 'X in CountryT, N = X.name, N = "Utopia"'
        assert session.query_body_json(body)["count"] == 0
        country = Oid.fresh("CountryE")
        session.transform.apply_delta(Delta(inserts={
            "CountryE": {country: Record.of(
                name="Utopia", language="utopian", currency="UTO")},
            "CityE": {Oid.fresh("CityE"): Record.of(
                name="Nowhere", is_capital=True, country=country)}}))
        assert session.applied_seq == 0
        assert session.query_body_json(body)["count"] == 1

    def test_stats_shape(self, session):
        session.ingest(insert_country("A")[1])
        value = session.metrics.value
        assert session.store.seq == session.applied_seq == 1
        assert value("repro_session_applied_seq") == 1
        assert value("repro_session_ingested") == 1
        assert value("repro_session_batches") == 1
        assert value("repro_session_role", {"role": "leader"}) == 1
        batch = session.metrics.get("repro_commit_batch_size").labels()
        assert (batch.count, batch.sum) == (1, 1)
        assert session.store.stats()["wal_records"] == 1
        assert session.spent is None
