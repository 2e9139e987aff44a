"""WarehouseStore tests: durability, recovery, compaction, labels.

The store's contract is differential: kill-and-reopen at any point
must recover state byte-identical (canonical serialisation) to an
in-memory oracle that never crashed.  The oracle here is simply the
original ``WarehouseStore`` object kept in memory while a second
``open()`` re-reads everything from disk.
"""

import json
import os

import pytest

from repro.evolution.delta import Delta, DeltaError
from repro.morphase import Morphase
from repro.model.values import Oid, Record
from repro.store import StoreError, WarehouseStore
from repro.store.snapshot import SnapshotError
from repro.store.store import WAL_NAME
from repro.workloads import cities, genome


def canonical(store) -> str:
    return json.dumps(store.canonical_json(), sort_keys=True)


def euro_store(tmp_path, name="store"):
    return WarehouseStore.create(str(tmp_path / name),
                                 cities.sample_euro_instance())


def insert_country(tag):
    oid = Oid.fresh("CountryE")
    return oid, Delta(inserts={"CountryE": {oid: Record.of(
        name=f"Land{tag}", language=f"lang{tag}", currency=f"C{tag}")}})


class TestLifecycle:
    def test_create_then_open_is_identical(self, tmp_path):
        store = euro_store(tmp_path)
        reopened = WarehouseStore.open(store.path)
        assert canonical(reopened) == canonical(store)
        assert reopened.seq == 0

    def test_create_twice_refuses(self, tmp_path):
        store = euro_store(tmp_path)
        with pytest.raises(StoreError, match="already holds"):
            WarehouseStore.create(store.path,
                                  cities.sample_euro_instance())

    def test_open_missing_refuses(self, tmp_path):
        with pytest.raises(SnapshotError, match="not a warehouse store"):
            WarehouseStore.open(str(tmp_path / "nothing"))


class TestKillAndReopen:
    def test_reopen_after_every_append_matches_oracle(self, tmp_path):
        oracle = euro_store(tmp_path)
        for tag in range(5):
            _, delta = insert_country(tag)
            oracle.append(delta)
            reopened = WarehouseStore.open(oracle.path)
            assert canonical(reopened) == canonical(oracle)
            assert reopened.seq == oracle.seq

    def test_reopen_after_snapshot_mid_sequence(self, tmp_path):
        oracle = euro_store(tmp_path)
        for tag in range(3):
            oracle.append(insert_country(tag)[1])
        oracle.snapshot()
        for tag in range(3, 6):
            oracle.append(insert_country(tag)[1])
        reopened = WarehouseStore.open(oracle.path)
        assert canonical(reopened) == canonical(oracle)
        assert reopened.base_seq == 3 and reopened.seq == 6

    def test_update_and_delete_roundtrip(self, tmp_path):
        oracle = euro_store(tmp_path)
        oid, delta = insert_country("X")
        oracle.append(delta)
        oracle.append(Delta(updates={"CountryE": {oid: Record.of(
            name="LandX", language="renamed", currency="CX")}}))
        mid = WarehouseStore.open(oracle.path)
        assert canonical(mid) == canonical(oracle)
        oracle.append(Delta(deletes={"CountryE": (oid,)}))
        assert canonical(WarehouseStore.open(oracle.path)) \
            == canonical(oracle)

    def test_torn_final_record_recovers_prefix(self, tmp_path):
        oracle = euro_store(tmp_path)
        oracle.append(insert_country("A")[1])
        prefix = canonical(oracle)
        oracle.append(insert_country("B")[1])
        oracle.close()
        wal_path = os.path.join(oracle.path, WAL_NAME)
        with open(wal_path, "rb+") as handle:
            handle.truncate(os.path.getsize(wal_path) - 3)
        recovered = WarehouseStore.open(oracle.path)
        assert recovered.recovered_torn is not None
        assert recovered.seq == 1
        assert canonical(recovered) == prefix
        # the tail was truncated away: appending continues cleanly
        recovered.append(insert_country("C")[1])
        assert WarehouseStore.open(oracle.path).seq == 2

    def test_wal_gap_refuses(self, tmp_path):
        oracle = euro_store(tmp_path)
        oracle.append(insert_country("A")[1])
        oracle.append(insert_country("B")[1])
        oracle.close()
        wal_path = os.path.join(oracle.path, WAL_NAME)
        with open(wal_path, "rb") as handle:
            lines = handle.readlines()
        with open(wal_path, "wb") as handle:
            handle.write(lines[1])  # drop record 1, keep record 2
        with pytest.raises(StoreError, match="WAL gap"):
            WarehouseStore.open(oracle.path)

    def test_tampered_snapshot_refuses(self, tmp_path):
        store = euro_store(tmp_path)
        path = os.path.join(store.path, store.snapshot_file)
        with open(path, "r+", encoding="utf-8") as handle:
            text = handle.read().replace("CountryE", "CountryX", 1)
            handle.seek(0)
            handle.write(text)
            handle.truncate()
        with pytest.raises(SnapshotError, match="content check"):
            WarehouseStore.open(store.path)


class TestCompaction:
    def test_snapshot_resets_wal_and_prunes(self, tmp_path):
        store = euro_store(tmp_path)
        first_snapshot = store.snapshot_file
        for tag in range(3):
            store.append(insert_country(tag)[1])
        assert store.wal.size_bytes() > 0
        name = store.snapshot()
        assert store.wal.size_bytes() == 0
        assert store.stats()["wal_records"] == 0
        assert store.payload_tail == []
        snapshots = [entry for entry in os.listdir(store.path)
                     if entry.startswith("snap-")]
        assert snapshots == [name]
        assert name != first_snapshot

    def test_snapshot_is_idempotent_by_content(self, tmp_path):
        store = euro_store(tmp_path)
        assert store.snapshot() == store.snapshot_file
        # no deltas in between: same content, same address
        again = WarehouseStore.open(store.path)
        assert again.snapshot_file == store.snapshot_file

    def test_stale_wal_records_skipped_after_manifest_flip(self,
                                                          tmp_path):
        """Crash between CURRENT flip and WAL reset loses nothing."""
        store = euro_store(tmp_path)
        for tag in range(2):
            store.append(insert_country(tag)[1])
        reference = canonical(store)
        # simulate the crash: write snapshot + manifest, keep old WAL
        from repro.store.snapshot import write_current, write_snapshot
        name = write_snapshot(store.path, store.instance, store.seq,
                              store.labels)
        write_current(store.path, name, base_seq=store.seq, wal=WAL_NAME)
        store.close()
        recovered = WarehouseStore.open(store.path)
        assert recovered.base_seq == 2 and recovered.seq == 2
        assert recovered.stats()["wal_records"] == 0
        assert recovered.payload_tail == []
        # the snapshot carries the store's labels: byte-identical
        assert canonical(recovered) == reference


class TestLabelAddressing:
    def test_client_label_survives_reopen(self, tmp_path):
        store = euro_store(tmp_path)
        insert = {"inserts": {"CountryE": [
            {"id": {"$oid": "CountryE", "label": "CountryE#mine"},
             "value": {"$rec": {"name": "Utopia", "language": "u",
                                "currency": "UTO"}}}]}}
        store.append(store.decode_delta(insert))
        reopened = WarehouseStore.open(store.path)
        update = {"updates": {"CountryE": [
            {"id": {"$oid": "CountryE", "label": "CountryE#mine"},
             "value": {"$rec": {"name": "Utopia", "language": "topian",
                                "currency": "UTO"}}}]}}
        reopened.append(reopened.decode_delta(update))
        languages = sorted(
            reopened.instance.value_of(oid).get("language")
            for oid in reopened.instance.objects_of("CountryE"))
        assert "topian" in languages and "u" not in languages

    def test_unknown_update_label_refuses(self, tmp_path):
        store = euro_store(tmp_path)
        update = {"updates": {"CountryE": [
            {"id": {"$oid": "CountryE", "label": "CountryE#nope"},
             "value": {"$rec": {"name": "X", "language": "x",
                                "currency": "X"}}}]}}
        with pytest.raises(DeltaError, match="cannot update"):
            store.append(store.decode_delta(update))

    def test_labels_survive_compaction_and_reopen(self, tmp_path):
        """A label names one object for the store's whole life."""
        store = Morphase([cities.us_schema(), cities.euro_schema()],
                         cities.target_schema(),
                         cities.PROGRAM_TEXT).open_store(
            str(tmp_path / "cities"),
            [cities.sample_us_instance(), cities.sample_euro_instance()])
        for n in range(3):
            store.append(store.decode_delta({"inserts": {"CityE": [
                {"id": {"$oid": "CityE", "label": f"CityE#new{n}"},
                 "value": {"$rec": {
                     "name": f"Newtown{n}", "is_capital": False,
                     "country": {"$oid": "CountryE",
                                 "label": "CountryE#0"}}}}]}}))
        issued = dict(store.labels.by_label)
        reference = canonical(store)
        store.snapshot()
        assert store.labels.by_label == issued
        assert canonical(store) == reference
        reopened = WarehouseStore.open(store.path)
        assert reopened.labels.by_label.keys() == issued.keys()
        assert canonical(reopened) == reference
        for current in (store, reopened):
            delete = current.decode_delta({"deletes": {"CityE": [
                {"$oid": "CityE", "label": "CityE#new1"}]}})
            (gone,) = delete.deletes["CityE"]
            assert current.instance.value_of(gone).get("name") \
                == "Newtown1"

    def test_minted_label_skips_a_client_label(self, tmp_path):
        # The client picks the label the WAL encoder would mint next;
        # the minted one must not re-point it, or the WAL names two
        # objects by one label and the store no longer reopens.
        store = euro_store(tmp_path)
        store.append(store.decode_delta({"inserts": {"CountryE": [
            {"id": {"$oid": "CountryE", "label": "CountryE#w2.1"},
             "value": {"$rec": {"name": "Utopia", "language": "u",
                                "currency": "UTO"}}}]}}))
        store.append(insert_country("minted")[1])
        assert len(set(store.labels.by_oid.values())) \
            == len(store.labels.by_oid)
        assert canonical(WarehouseStore.open(store.path)) \
            == canonical(store)

    def test_keyed_store_has_deterministic_snapshots(self, tmp_path):
        """All-keyed workloads content-address identically everywhere."""
        first = WarehouseStore.create(str(tmp_path / "a"),
                                      genome.source_instance())
        second = WarehouseStore.create(str(tmp_path / "b"),
                                       genome.source_instance())
        assert first.snapshot_file == second.snapshot_file
        assert canonical(first) == canonical(second)


class TestValidation:
    def test_inapplicable_delta_never_reaches_the_wal(self, tmp_path):
        store = euro_store(tmp_path)
        ghost = Oid.fresh("CountryE")
        with pytest.raises(DeltaError, match="cannot delete"):
            store.append(Delta(deletes={"CountryE": (ghost,)}))
        assert store.wal.size_bytes() == 0
        assert WarehouseStore.open(store.path).seq == 0

    def test_empty_delta_is_a_noop(self, tmp_path):
        store = euro_store(tmp_path)
        assert store.append(Delta()) == 0
        assert store.wal.size_bytes() == 0
