"""Deterministic work bounds on the write path (no timing).

A write costs what its delta touches.  Reopening a store with N WAL
records is one production pass over the recovered instance — not N
delta propagations; an ingest runs seeded plans compiled once, when the
session started — not ~7.6 plan compilations per delta; those
once-compiled plans hold no Skolem identities between deltas, so a
long-lived session's memory does not grow with the identities its
deltas minted; and the program and its source constraints share one
session, so the source is indexed once at start and swapped, re-indexed
and rebased once per batch — and the target's own pool is rebased once
per batch too, not rebuilt by the next read.
"""

import collections

import pytest

from repro.engine import (Executor, IncrementalTransform, ReverseIndex,
                          columnar, incremental)
from repro.evolution.delta import Delta
from repro.lang.ast import SkolemTerm
from repro.model.values import Oid
from repro.semantics.match import IndexPool
from repro.service import WarehouseSession

from .streams import GenomeStream, genome_morphase, genome_sources

WAL_RECORDS = 12
INGESTS = 8


def _count(monkeypatch, counts, owner, name):
    """Count calls of ``owner.name`` under ``"Owner.name"``."""
    original = getattr(owner, name)
    key = f"{owner.__name__.rpartition('.')[2]}.{name}"

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of the entry points a recovery or ingest may run."""
    counts = collections.Counter()
    _count(monkeypatch, counts, Executor, "run_program")
    _count(monkeypatch, counts, columnar, "compile_steps")
    _count(monkeypatch, counts, IncrementalTransform, "apply_delta")
    return counts


@pytest.fixture
def store_with_tail(tmp_path):
    morphase = genome_morphase()
    path = str(tmp_path / "store")
    store = morphase.open_store(path, genome_sources())
    writes = GenomeStream(seed=11)
    for _ in range(WAL_RECORDS):
        store.append(writes.next(store.instance))
    store.close()
    return morphase, path, writes


def test_recovery_is_one_pass_not_a_replay(store_with_tail, calls):
    morphase, path, _writes = store_with_tail
    session = morphase.serve(morphase.open_store(path))
    assert session.metrics.value("repro_session_replayed_on_open") \
        == WAL_RECORDS
    assert (calls["IncrementalTransform.apply_delta"],               # (a)
            calls["Executor.run_program"]) == (0, 1)
    session.close()


def test_ingest_compiles_nothing(store_with_tail, calls):
    morphase, path, writes = store_with_tail
    session = morphase.serve(morphase.open_store(path))
    started = collections.Counter(calls)
    for _ in range(INGESTS):
        session.ingest(writes.next(session.store.instance))
    during = calls - started
    assert during["IncrementalTransform.apply_delta"] == INGESTS
    assert during["columnar.compile_steps"] == 0                    # (b)
    session.close()


def test_an_ingest_counts_violations_without_ordering_them(
        store_with_tail, monkeypatch):
    """The acknowledgement carries the live violation count: no
    ingest orders or stringifies the violation set."""
    morphase, path, writes = store_with_tail
    session = morphase.serve(morphase.open_store(path))
    ordered = []
    monkeypatch.setattr(incremental, "_in_order", ordered.append)
    for _ in range(INGESTS):
        result = session.ingest(writes.next(session.store.instance))
        assert result.violations == session.transform.violation_count()
    assert ordered == []
    session.close()


def test_serve_indexes_the_source_once(store_with_tail, monkeypatch):
    morphase, path, _writes = store_with_tail
    store = morphase.open_store(path)
    built = collections.Counter()
    for owner in (ReverseIndex, IndexPool):
        def init(self, *args, _original=owner.__init__,
                 _name=owner.__name__, **kwargs):
            if args and args[0] is store.instance:
                built[_name] += 1
            _original(self, *args, **kwargs)
        monkeypatch.setattr(owner, "__init__", init)
    session = morphase.serve(store)
    assert built == {"ReverseIndex": 1, "IndexPool": 1}             # (d)
    session.close()


def test_a_batch_swaps_the_source_once(store_with_tail, monkeypatch):
    morphase, path, writes = store_with_tail
    session = morphase.serve(morphase.open_store(path))
    counts = collections.Counter()
    for owner, name in ((Delta, "apply_to"),
                        (ReverseIndex, "apply_delta")):
        _count(monkeypatch, counts, owner, name)
    rebase = IndexPool.rebase

    def counted_rebase(pool, *args, **kwargs):
        transform = session.transform
        side = ("source" if pool is transform.plan.pool
                else "target" if pool is transform.target_pool else "other")
        counts[f"IndexPool.rebase[{side}]"] += 1
        return rebase(pool, *args, **kwargs)
    monkeypatch.setattr(IndexPool, "rebase", counted_rebase)
    per_batch = []
    apply_batch = WarehouseSession._apply_batch

    def counted_batch(self, batch):
        before = collections.Counter(counts)
        apply_batch(self, batch)
        changed = self.transform.stats.target_objects_touched
        per_batch.append((dict(counts - before), changed > 0))
    monkeypatch.setattr(WarehouseSession, "_apply_batch", counted_batch)
    for _ in range(INGESTS):
        session.ingest(writes.next(session.store.instance))
    # The target's pool is rebased exactly when the batch changed the
    # target (a batch may change no target object at all).
    assert [counted for counted, _changed in per_batch] == [{   # (e)
        "Delta.apply_to": 1, "ReverseIndex.apply_delta": 1,
        "IndexPool.rebase[source]": 1,
        **({"IndexPool.rebase[target]": 1} if changed else {})}
        for _counted, changed in per_batch]
    assert sum(changed for _counted, changed in per_batch) > INGESTS // 2
    session.close()


def _closure_dicts(function, seen):
    """Every dict a compiled stage's closures hold, transitively."""
    if id(function) in seen:
        return
    seen.add(id(function))
    for cell in function.__closure__ or ():
        contents = cell.cell_contents
        if isinstance(contents, dict):
            yield contents
        items = contents if isinstance(contents, (tuple, list)) \
            else (contents,)
        for item in items:
            if callable(item) and hasattr(item, "__closure__"):
                yield from _closure_dicts(item, seen)


def test_seeded_skolem_stages_keep_no_identities(store_with_tail):
    morphase, path, writes = store_with_tail
    session = morphase.serve(morphase.open_store(path))
    transform = session.transform
    skolem_stages = [
        stages for seeds, per_clause in zip(transform._seeds,
                                            transform._stages)
        for seed, stages in zip(seeds, per_clause)
        if seed.plan is not None and any(
            isinstance(step.eval_term, SkolemTerm)
            for step in seed.plan.steps)]
    assert skolem_stages
    for tag in ("c1", "c2"):                                        # (c)
        # an inserted sequence seeds every clause that mints its target
        session.ingest(writes.insert(tag))
        assert transform.stats.bindings_added > 0
        seen = set()
        for stages, _names, _retains in skolem_stages:
            for stage in stages:
                for held in _closure_dicts(stage, seen):
                    assert not any(isinstance(value, Oid)
                                   for value in held.values())
    session.close()
