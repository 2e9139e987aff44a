"""Deterministic work bounds on the write path (no timing).

A write costs what its delta touches.  Reopening a store with N WAL
records is one production pass over the recovered instance — not N
delta propagations through the transform and the audit; an ingest runs
seeded plans compiled once, when the session started — not ~7.6 plan
compilations per delta; and those once-compiled plans hold no Skolem
identities between deltas, so a long-lived session's memory does not
grow with the identities its deltas minted.
"""

import collections

import pytest

from repro.engine import (Executor, IncrementalAudit, IncrementalTransform,
                          columnar)
from repro.lang.ast import SkolemTerm
from repro.model.values import Oid

from .streams import GenomeStream, genome_morphase, genome_sources

WAL_RECORDS = 12
INGESTS = 8


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of the entry points a recovery or ingest may run."""
    counts = collections.Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(Executor, "run_program")
    counted(columnar, "compile_steps")
    for engine in (IncrementalTransform, IncrementalAudit):
        original = engine.apply_delta

        def wrapper(self, delta, _original=original,
                    _key=f"{engine.__name__}.apply_delta"):
            counts[_key] += 1
            return _original(self, delta)
        monkeypatch.setattr(engine, "apply_delta", wrapper)
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
    assert session.counters.replayed_on_open == WAL_RECORDS
    assert (calls["IncrementalTransform.apply_delta"],               # (a)
            calls["IncrementalAudit.apply_delta"],
            calls["run_program"]) == (0, 0, 1)
    session.close()


def test_ingest_compiles_nothing(store_with_tail, calls):
    morphase, path, writes = store_with_tail
    session = morphase.serve(morphase.open_store(path))
    started = collections.Counter(calls)
    for _ in range(INGESTS):
        session.ingest(writes.next(session.store.instance))
    during = calls - started
    assert during["IncrementalTransform.apply_delta"] == INGESTS
    assert during["compile_steps"] == 0                             # (b)
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
            for _vectorized, stage in stages:
                for held in _closure_dicts(stage, seen):
                    assert not any(isinstance(value, Oid)
                                   for value in held.values())
    session.close()
