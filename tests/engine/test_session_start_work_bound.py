"""Deterministic work bound on starting a session (no timing).

``IncrementalTransform.__init__`` is the production pass: whole binding
columns go through the batched head applier into the counted store.  A
session start that enumerated its own bindings would build one binding
dict and make one scalar ``head_effects`` call per body solution
(``stats.bindings_found`` of each), against a bound of zero at any
size.  Deltas are where the scalar applier belongs, and the last test
shows the counters see it there.
"""

import collections

import pytest

from repro.engine import IncrementalTransform, columnar, executor, incremental
from repro.evolution.delta import Delta
from repro.oracle import Matcher


@pytest.fixture
def work(monkeypatch):
    """Counts scalar head evaluations and per-row binding dicts."""
    counts = collections.Counter()

    def calls(key, function):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    def yields(key, function):
        def wrapper(*args, **kwargs):
            for binding in function(*args, **kwargs):
                counts[key] += 1
                yield binding
        return wrapper

    for module in (executor, incremental):
        monkeypatch.setattr(module, "head_effects",
                            calls("head_effects", module.head_effects))
    monkeypatch.setattr(columnar, "stream_plan_columnar", yields(
        "binding_dicts", columnar.stream_plan_columnar))
    monkeypatch.setattr(incremental, "seeded_batch_columnar", yields(
        "binding_dicts", incremental.seeded_batch_columnar))
    monkeypatch.setattr(Matcher, "solutions", yields(
        "binding_dicts", Matcher.solutions))
    return counts


def start(warehouse):
    morphase = warehouse.morphase
    return IncrementalTransform(
        morphase.compile().program(),
        morphase._merge_sources(warehouse.sources), morphase.target_plain)


@pytest.mark.parametrize("name", ["genome", "relibase", "cities"])
def test_session_start_is_the_batched_pass(warehouses, work, name):
    session = start(warehouses[name])
    assert session.stats.bindings_found > 0
    assert session.stats.vectorized_steps > 0
    assert work == {}


def test_the_counters_see_the_scalar_delta_path(warehouses, work):
    session = start(warehouses["genome"])
    clone = sorted(session.source.objects_of("Clone"), key=str)[0]
    result = session.apply_delta(Delta(deletes={"Clone": (clone,)}))
    assert result.stats.bindings_removed > 0
    assert work["head_effects"] == result.stats.bindings_removed
    assert work["binding_dicts"] >= result.stats.bindings_removed
