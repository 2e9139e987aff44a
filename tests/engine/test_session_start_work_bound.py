"""Deterministic work bound on head application (no timing).

``IncrementalTransform.__init__`` is the production pass, and a delta
step hands each clause's seeded batch to the same batch head applier:
whole binding columns go into the counted store, with a sign.  Applying
heads one firing at a time would build one binding dict and make one
scalar ``head_effects`` call per body solution (``stats.bindings_found``
of a start, ``bindings_removed`` + ``bindings_added`` of a step),
against a bound of zero at any size.  The scalar applier is the
oracle's alone (``repro.oracle``).
"""

import collections

import pytest

from repro import oracle
from repro.engine import IncrementalTransform, incremental
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

    def rows(key, function):
        def wrapper(*args, **kwargs):
            decoded = function(*args, **kwargs)
            counts[key] += len(decoded)
            return decoded
        return wrapper

    monkeypatch.setattr(oracle, "head_effects",
                        calls("head_effects", oracle.head_effects))
    monkeypatch.setattr(Matcher, "solutions", yields(
        "binding_dicts", Matcher.solutions))
    # The one place a session decodes a batch into binding dicts: the
    # constraint side (the genome warehouse declares no source
    # constraints, so a program clause decoding its rows shows here).
    monkeypatch.setattr(incremental, "_rows", rows(
        "binding_dicts", incremental._rows))
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


def test_a_delta_step_applies_heads_in_batches(warehouses, work):
    session = start(warehouses["genome"])
    clone = sorted(session.source.objects_of("Clone"), key=str)[0]
    result = session.apply_delta(Delta(deletes={"Clone": (clone,)}))
    assert result.stats.bindings_removed > 0
    assert result.changed
    assert work == {}
    assert not hasattr(incremental, "head_effects")
