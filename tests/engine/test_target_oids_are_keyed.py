"""Every oid of a transformation's target is keyed.

A target object is created only by a Skolem term: a head identity
(:meth:`repro.engine.executor._HeadPlan.apply`) evaluates to
``Oid.keyed``, and the target's values may reference target objects
only.  So a target — of a batch pass or of any incremental step — holds
no anonymous oid, and the service encodes every target read with
:data:`repro.io.json_io.keyed_oid_encoder` instead of deriving (and
patching) a dump-label table per target.  This suite checks the claim
on every target the one freeze hands out: the three warehouses under
write streams, every program under ``examples/`` and the
differential-fuzz universes.
"""

import pathlib
import runpy

import pytest
from hypothesis import given, settings

from repro.engine.executor import TargetStore
from repro.model.values import oids_in
from repro.morphase import Morphase
from repro.workloads import relibase

from tests.fuzz.test_differential import build_morphase, universes
from tests.service import streams

EXAMPLES = sorted(
    (pathlib.Path(__file__).parents[2] / "examples").glob("*.py"))
DELTAS = 12


def anonymous_oids(instance):
    """The anonymous oids ``instance`` holds, as objects or in values."""
    found = []
    for cname in instance.schema.class_names():
        for oid, value in instance.valuations[cname].items():
            found.extend(held for held in (oid, *oids_in(value))
                         if not held.is_keyed)
    return found


@pytest.fixture
def targets(monkeypatch):
    """Every target instance :meth:`TargetStore.freeze` returns — the
    one freeze of a batch pass and of an incremental step."""
    produced = []
    freeze = TargetStore.freeze

    def recording(self, *args, **kwargs):
        instance, changed = freeze(self, *args, **kwargs)
        produced.append(instance)
        return instance, changed
    monkeypatch.setattr(TargetStore, "freeze", recording)
    return produced


def assert_all_keyed(targets):
    assert targets
    for target in targets:
        assert anonymous_oids(target) == []


@pytest.mark.parametrize("build, sources, stream", [
    (streams.cities_morphase, streams.cities_sources, streams.CitiesStream),
    (streams.genome_morphase, streams.genome_sources, streams.GenomeStream),
], ids=["cities", "genome"])
def test_streamed_warehouse_targets_are_keyed(targets, build, sources,
                                              stream):
    morphase = build()
    writes = stream(seed=3)
    source = morphase._merge_sources(sources())
    morphase.transform(source)
    session = morphase.begin_incremental(source)
    for _ in range(DELTAS):
        session.apply_delta(writes.next(session.source))
    assert len(targets) == DELTAS + 2
    assert_all_keyed(targets)


def test_relibase_target_is_keyed(targets):
    morphase = Morphase([relibase.swissprot_schema(), relibase.pdb_schema()],
                        relibase.relibase_schema(), relibase.PROGRAM_TEXT)
    sources = list(relibase.generate_sources(
        proteins=20, structures_per_protein=2, ligands=10, bindings=30,
        seed=11))
    morphase.transform(sources)
    morphase.begin_incremental(sources)
    assert_all_keyed(targets)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_targets_are_keyed(targets, path, capsys):
    assert runpy.run_path(str(path))["main"]() in (None, 0)
    capsys.readouterr()
    assert_all_keyed(targets)


@settings(max_examples=30, deadline=None)
@given(universes())
def test_fuzzed_targets_are_keyed(universe):
    width, source, delta = universe
    morphase = build_morphase(width)
    target = morphase.transform(source).target
    result = morphase.begin_incremental(source).apply_delta(delta)
    assert anonymous_oids(target) == anonymous_oids(result.target) == []
