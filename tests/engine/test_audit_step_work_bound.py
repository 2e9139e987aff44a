"""Deterministic work bound on the constraint side of a delta step (no
timing).

A step rechecks a constraint's seeded body rows with one batch head
probe per clause.  The probe reads the seeded batch's own columns,
projected to the body's variables, and a row's violation key is read
from those columns too; a row becomes a binding dict only when it
becomes a :class:`~repro.semantics.satisfaction.Violation`.  So a row
that is satisfied after the step costs no binding dict, however many
rows the step rechecks.  (Decoding every seeded row into a dict and
rebuilding the columns from the dicts would show here as probe columns
that are no batch's.)
"""

import pytest

from repro.engine import IncrementalTransform, incremental
from repro.evolution.delta import Delta

CORRUPTED = 7   # links re-pointed, then restored


class _Probe:
    def __init__(self):
        self.batch_columns = []   # every column of every seeded batch
        self.probed = []          # the columns each head probe read
        self.decoded = 0          # rows turned into Violation bindings

    def foreign_columns(self):
        """Head-probe inputs that are not a seeded batch's own column
        (a probe handed rows instead of columns counts whole)."""
        own = {id(column) for column in self.batch_columns}
        foreign = []
        for columns in self.probed:
            if not isinstance(columns, dict):
                foreign.append(columns)
                continue
            foreign.extend(name for name, column in columns.items()
                           if id(column) not in own)
        return foreign


@pytest.fixture
def probe(monkeypatch):
    found = _Probe()
    seeded_solutions = incremental.seeded_solutions
    satisfied = IncrementalTransform._satisfied
    violation = incremental.Violation

    def seeded(*args, **kwargs):
        batch = seeded_solutions(*args, **kwargs)
        if batch is not None:
            found.batch_columns.extend(batch[0].values())
        return batch

    def probed(session, index, pool, columns, *rest):
        found.probed.append(columns)
        return satisfied(session, index, pool, columns, *rest)

    def decoded(clause, binding):
        found.decoded += 1
        return violation(clause, binding)

    monkeypatch.setattr(incremental, "seeded_solutions", seeded)
    monkeypatch.setattr(IncrementalTransform, "_satisfied", probed)
    monkeypatch.setattr(incremental, "Violation", decoded)
    return found


def _relinked(instance, genes, shift):
    """The first CORRUPTED ``SeqGene`` links, each moved ``shift``
    genes along."""
    return Delta(updates={"SeqGene": {
        oid: instance.value_of(oid).with_field(
            "gene", genes[(genes.index(instance.value_of(oid).get("gene"))
                           + shift) % len(genes)])
        for oid in instance.objects_of("SeqGene")[:CORRUPTED]}})


def test_only_rows_that_become_violations_are_decoded(warehouses, probe):
    warehouse = warehouses["genome"]
    clean = warehouse.combined
    program = list(warehouse.morphase.program)
    session = IncrementalTransform((), clean, clean.schema,
                                   constraints=program)
    genes = clean.objects_of("GeneT")

    damaged = session.apply_delta(_relinked(clean, genes, 1))
    tl_added = [v for v in damaged.added if v.clause.name == "TL"]
    assert damaged.stats.violations_rechecked == CORRUPTED
    assert len(tl_added) == CORRUPTED
    assert probe.decoded == CORRUPTED       # one dict per new violation
    assert probe.probed and probe.foreign_columns() == []

    probe.decoded, probe.probed = 0, []
    repaired = session.apply_delta(_relinked(session.source, genes, -1))
    assert repaired.stats.violations_rechecked == CORRUPTED
    assert {v.clause.name for v in repaired.removed} >= {"TL"}
    assert probe.decoded == 0               # satisfied rows: no dict
    assert probe.probed and probe.foreign_columns() == []
