"""The planned Tr-audit on *violating* warehouses, against the oracle.

The e2e workloads only ever audit clean warehouses, so the heads
behind the three join-shaped audit bodies (genome ``TC`` / ``TL``,
relibase ``RC``) never fail there.  Here each of them is made to fail
more than five times and the planned audit must report exactly the
oracle's violations, and under a limit exactly the first
``min(limit, total)`` of them per clause, in order.  The incremental
session keeps the same set while the damage is done and undone, and
orders it only for a reader of the list: a step, and a count of the
set, order nothing.
"""

from collections import Counter

import pytest

from repro.engine import IncrementalTransform, incremental
from repro.evolution.delta import Delta
from repro.model.instance import Instance
from repro.oracle import naive_violations
from repro.semantics import merge_instances
from repro.semantics.satisfaction import program_violations

CORRUPTED = 7   # objects damaged per clause (> the CLI's limit of 5)


def _damaged(target: Instance, class_name: str, attr: str, value_of):
    """``target`` with ``attr`` of the first CORRUPTED objects of
    ``class_name`` overwritten by ``value_of(old value)``."""
    builder = target.builder()
    for oid in target.objects_of(class_name)[:CORRUPTED]:
        value = target.value_of(oid)
        builder.put(oid, value.with_field(attr, value_of(value.get(attr))))
    return builder.freeze()


def _violating(warehouses, name):
    """(combined instance, program, clauses expected to be violated)."""
    warehouse = warehouses[name]
    target = warehouse.target
    if name == "genome":
        # TC: clone lengths no longer match their source clones;
        # TL: links re-pointed at some other gene.
        genes = target.objects_of("GeneT")
        target = _damaged(target, "CloneT", "length",
                          lambda length: length + 1)
        target = _damaged(
            target, "SeqGene", "gene",
            lambda gene: genes[(genes.index(gene) + 1) % len(genes)])
        expected = {"TC", "TL"}
    else:
        target = _damaged(target, "Complex", "affinity",
                          lambda affinity: affinity + 1.0)
        expected = {"RC"}
    combined = merge_instances("__audit__", warehouse.sources + [target])
    return combined, list(warehouse.morphase.program), expected


@pytest.mark.parametrize("name", ["genome", "relibase"])
def test_planned_audit_matches_the_oracle_on_violations(warehouses, name):
    combined, program, expected = _violating(warehouses, name)
    naive = naive_violations(combined, program)
    totals = Counter(v.clause.name for v in naive)
    for clause in expected:
        assert totals[clause] > 5, (clause, totals)
    reference = {str(v) for v in naive}
    assert len(reference) == len(naive)
    found = program_violations(combined, program, limit_per_clause=None)
    assert {str(v) for v in found} == reference
    assert len(found) == len(naive)
    limited = program_violations(combined, program, limit_per_clause=5)
    assert Counter(v.clause.name for v in limited) == {
        clause: min(5, total) for clause, total in totals.items()}
    assert {str(v) for v in limited} <= reference


def _by_clause(violations):
    grouped = {}
    for violation in violations:
        grouped.setdefault(violation.clause.name, []).append(str(violation))
    return grouped


@pytest.mark.parametrize("name", ["genome", "relibase"])
def test_a_limit_keeps_a_prefix_of_each_clause(warehouses, name):
    combined, program, expected = _violating(warehouses, name)
    unlimited = _by_clause(program_violations(combined, program))
    assert expected <= unlimited.keys()
    for limit in (1, 2, 5):
        limited = _by_clause(program_violations(
            combined, program, limit_per_clause=limit))
        assert limited == {clause: found[:limit]
                           for clause, found in unlimited.items()}


def _updates(instance, class_name, attr, value_of):
    """An update delta rewriting ``attr`` of the first CORRUPTED
    objects of ``class_name``."""
    return Delta(updates={class_name: {
        oid: instance.value_of(oid).with_field(
            attr, value_of(instance.value_of(oid).get(attr)))
        for oid in instance.objects_of(class_name)[:CORRUPTED]}})


def test_the_session_follows_damage_and_repair(warehouses):
    """TC and TL violations appear, then go, one delta at a time (a
    re-pointed link breaks its key too); after every step the
    session's violation set is a fresh batch audit."""
    warehouse = warehouses["genome"]
    program = list(warehouse.morphase.program)
    clean = warehouse.combined
    session = IncrementalTransform((), clean, clean.schema,
                                   constraints=program)
    assert session.violations() == []
    genes = clean.objects_of("GeneT")
    steps = [
        (_updates(clean, "CloneT", "length", lambda length: length + 1),
         {"TC"}),
        (_updates(clean, "SeqGene", "gene",
                  lambda gene: genes[(genes.index(gene) + 1) % len(genes)]),
         {"TC", "TL", "KeySeqGene"}),
        (_updates(clean, "CloneT", "length", lambda length: length),
         {"TL", "KeySeqGene"}),
        (_updates(clean, "SeqGene", "gene", lambda gene: gene), set()),
    ]
    rechecked = []
    for delta, violated in steps:
        result = session.apply_delta(delta)
        fresh = program_violations(session.source, program)
        assert sorted(map(str, result.violations)) \
            == sorted(map(str, fresh))
        assert {v.clause.name for v in fresh} == violated
        rechecked.append(result.stats.violations_rechecked)
    # Each re-pointed link's TL body row is rechecked once (TC runs
    # whole: its head reads the class the delta rewrites).  The count
    # is of rows, however many head batches carried them.
    assert rechecked == [0, CORRUPTED, 0, CORRUPTED]


def test_a_step_orders_its_violations_only_when_they_are_read(
        warehouses, monkeypatch):
    """``apply_delta`` and ``violation_count`` (what a served ingest's
    acknowledgement reads) order no violation; a step's
    ``violations`` are ordered when read, and show that step's set
    even after later steps."""
    warehouse = warehouses["genome"]
    program = list(warehouse.morphase.program)
    clean = warehouse.combined
    session = IncrementalTransform((), clean, clean.schema,
                                   constraints=program)
    ordered = []
    in_order = incremental._in_order

    def counted(per_clause_sets):
        ordered.append(per_clause_sets)
        return in_order(per_clause_sets)
    monkeypatch.setattr(incremental, "_in_order", counted)

    genes = clean.objects_of("GeneT")
    damage = session.apply_delta(_updates(
        clean, "SeqGene", "gene",
        lambda gene: genes[(genes.index(gene) + 1) % len(genes)]))
    damaged = sorted(map(str, program_violations(session.source, program)))
    repair = session.apply_delta(_updates(clean, "SeqGene", "gene",
                                          lambda gene: gene))
    assert len(damaged) > CORRUPTED
    assert damage.violation_count == len(damaged)
    assert (repair.violation_count, session.violation_count()) == (0, 0)
    assert ordered == []
    assert sorted(map(str, damage.violations)) == damaged
    assert repair.violations == []
    assert len(ordered) == 2
