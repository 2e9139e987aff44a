"""The planned Tr-audit on *violating* warehouses, against the oracle.

The e2e workloads only ever audit clean warehouses, so the head probes
behind the three join-shaped audit bodies (genome ``TC`` / ``TL``,
relibase ``RC``) never fail there.  Here each of them is made to fail
more than five times and the planned audit must report exactly the
oracle's violations, and exactly ``min(limit, total)`` per clause under
a limit.
"""

from collections import Counter

import pytest

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
