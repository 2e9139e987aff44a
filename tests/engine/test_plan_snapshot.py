"""Plan snapshot: every join order the bundled programs and the e2e
read workloads run, pinned byte for byte.

``goldens/plans.txt`` holds ``explain()`` for every transform plan,
delta seed, source-constraint plan and ``Morphase.audit`` plan of the
three bundled programs (the ``warehouses`` fixture: fixed sizes, seed
7), and for the query bodies the e2e serve workloads send, planned
against the genome warehouse.  A planner change shows its blast radius
as this file's diff: a PR that claims "no serving plan changed" proves
it by leaving the ``query bodies`` section untouched.

To regenerate after an intentional change::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/engine/test_plan_snapshot.py
"""

import os

from repro.engine import (plan_audit, plan_clause, plan_delta_seeds,
                          plan_program)
from repro.lang.ast import Clause
from repro.query.query import Query
from repro.semantics import merge_instances

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "plans.txt")

# Literal copies of the bodies in benchmarks/e2e/workloads.py (READ_POOL,
# FAMILY_BODY with name="S17", and the query statements of PROGRAMS):
# the ruler is frozen per PR, so a copy cannot drift unnoticed.
QUERY_BODIES = (
    ("pool:probe", 'N, L | S in SequenceT, S.name = "S17", N = S.name, '
                   'L = S.dna_length'),
    ("pool:scan", "N, L | S in SequenceT, N = S.name, L = S.dna_length"),
    ("pool:join2", "C, N, Y | X in CloneT, C = X.name, S = X.seq, "
                   "N = S.name, P in SeqGene, P.seq = S, G = P.gene, "
                   "Y = G.symbol"),
    ("pool:link", "N, Y | P in SeqGene, S = P.seq, G = P.gene, "
                  "N = S.name, Y = G.symbol"),
    ("pool:cmp", "N, L | S in SequenceT, N = S.name, L = S.dna_length, "
                 "L < 20000"),
    ("pool:project", "N, P | X in CloneT, N = X.name, "
                     "P = X.map_position, L = X.length"),
    ("family", 'N, L, M | S in SequenceT, S.name = "S17", N = S.name, '
               "L = S.dna_length, M = S.method"),
    ("program:cloned", "N | C in CloneT, S = C.seq, N = S.name"),
    ("program:genic", "N | P in SeqGene, S = P.seq, N = S.name"),
    ("program:named", "N | S in SequenceT, N = S.name"),
    ("program:short", "N | S in SequenceT, N = S.name, "
                      "L = S.dna_length, L < 50000"),
    ("program:shotgun", 'N | S in SequenceT, N = S.name, M = S.method, '
                        'M = "shotgun"'),
)


def _seed_lines(clauses, cardinalities):
    for clause in clauses:
        for seed in plan_delta_seeds(clause, cardinalities):
            yield (f"seed {clause.name or clause} @{seed.position} "
                   f"{seed.variable or '<pattern>'} in {seed.class_name}")
            yield (seed.plan.explain() if seed.plan is not None
                   else "  unseedable")


def render(warehouses) -> str:
    lines = []
    for name, warehouse in warehouses.items():
        normalized = warehouse.morphase.compile()
        source = merge_instances("__source__", warehouse.sources)
        sizes = source.class_sizes()
        constraints = list(normalized.source_constraints)
        lines.append(f"==== {name}: transform ====")
        lines.append(plan_program(normalized.program(), source,
                                  prebuild=False).explain())
        lines.append(f"==== {name}: transform delta seeds ====")
        lines.extend(_seed_lines(normalized.program(), sizes))
        lines.append(f"==== {name}: source constraints ====")
        lines.append(plan_audit(constraints, source,
                                prebuild=False).explain())
        lines.append(f"==== {name}: source-constraint delta seeds ====")
        lines.extend(_seed_lines(constraints, sizes))
        lines.append(f"==== {name}: Morphase.audit ====")
        lines.append(plan_audit(warehouse.morphase.program,
                                warehouse.combined,
                                prebuild=False).explain())
    target = warehouses["genome"].target
    classes = target.schema.class_names()
    lines.append("==== genome: e2e query bodies ====")
    for key, text in QUERY_BODIES:
        query = Query.parse(text, classes=classes)
        probe = Clause(query.body, query.body, name=key)
        lines.append(plan_clause(probe, target.class_sizes()).explain())
    return "\n".join(lines) + "\n"


def test_plans_match_the_snapshot(warehouses):
    rendered = render(warehouses)
    if os.environ.get("UPDATE_GOLDENS"):
        with open(GOLDEN, "w") as handle:
            handle.write(rendered)
    with open(GOLDEN) as handle:
        expected = handle.read()
    assert rendered == expected, (
        "join plans drifted from tests/engine/goldens/plans.txt; if the "
        "change is intentional, regenerate with UPDATE_GOLDENS=1 and "
        "show the diff in the PR")
