"""C1: planned constraint auditing vs the naive per-clause path.

The audit planner (:func:`repro.engine.planner.plan_audit`) compiles
every constraint clause — body enumeration *and* the per-solution
head-satisfiability probe — into fixed join orders, and runs the whole
audit over one shared, prebuilt index pool.  The decisive move is the
equality-join selector: a key/FD body ``X in C, Y in C, X.p = Y.p``
turns from a quadratic self-join (naive: scan Y's extent for every X)
into one index probe per X.  The naive path — a fresh matcher with
private lazy indexes per clause, :func:`repro.oracle.naive_violations`
— is the differential oracle: both must report *identical* violation
sets.

Series: the genome warehouse headline (clean and corrupted instances),
ReLiBase, scaling with source size, and audit-plan reuse.
"""

import pytest
from conftest import best_of, print_table

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.constraints import audit_constraints
from repro.engine import plan_audit
from repro.model.values import Record
from repro.morphase import Morphase
from repro.oracle import naive_violations
from repro.workloads import genome, relibase

#: Default genome workload size for the headline comparison.
GENOME_SIZE = {"genes": 150, "sequences": 300, "clones": 300,
               "sparsity": 0.9, "seed": 7}
SPEEDUP_FLOOR = 1.5


def _violation_set(found):
    """Violations as comparable sorted strings."""
    return sorted(str(v) for v in found)


def _reported(report):
    """A ``ConstraintReport``'s violations, flattened."""
    return [v for group in report.violations.values() for v in group]


@pytest.fixture(scope="module")
def genome_target():
    source_schema = schema_of_acedb(
        AceDatabase("ACe22", genome.ACE_CLASSES))
    m = Morphase([source_schema], genome.warehouse_schema(),
                 genome.PROGRAM_TEXT)
    source = genome.source_instance(genome.generate_acedb(**GENOME_SIZE))
    return m.transform(source).target


@pytest.fixture(scope="module")
def relibase_target():
    m = Morphase([relibase.swissprot_schema(), relibase.pdb_schema()],
                 relibase.relibase_schema(), relibase.PROGRAM_TEXT)
    sp, pdb = relibase.generate_sources(
        proteins=150, structures_per_protein=2, ligands=60, bindings=200,
        seed=3)
    return m.transform([sp, pdb]).target


def test_audit_speedup_genome(genome_target, bench_report, benchmark):
    """Planned audit beats naive by >= 1.5x; violation sets identical."""
    constraints = genome.warehouse_constraints()
    naive, naive_time = best_of(
        lambda: naive_violations(genome_target, constraints),
        repetitions=2)
    planned, planned_time = best_of(
        lambda: audit_constraints(genome_target, constraints,
                                  limit_per_clause=None),
        repetitions=2)

    # Differential: planned and naive audits agree violation for
    # violation (here: a clean warehouse, no violations at all).
    assert _violation_set(_reported(planned)) == _violation_set(naive)
    assert planned.ok and not naive

    speedup = naive_time / planned_time
    print_table(
        "C1: planned vs naive constraint audit (genome warehouse)",
        ("path", "ms", "scans avoided", "indexes built", "constraints"),
        [("naive", round(naive_time * 1000, 1), "-", "-", "-"),
         ("planned", round(planned_time * 1000, 1),
          planned.stats.index_hits + planned.stats.index_misses,
          planned.plan.prebuilt_indexes + planned.stats.indexes_built,
          planned.checked),
         ("speedup", f"{speedup:.2f}x", "", "", "")])
    benchmark.extra_info["speedup"] = round(speedup, 2)
    bench_report.record(
        "genome_warehouse",
        sizes={"objects": genome_target.size()},
        naive_ms=round(naive_time * 1000, 3),
        planned_ms=round(planned_time * 1000, 3),
        speedup=round(speedup, 2), metric="speedup",
        floor=SPEEDUP_FLOOR)
    assert speedup >= SPEEDUP_FLOOR, (
        f"planned audit only {speedup:.2f}x faster (< {SPEEDUP_FLOOR}x)")

    benchmark(lambda: audit_constraints(genome_target, constraints,
                                        limit_per_clause=None))


def test_audit_differential_on_violations(genome_target, benchmark):
    """On a corrupted warehouse both paths report the same violations."""
    constraints = genome.warehouse_constraints()
    builder = genome_target.builder()
    # Duplicate an existing gene symbol: key_GeneT violated (both join
    # directions), everything else still clean.
    some_gene = next(iter(genome_target.valuations["GeneT"].values()))
    builder.new("GeneT", Record.of(
        symbol=some_gene.get("symbol"), description="duplicated"))
    corrupted = builder.freeze()

    naive = naive_violations(corrupted, constraints)
    planned = audit_constraints(corrupted, constraints,
                                limit_per_clause=None)
    assert not planned.ok
    assert _violation_set(_reported(planned)) == _violation_set(naive)
    print_table(
        "C1: differential on a corrupted warehouse",
        ("path", "violated clauses", "violations"),
        [("naive", len({v.clause.name for v in naive}), len(naive)),
         ("planned", len(planned.violations),
          sum(len(v) for v in planned.violations.values()))])
    benchmark(lambda: audit_constraints(corrupted, constraints,
                                        limit_per_clause=None))


def test_audit_speedup_relibase(relibase_target, bench_report, benchmark):
    """The ReLiBase library (keys + inclusions + inverse) speeds up too."""
    constraints = relibase.relibase_constraints()
    naive, naive_time = best_of(
        lambda: naive_violations(relibase_target, constraints),
        repetitions=2)
    planned, planned_time = best_of(
        lambda: audit_constraints(relibase_target, constraints,
                                  limit_per_clause=None),
        repetitions=2)
    assert _violation_set(_reported(planned)) == _violation_set(naive)
    speedup = naive_time / planned_time
    print_table(
        "C1: planned vs naive constraint audit (ReLiBase)",
        ("path", "ms"),
        [("naive", round(naive_time * 1000, 1)),
         ("planned", round(planned_time * 1000, 1)),
         ("speedup", f"{speedup:.2f}x")])
    benchmark.extra_info["speedup"] = round(speedup, 2)
    bench_report.record(
        "relibase",
        sizes={"objects": relibase_target.size()},
        naive_ms=round(naive_time * 1000, 3),
        planned_ms=round(planned_time * 1000, 3),
        speedup=round(speedup, 2), metric="speedup",
        floor=SPEEDUP_FLOOR)
    assert speedup >= SPEEDUP_FLOOR

    benchmark(lambda: audit_constraints(relibase_target, constraints,
                                        limit_per_clause=None))


def test_audit_speedup_scaling(benchmark):
    """The quadratic/linear gap grows with warehouse size."""
    source_schema = schema_of_acedb(
        AceDatabase("ACe22", genome.ACE_CLASSES))
    m = Morphase([source_schema], genome.warehouse_schema(),
                 genome.PROGRAM_TEXT)
    constraints = genome.warehouse_constraints()
    rows = []
    for scale in (1, 2, 4):
        database = genome.generate_acedb(
            genes=50 * scale, sequences=100 * scale, clones=100 * scale,
            sparsity=0.9, seed=11)
        target = m.transform(genome.source_instance(database)).target
        naive, naive_time = best_of(
            lambda: naive_violations(target, constraints),
            repetitions=2)
        planned, planned_time = best_of(
            lambda: audit_constraints(target, constraints,
                                      limit_per_clause=None),
            repetitions=2)
        assert _violation_set(_reported(planned)) == _violation_set(naive)
        rows.append((target.size(), round(naive_time * 1000, 1),
                     round(planned_time * 1000, 1),
                     f"{naive_time / planned_time:.2f}x"))
    print_table("C1: audit speedup vs warehouse size",
                ("target objs", "naive ms", "planned ms", "speedup"),
                rows)
    benchmark(lambda: None)


def test_audit_plan_reuse(genome_target, benchmark):
    """A precomputed AuditPlan amortises planning + index prebuilds."""
    constraints = genome.warehouse_constraints()
    plan = plan_audit(constraints, genome_target)

    def audit_with_shared_plan():
        return audit_constraints(genome_target, constraints,
                                 limit_per_clause=None, plan=plan)

    def audit_planning_each_time():
        return audit_constraints(genome_target, constraints,
                                 limit_per_clause=None)

    shared, shared_time = best_of(audit_with_shared_plan, repetitions=3)
    fresh, fresh_time = best_of(audit_planning_each_time, repetitions=3)
    assert (_violation_set(_reported(shared))
            == _violation_set(_reported(fresh)))
    # The shared-plan run builds no indexes at all: they were prebuilt.
    assert shared.stats.indexes_built == 0
    print_table("C1: audit plan reuse",
                ("mode", "ms"),
                [("plan once, audit many", round(shared_time * 1000, 1)),
                 ("plan every audit", round(fresh_time * 1000, 1))])
    assert shared_time <= fresh_time * 1.5

    benchmark(audit_with_shared_plan)
