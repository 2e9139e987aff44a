"""P1: planned multi-clause execution vs the naive per-clause path.

The execution planner (:mod:`repro.engine.planner`) computes a join plan
per clause once — fixed atom order, index selectors resolved statically,
including containment-hop indexes through set-valued attributes — and
shares one prebuilt index pool across all clauses.  The naive path (the
pre-planner behaviour, :func:`repro.oracle.naive_transform`, the
differential oracle) re-derives atom readiness per binding and
rediscovers equality selectors per candidate enumeration.

The headline series compares both paths on the genome workload at the
default size; the acceptance bar is a >= 10x speedup with identical
target instances.  The planned path is the vectorized production
engine, so this production-vs-oracle row is also what catches a
regression of the batch stages.  A synthetic wide-record series and a plan-reuse
series characterise where the win comes from.
"""

import pytest
from conftest import best_of, print_table

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.engine import Executor, plan_program
from repro.morphase import Morphase
from repro.oracle import naive_transform
from repro.workloads import genome, synthetic

#: Default genome workload size for the headline comparison.
GENOME_SIZE = {"genes": 150, "sequences": 300, "clones": 300,
               "sparsity": 0.9, "seed": 7}
SPEEDUP_FLOOR = 10


@pytest.fixture(scope="module")
def genome_morphase():
    source_schema = schema_of_acedb(
        AceDatabase("ACe22", genome.ACE_CLASSES))
    m = Morphase([source_schema], genome.warehouse_schema(),
                 genome.PROGRAM_TEXT)
    m.compile()
    return m


@pytest.fixture(scope="module")
def genome_source():
    return genome.source_instance(genome.generate_acedb(**GENOME_SIZE))


def test_planner_speedup_genome(genome_morphase, genome_source,
                                bench_report, benchmark):
    """Planned execution beats naive by >= 10x; targets are identical."""
    naive_result, naive_time = best_of(
        lambda: naive_transform(genome_morphase, genome_source),
        repetitions=2)
    planned_result, planned_time = best_of(
        lambda: genome_morphase.transform(genome_source), repetitions=2)

    # Differential: the two paths build the same warehouse, object for
    # object and attribute for attribute.
    assert planned_result.target.valuations == naive_result.target.valuations
    assert (planned_result.stats.bindings_found
            == naive_result.stats.bindings_found)

    speedup = naive_time / planned_time
    stats = planned_result.stats
    indexes = (planned_result.plan.prebuilt_indexes
               + stats.indexes_built)
    print_table(
        "P1: planned vs naive execution (genome, default size)",
        ("path", "ms", "scans avoided", "indexes built",
         "atoms reordered"),
        [("naive", round(naive_time * 1000, 1), "-", "-", "-"),
         ("planned", round(planned_time * 1000, 1),
          stats.index_hits + stats.index_misses, indexes,
          stats.atoms_reordered),
         ("speedup", f"{speedup:.2f}x", "", "", "")])
    benchmark.extra_info["speedup"] = round(speedup, 2)
    bench_report.record(
        "genome_default",
        sizes={"objects": genome_source.size()},
        naive_ms=round(naive_time * 1000, 3),
        planned_ms=round(planned_time * 1000, 3),
        speedup=round(speedup, 2), metric="speedup",
        floor=SPEEDUP_FLOOR)
    assert speedup >= SPEEDUP_FLOOR, (
        f"planned path only {speedup:.2f}x faster (< {SPEEDUP_FLOOR}x)")

    benchmark(lambda: genome_morphase.transform(genome_source))


def test_planner_speedup_scaling(genome_morphase, benchmark):
    """The planner's advantage grows with source size (index joins)."""
    rows = []
    for scale in (1, 2, 4):
        database = genome.generate_acedb(
            genes=50 * scale, sequences=100 * scale, clones=100 * scale,
            sparsity=0.9, seed=11)
        source = genome.source_instance(database)
        _, naive_time = best_of(
            lambda: naive_transform(genome_morphase, source),
            repetitions=2)
        _, planned_time = best_of(
            lambda: genome_morphase.transform(source), repetitions=2)
        rows.append((source.size(), round(naive_time * 1000, 1),
                     round(planned_time * 1000, 1),
                     f"{naive_time / planned_time:.2f}x"))
    print_table("P1: planner speedup vs source size",
                ("source objs", "naive ms", "planned ms", "speedup"),
                rows)
    benchmark(lambda: None)


def test_planner_synthetic_wide(benchmark):
    """Wide-record programs: planning cost amortises over execution."""
    width, items = 12, 300
    source_schema, target_schema = synthetic.wide_schemas(width)
    m = Morphase([source_schema], target_schema,
                 synthetic.wide_program(width))
    m.compile()
    source = synthetic.wide_instance(width, items)
    naive_result, naive_time = best_of(
        lambda: naive_transform(m, source), repetitions=2)
    planned_result, planned_time = best_of(
        lambda: m.transform(source), repetitions=2)
    assert planned_result.target.valuations == naive_result.target.valuations
    print_table(
        "P1: planned vs naive (synthetic wide records)",
        ("width", "items", "naive ms", "planned ms", "speedup"),
        [(width, items, round(naive_time * 1000, 1),
          round(planned_time * 1000, 1),
          f"{naive_time / planned_time:.2f}x")])
    benchmark(lambda: m.transform(source))


def test_plan_reuse_across_runs(genome_morphase, genome_source, benchmark):
    """A precomputed plan (and its index pool) amortises over reruns."""
    normalized = genome_morphase.compile()
    program = normalized.program()
    target_schema = genome_morphase.target_plain
    merged = genome_morphase._merge_sources(genome_source)
    plan = plan_program(program, merged)

    def run_with_shared_plan():
        executor = Executor(merged, target_schema)
        executor.run_program(program, plan=plan)
        return executor.freeze()

    def run_planning_each_time():
        executor = Executor(merged, target_schema)
        executor.run_program(program)
        return executor.freeze()

    shared, shared_time = best_of(run_with_shared_plan, repetitions=3)
    fresh, fresh_time = best_of(run_planning_each_time, repetitions=3)
    assert shared.valuations == fresh.valuations
    print_table("P1: plan reuse across runs",
                ("mode", "ms"),
                [("plan once, run many", round(shared_time * 1000, 1)),
                 ("plan every run", round(fresh_time * 1000, 1))])
    # Reusing the plan can never be slower than replanning + rebuilding
    # indexes (generous slack for timer noise on a fast operation).
    assert shared_time <= fresh_time * 1.5

    benchmark(run_with_shared_plan)
