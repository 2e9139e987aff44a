"""I1: incremental delta propagation vs full recompute.

The incremental engine (:mod:`repro.engine.incremental`) maintains the
transformed warehouse under source deltas: per clause, one seeded join
plan per member atom re-derives exactly the bindings that read a
changed object (changed oids plus their transitive referrers), the
shared index pool is patched in place, and only touched target objects
are re-assembled.  The full recompute
(:meth:`repro.morphase.system.Morphase.transform`) stays on as the
differential oracle — every series below asserts bit-identical targets.

Headline: the paper's warehouse-refresh scenario (Section 6 — periodic
transformations in front of evolving databases).  A 1% append batch at
the genome default size must propagate >= 20x faster than recomputing.
A mixed update/insert/delete series and a fixed-delta scaling series
(speedup grows with instance size) characterise the rest.
"""

import random

import pytest
from conftest import best_of, print_table

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.constraints.audit import audit_constraints
from repro.engine import IncrementalTransform
from repro.evolution.delta import Delta
from repro.model.values import Oid, Record, WolSet
from repro.morphase import Morphase
from repro.workloads import genome

#: Genome workload default size (matches bench_planner).
GENOME_SIZE = {"genes": 150, "sequences": 300, "clones": 300,
               "sparsity": 0.9, "seed": 7}
#: Acceptance floor: incremental 1% append vs full recompute.
SPEEDUP_FLOOR = 20.0


def make_morphase():
    source_schema = schema_of_acedb(
        AceDatabase("ACe22", genome.ACE_CLASSES))
    m = Morphase([source_schema], genome.warehouse_schema(),
                 genome.PROGRAM_TEXT)
    m.compile()
    return m


@pytest.fixture(scope="module")
def genome_morphase():
    return make_morphase()


def merged_source(morphase, **size):
    params = dict(GENOME_SIZE)
    params.update(size)
    database = genome.generate_acedb(**params)
    return morphase._merge_sources(genome.source_instance(database))


def append_batch(src, rng, tag, size=8):
    """A warehouse refresh: ~``size`` new objects across all classes."""
    genes = sorted(src.objects_of("Gene"), key=str)
    seqs = sorted(src.objects_of("Sequence"), key=str)
    new_genes = {}
    for i in range(max(1, size // 4)):
        oid = Oid.keyed("Gene", f"G{tag}-{i}")
        new_genes[oid] = Record.of(
            name=f"G{tag}-{i}", symbol=WolSet.of(f"sym{tag}{i}"),
            description=WolSet.of(f"new {tag} {i}"))
    new_seqs = {}
    for i in range(max(1, (size - len(new_genes)) // 2)):
        oid = Oid.keyed("Sequence", f"S{tag}-{i}")
        ref = next(iter(new_genes)) if i == 0 else rng.choice(genes)
        new_seqs[oid] = Record.of(
            name=f"S{tag}-{i}", dna_length=WolSet.of(50_000 + i),
            method=WolSet.of("shotgun"), gene=WolSet.of(ref))
    new_clones = {}
    for i in range(size - len(new_genes) - len(new_seqs)):
        oid = Oid.keyed("Clone", f"C{tag}-{i}")
        ref = next(iter(new_seqs)) if i == 0 else rng.choice(seqs)
        new_clones[oid] = Record.of(
            name=f"C{tag}-{i}", map_position=WolSet.of("22q12"),
            length=WolSet.of(90_000 + i), seq=WolSet.of(ref))
    return Delta(inserts={"Gene": new_genes, "Sequence": new_seqs,
                          "Clone": new_clones})


def mixed_batch(src, rng, tag, size=8):
    """Updates to read attributes plus an insert and a delete."""
    updates = {}
    fields = {
        "Gene": ("description", lambda i: WolSet.of(f"rev-{tag}-{i}")),
        "Sequence": ("method", lambda i: WolSet.of(f"m-{tag}-{i}")),
        "Clone": ("length", lambda i: WolSet.of(100_000 + i)),
    }
    for cname, (attr, make) in fields.items():
        extent = sorted(src.objects_of(cname), key=str)
        for i, oid in enumerate(rng.sample(extent,
                                           k=max(1, (size - 2) // 3))):
            updates.setdefault(cname, {})[oid] = \
                src.value_of(oid).with_field(attr, make(i))
    retire = next(oid for oid in sorted(src.objects_of("Clone"), key=str)
                  if oid not in updates.get("Clone", {}))
    gene = Oid.keyed("Gene", f"G{tag}")
    return Delta(
        inserts={"Gene": {gene: Record.of(
            name=f"G{tag}", symbol=WolSet.of(f"s{tag}"),
            description=WolSet.of("d"))}},
        updates=updates, deletes={"Clone": (retire,)})


def run_series(morphase, source, make_delta, rounds=8, oracle_rounds=3):
    """Propagate a stream of deltas; return (full_ms, incr_ms, ok)."""
    import time
    state = morphase.begin_incremental(source)
    rng = random.Random(7)
    incr_times = []
    full_best = float("inf")
    identical = True
    for index in range(rounds):
        delta = make_delta(state.source, rng, f"t{index}")
        updated = delta.apply_to(state.source, validate_changed=False)
        oracle = None
        if index < oracle_rounds:
            oracle, elapsed = best_of(
                lambda: morphase.transform(updated), repetitions=2)
            full_best = min(full_best, elapsed)
        start = time.perf_counter()
        result = state.apply_delta(delta)
        incr_times.append(time.perf_counter() - start)
        if oracle is not None:
            identical = identical and (result.target.valuations
                                       == oracle.target.valuations)
    incr_times.sort()
    median = incr_times[len(incr_times) // 2]
    return full_best * 1000, median * 1000, identical


def test_incremental_append_speedup(genome_morphase, bench_report,
                                    benchmark):
    """1% append batch at genome default: >= 20x vs recompute."""
    source = merged_source(genome_morphase)
    delta_size = max(2, source.size() // 100)
    full_ms, incr_ms, identical = run_series(
        genome_morphase, source,
        lambda src, rng, tag: append_batch(src, rng, tag, delta_size))
    assert identical, "incremental target diverged from recompute"
    speedup = full_ms / incr_ms
    print_table(
        "I1: incremental 1% append vs full recompute (genome default)",
        ("path", "ms / delta"),
        [("full recompute", round(full_ms, 2)),
         ("incremental", round(incr_ms, 3)),
         ("speedup", f"{speedup:.1f}x")])
    bench_report.record(
        "genome_default_append",
        sizes={"objects": source.size(), "delta": delta_size},
        full_ms=round(full_ms, 3), incremental_ms=round(incr_ms, 3),
        speedup=round(speedup, 2), metric="speedup",
        floor=SPEEDUP_FLOOR)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental append only {speedup:.1f}x faster "
        f"(< {SPEEDUP_FLOOR}x)")

    state = genome_morphase.begin_incremental(source)
    rng = random.Random(11)
    counter = [0]

    def apply_one():
        counter[0] += 1
        state.apply_delta(append_batch(state.source, rng,
                                       f"b{counter[0]}", delta_size))

    benchmark(apply_one)


def test_incremental_mixed_delta(genome_morphase, bench_report,
                                 benchmark):
    """Mixed update/insert/delete batches stay well ahead of recompute."""
    source = merged_source(genome_morphase)
    delta_size = max(2, source.size() // 100)
    full_ms, incr_ms, identical = run_series(
        genome_morphase, source,
        lambda src, rng, tag: mixed_batch(src, rng, tag, delta_size))
    assert identical, "incremental target diverged from recompute"
    speedup = full_ms / incr_ms
    print_table(
        "I1: incremental 1% mixed delta vs full recompute",
        ("path", "ms / delta"),
        [("full recompute", round(full_ms, 2)),
         ("incremental", round(incr_ms, 3)),
         ("speedup", f"{speedup:.1f}x")])
    bench_report.record(
        "genome_default_mixed",
        sizes={"objects": source.size(), "delta": delta_size},
        full_ms=round(full_ms, 3), incremental_ms=round(incr_ms, 3),
        speedup=round(speedup, 2), metric="speedup", floor=5.0)
    assert speedup >= 5.0
    benchmark(lambda: None)


def test_incremental_scaling(genome_morphase, bench_report, benchmark):
    """At fixed delta size the advantage grows with instance size."""
    rows = []
    speedups = []
    for scale in (1, 2, 4):
        source = merged_source(
            genome_morphase, genes=150 * scale, sequences=300 * scale,
            clones=300 * scale)
        full_ms, incr_ms, identical = run_series(
            genome_morphase, source,
            lambda src, rng, tag: mixed_batch(src, rng, tag, 8),
            rounds=6, oracle_rounds=2)
        assert identical
        speedup = full_ms / incr_ms
        speedups.append(speedup)
        rows.append((source.size(), round(full_ms, 1),
                     round(incr_ms, 2), f"{speedup:.1f}x"))
        bench_report.record(
            f"scaling_{scale}x",
            sizes={"objects": source.size(), "delta": 8},
            full_ms=round(full_ms, 3),
            incremental_ms=round(incr_ms, 3),
            speedup=round(speedup, 2))
    print_table("I1: speedup vs instance size (fixed 8-object delta)",
                ("source objs", "full ms", "incr ms", "speedup"),
                rows)
    assert speedups[-1] > speedups[0], (
        "incremental advantage should grow with instance size")
    benchmark(lambda: None)


def test_incremental_audit_maintenance(genome_morphase, bench_report,
                                       benchmark):
    """Maintaining the violation set beats re-auditing from scratch.

    The session runs the constraints alone: an empty program over the
    warehouse."""
    import time
    source = merged_source(genome_morphase)
    warehouse = genome_morphase.transform(source).target
    constraints = genome.warehouse_constraints()
    audit = IncrementalTransform((), warehouse, warehouse.schema,
                                 constraints=constraints)
    rng = random.Random(13)
    sequences = sorted(warehouse.objects_of("SequenceT"), key=str)

    full_best = float("inf")
    incr_times = []
    identical = True
    current = warehouse
    for index in range(6):
        victim = sequences[rng.randrange(len(sequences))]
        if current.has_object(victim):
            delta = Delta(deletes={"SequenceT": (victim,)})
        else:
            delta = Delta(inserts={"SequenceT": {
                victim: warehouse.value_of(victim)}})
        updated = delta.apply_to(current, validate_changed=False)
        if index < 3:
            report, elapsed = best_of(
                lambda: audit_constraints(updated, constraints,
                                          limit_per_clause=None),
                repetitions=2)
            full_best = min(full_best, elapsed)
            oracle = sorted(str(v) for name in report.violations
                            for v in report.violations[name])
        start = time.perf_counter()
        result = audit.apply_delta(delta)
        incr_times.append(time.perf_counter() - start)
        if index < 3:
            identical = identical and (
                sorted(str(v) for v in result.violations) == oracle)
        current = updated
    assert identical, "incremental audit diverged from full audit"
    incr_times.sort()
    incr_ms = incr_times[len(incr_times) // 2] * 1000
    full_ms = full_best * 1000
    speedup = full_ms / incr_ms
    print_table(
        "I1: incremental audit vs full re-audit (genome warehouse)",
        ("path", "ms / delta"),
        [("full audit", round(full_ms, 2)),
         ("incremental", round(incr_ms, 3)),
         ("speedup", f"{speedup:.1f}x")])
    bench_report.record(
        "audit_maintenance",
        sizes={"objects": warehouse.size(), "delta": 1},
        full_ms=round(full_ms, 3), incremental_ms=round(incr_ms, 3),
        speedup=round(speedup, 2))
    assert speedup >= 2.0
    benchmark(lambda: None)
