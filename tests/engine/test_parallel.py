"""Parallel sharded execution: parity, edge cases and shard plumbing.

The differential oracle discipline of PRs 1-3 continues here: every
test compares the parallel engine against the sequential planned path
(itself pinned against the naive matcher elsewhere) and insists on
*byte-identical* serialised targets and *equal* violation sets — not
just equal class counts.

Most tests run the shard pipeline in-process (``use_processes=False``):
shard compilation, restricted enumeration and pending-store merging are
identical either way, and the suite stays fast.  A small number of
tests cross real process boundaries to pin the pickle envelopes and the
cross-process stability of the shard hash.
"""

import json

import pytest

from repro.engine import (ExecutionError, execute, execute_parallel,
                          audit_parallel, plan_clause,
                          shard_constraint_plan, shard_join_plan,
                          shardable_step)
from repro.constraints import audit_constraints
from repro.engine.planner import plan_audit, plan_constraint
from repro.evolution.delta import Delta
from repro.io.json_io import instance_to_json
from repro.lang import parse_clause
from repro.model import InstanceBuilder, Record
from repro.model.schema import parse_schema
from repro.morphase import Morphase, MorphaseError
from repro.semantics.match import shard_of
from repro.semantics.satisfaction import program_violations
from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.workloads import genome, relibase


def serialized(instance) -> str:
    """Canonical byte-level rendering of an instance."""
    return json.dumps(instance_to_json(instance), sort_keys=True)


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
    return genome.source_instance(genome.generate_acedb(
        genes=40, sequences=80, clones=80, sparsity=0.85, seed=13))


@pytest.fixture(scope="module")
def relibase_morphase():
    m = Morphase([relibase.swissprot_schema(), relibase.pdb_schema()],
                 relibase.relibase_schema(), relibase.PROGRAM_TEXT)
    m.compile()
    return m


# ----------------------------------------------------------------------
# Shard plumbing
# ----------------------------------------------------------------------

class TestShardPlumbing:
    def test_shard_of_partitions_every_oid(self, genome_source):
        for count in (1, 2, 5):
            for oid in genome_source.all_oids():
                assert 0 <= shard_of(oid, count) < count
        # Several shards are actually populated (the hash spreads).
        shards = {shard_of(oid, 4) for oid in genome_source.all_oids()}
        assert len(shards) > 1

    def test_shard_join_plan_marks_only_driving_step(self):
        clause = parse_clause(
            "T = T <= Q in Sequence, N = Q.name, C in Clone;",
            classes=["Sequence", "Clone"])
        plan = plan_clause(clause)
        position = shardable_step(plan)
        sharded = shard_join_plan(plan, 1, 3)
        marked = [i for i, step in enumerate(sharded.steps)
                  if step.shard is not None]
        assert marked == [position]
        assert sharded.steps[position].shard == (1, 3)

    def test_plan_without_generator_is_unshardable(self):
        # Both member atoms test pre-bound variables; nothing generates
        # from an extent, so there is no driving step to shard.
        clause = parse_clause("T = T <= X = 1, Y = 2, X < Y;",
                              classes=["Sequence"])
        plan = plan_clause(clause)
        assert shardable_step(plan) is None
        assert shard_join_plan(plan, 0, 2) is None

    def test_single_shard_variant_is_the_plan_itself(self):
        clause = parse_clause("T = T <= Q in Sequence;",
                              classes=["Sequence"])
        plan = plan_clause(clause)
        assert shard_join_plan(plan, 0, 1) is plan

    def test_constraint_plan_shards_body_only(self):
        clause = parse_clause(
            "M in Clone <= Q in Sequence;", classes=["Sequence", "Clone"])
        plan = plan_constraint(clause)
        sharded = shard_constraint_plan(plan, 0, 2)
        assert any(step.shard for step in sharded.body.steps)
        assert sharded.head is plan.head

    def test_sharded_plans_partition_solutions(self, genome_morphase,
                                               genome_source):
        """Per-shard binding counts sum exactly to the sequential count."""
        merged = genome_morphase._merge_sources(genome_source)
        program = genome_morphase.compile().program()
        _, sequential = execute(program, merged,
                                genome_morphase.target_plain)
        _, parallel = execute_parallel(program, merged,
                                       genome_morphase.target_plain, 4,
                                       use_processes=False)
        assert parallel.bindings_found == sequential.bindings_found
        assert parallel.objects_created == sequential.objects_created
        assert parallel.shards_run == 4


# ----------------------------------------------------------------------
# Transform parity
# ----------------------------------------------------------------------

class TestTransformParity:
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_genome_byte_identical(self, genome_morphase, genome_source,
                                   workers):
        merged = genome_morphase._merge_sources(genome_source)
        program = genome_morphase.compile().program()
        sequential, _ = execute(program, merged,
                                genome_morphase.target_plain)
        parallel, _ = execute_parallel(program, merged,
                                       genome_morphase.target_plain,
                                       workers, use_processes=False)
        assert serialized(parallel) == serialized(sequential)

    def test_genome_across_processes(self, genome_morphase,
                                     genome_source):
        """The real ProcessPoolExecutor path: envelopes pickle, the
        shard hash agrees across interpreters, targets stay identical."""
        sequential = genome_morphase.transform(genome_source).target
        result = genome_morphase.transform(genome_source, parallel=2)
        assert serialized(result.target) == serialized(sequential)
        assert result.stats.shards_run == 2
        assert result.stats.parallel_workers == 2

    def test_relibase_set_valued_attributes(self, relibase_morphase):
        """Set accumulation across shards unions exactly (Protein.structures)."""
        sources = list(relibase.generate_sources(
            proteins=25, structures_per_protein=3, ligands=10,
            bindings=30, seed=5))
        sequential = relibase_morphase.transform(sources).target
        for workers in (2, 5):
            parallel, _ = execute_parallel(
                relibase_morphase.compile().program(),
                relibase_morphase._merge_sources(sources),
                relibase_morphase.target_plain, workers,
                use_processes=False)
            assert serialized(parallel) == serialized(sequential)

    def test_conflict_detected_in_parallel(self):
        """A non-functional program fails under parallel execution too
        (the conflict may surface in a worker or at merge time)."""
        source_schema = parse_schema(
            "schema Src { class A = (name: str, val: int); }")
        target_schema = parse_schema(
            "schema Tgt { class AT = (name: str, val: int) key name; }")
        builder = InstanceBuilder(source_schema)
        builder.new("A", Record.of(name="dup", val=1))
        builder.new("A", Record.of(name="dup", val=2))
        source = builder.freeze()
        m = Morphase([source_schema], target_schema, """
            transformation T:
              X in AT, X.name = N, X.val = V
              <= A in A, N = A.name, V = A.val;
        """)
        with pytest.raises((ExecutionError, MorphaseError)):
            m.transform(source)
        with pytest.raises((ExecutionError, MorphaseError)):
            m.transform(source, parallel=3)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------

class TestEdgeCases:
    def test_empty_class_extents(self, genome_morphase):
        """A fully empty source fans out to empty shards and merges to
        the same (empty) target the sequential path builds."""
        empty = genome.source_instance(
            AceDatabase("ACe22", genome.ACE_CLASSES))
        sequential = genome_morphase.transform(empty).target
        parallel = genome_morphase.transform(empty, parallel=3).target
        assert serialized(parallel) == serialized(sequential)
        assert parallel.size() == 0

    def test_more_shards_than_objects(self, genome_morphase):
        """Zero-object shards contribute nothing and break nothing."""
        tiny = genome.source_instance()  # a handful of objects
        sequential = genome_morphase.transform(tiny).target
        parallel, stats = execute_parallel(
            genome_morphase.compile().program(),
            genome_morphase._merge_sources(tiny),
            genome_morphase.target_plain, 16, use_processes=False)
        assert serialized(parallel) == serialized(sequential)
        assert stats.shards_run == 16

    def test_parallel_one_equals_sequential(self, genome_morphase,
                                            genome_source):
        """The degenerate parallel=1 run is the sequential planned run."""
        sequential = genome_morphase.transform(genome_source)
        degenerate = genome_morphase.transform(genome_source, parallel=1)
        assert (serialized(degenerate.target)
                == serialized(sequential.target))
        assert (degenerate.stats.bindings_found
                == sequential.stats.bindings_found)
        # One shard, executed in-process: no worker pool was paid for.
        assert degenerate.stats.shards_run == 1
        assert degenerate.stats.parallel_workers == 0

    def test_noop_delta_through_incremental(self, genome_morphase,
                                            genome_source):
        """An empty delta and an identical-value update both leave the
        incrementally-maintained target byte-identical."""
        state = genome_morphase.begin_incremental(genome_source)
        before = serialized(state.target)
        result = genome_morphase.apply_delta(state, Delta())
        assert serialized(result.target) == before
        assert result.stats.delta_size == 0

        # An "update" that rewrites an object to its existing value.
        merged = genome_morphase._merge_sources(genome_source)
        cname = "Sequence"
        oid = merged.objects_of(cname)[0]
        same_value = merged.value_of(oid)
        result = genome_morphase.apply_delta(
            state, Delta(updates={cname: {oid: same_value}}))
        assert serialized(result.target) == before

    def test_parallel_rejects_bad_configuration(self, genome_morphase,
                                                genome_source):
        with pytest.raises(MorphaseError):
            genome_morphase.transform(genome_source, parallel=0)
        with pytest.raises(MorphaseError):
            genome_morphase.transform(genome_source, parallel=2,
                                      backend="cpl")
        # Workers plan for themselves: an injected plan would be ignored.
        plan = plan_audit([], genome_source)
        with pytest.raises(ValueError, match="injected plan"):
            program_violations(genome_source, [], plan=plan, parallel=2)
        with pytest.raises(ValueError, match="injected plan"):
            audit_constraints(genome_source, [], plan=plan, parallel=2)


# ----------------------------------------------------------------------
# Audit parity
# ----------------------------------------------------------------------

def corrupted_warehouse(genome_morphase, genome_source):
    """A warehouse with seeded key-uniqueness violations.

    The schema-derived key constraints say "equal key attribute implies
    equal object", so the corruption *duplicates* key values: the first
    gene takes the second gene's symbol and the first clone the second
    clone's name.  The instance stays well-formed (only scalar fields
    move), but several key audits now fail.
    """
    target = genome_morphase.transform(genome_source).target
    builder = target.builder()
    genes = sorted(target.objects_of("GeneT"), key=str)
    builder.put(genes[0], target.value_of(genes[0]).with_field(
        "symbol", target.value_of(genes[1]).get("symbol")))
    clones = sorted(target.objects_of("CloneT"), key=str)
    builder.put(clones[0], target.value_of(clones[0]).with_field(
        "name", target.value_of(clones[1]).get("name")))
    return builder.freeze(validate=False)


class TestAuditParity:
    def test_clean_warehouse_has_no_violations(self, genome_morphase,
                                               genome_source):
        target = genome_morphase.transform(genome_source).target
        constraints = genome.warehouse_constraints()
        result = audit_parallel(constraints, target, 3,
                                use_processes=False)
        assert result.violations(constraints) == []
        assert result.shards_run == 3

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_violation_sets_union_to_sequential(self, genome_morphase,
                                                genome_source, workers):
        corrupted = corrupted_warehouse(genome_morphase, genome_source)
        constraints = genome.warehouse_constraints()
        sequential = sorted(str(v) for v in program_violations(
            corrupted, constraints, limit_per_clause=None))
        assert sequential  # the corruption is visible
        result = audit_parallel(constraints, corrupted, workers,
                                use_processes=False)
        parallel = sorted(str(v) for v in result.violations(constraints))
        assert parallel == sequential

    def test_violations_across_processes(self, genome_morphase,
                                         genome_source):
        corrupted = corrupted_warehouse(genome_morphase, genome_source)
        constraints = genome.warehouse_constraints()
        sequential = sorted(str(v) for v in program_violations(
            corrupted, constraints, limit_per_clause=None))
        parallel = sorted(str(v) for v in program_violations(
            corrupted, constraints, limit_per_clause=None, parallel=2))
        assert parallel == sequential

    def test_limit_truncates_deterministically(self, genome_morphase,
                                               genome_source):
        """A capped parallel audit reports the same violation subset on
        every run *and at every worker count* (shards collect uncapped;
        the merged, textually-sorted list is what truncates)."""
        corrupted = corrupted_warehouse(genome_morphase, genome_source)
        constraints = genome.warehouse_constraints()
        reports = [audit_parallel(constraints, corrupted, workers,
                                  limit_per_clause=1,
                                  use_processes=False)
                   for workers in (3, 3, 2, 5)]
        rendered = [[str(v) for v in report.violations(constraints)]
                    for report in reports]
        assert all(entry == rendered[0] for entry in rendered[1:])
        for violations in reports[0].violations_by_clause.values():
            assert len(violations) <= 1
