"""Planned constraint auditing: plans, counters, and the naive oracle.

The load-bearing property: for every workload constraint library, the
planned audit (one shared prebuilt index pool, precompiled body and
head-probe join orders) reports *exactly* the violations the naive
per-clause reference (``repro.oracle.naive_violations``) reports.
"""

import pytest

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.constraints import (audit_constraints, functional_dependency,
                               inclusion_dependency, key_constraint,
                               schema_constraints)
from repro.engine import plan_audit, plan_constraint
from repro.model.values import Record
from repro.morphase import Morphase
from repro.oracle import naive_violations
from repro.semantics.satisfaction import program_violations
from repro.workloads import cities, genome, relibase


def assert_audits_agree(instance, constraints):
    """``audit_constraints``, ``program_violations`` and the naive
    oracle report one violation set; returns the planned report."""
    report = audit_constraints(instance, constraints,
                               limit_per_clause=None)
    reported = sorted(str(v) for found in report.violations.values()
                      for v in found)
    planned = sorted(str(v) for v in program_violations(instance,
                                                        constraints))
    naive = sorted(str(v) for v in naive_violations(instance, constraints))
    assert reported == planned == naive
    assert report.ok == (not naive)
    return report


def cities_constraints():
    return [
        key_constraint("CountryE", ["name"]),
        key_constraint("CityE", ["name", "country.name"]),
        functional_dependency("CityE", ["country"], "is_capital"),
        inclusion_dependency("CityE", "country", "CountryE"),
    ]


@pytest.fixture(scope="module")
def genome_target():
    source_schema = schema_of_acedb(
        AceDatabase("ACe22", genome.ACE_CLASSES))
    m = Morphase([source_schema], genome.warehouse_schema(),
                 genome.PROGRAM_TEXT)
    source = genome.source_instance(genome.generate_acedb(
        genes=30, sequences=60, clones=60, sparsity=0.9, seed=5))
    return m.transform(source).target


@pytest.fixture(scope="module")
def relibase_target():
    m = Morphase([relibase.swissprot_schema(), relibase.pdb_schema()],
                 relibase.relibase_schema(), relibase.PROGRAM_TEXT)
    sp, pdb = relibase.generate_sources(
        proteins=25, structures_per_protein=2, ligands=12, bindings=40,
        seed=2)
    return m.transform([sp, pdb]).target


class TestDifferential:
    """Planned and naive audits agree, clean or violated."""

    def test_cities_clean_and_corrupted(self):
        euro = cities.sample_euro_instance()
        constraints = cities_constraints()
        clean = assert_audits_agree(euro, constraints)
        corrupted = assert_audits_agree(_with_duplicate_country(euro),
                                        constraints)
        assert "key_CountryE" not in clean.violations
        assert "key_CountryE" in corrupted.violations

    def test_genome_library(self, genome_target):
        assert assert_audits_agree(genome_target,
                                   genome.warehouse_constraints()).ok

    def test_genome_library_corrupted(self, genome_target):
        constraints = genome.warehouse_constraints()
        builder = genome_target.builder()
        some_gene = next(
            iter(genome_target.valuations["GeneT"].values()))
        builder.new("GeneT", Record.of(
            symbol=some_gene.get("symbol"), description="duplicate"))
        corrupted = builder.freeze()
        planned = assert_audits_agree(corrupted, constraints)
        assert not planned.ok
        assert "key_GeneT" in planned.violations

    def test_relibase_library(self, relibase_target):
        assert assert_audits_agree(relibase_target,
                                   relibase.relibase_constraints()).ok

    def test_relibase_library_corrupted(self, relibase_target):
        builder = relibase_target.builder()
        some_protein = next(
            iter(relibase_target.valuations["Protein"].values()))
        builder.new("Protein", some_protein)
        assert not assert_audits_agree(
            builder.freeze(), relibase.relibase_constraints()).ok

    def test_program_violations_paths_agree(self):
        euro = _with_duplicate_country(cities.sample_euro_instance())
        constraints = cities_constraints()
        planned = program_violations(euro, constraints)
        naive = naive_violations(euro, constraints)
        assert {str(v) for v in planned} == {str(v) for v in naive}
        assert planned


class TestReportCounters:
    def test_planned_counters_populated(self, genome_target):
        constraints = genome.warehouse_constraints()
        report = audit_constraints(genome_target, constraints,
                                   limit_per_clause=None)
        assert not hasattr(report, "planned_bodies")   # always == checked
        assert report.plan.prebuilt_indexes > 0
        # The plan's pool served this audit alone: every probe is
        # charged to the audit's run record.
        pool = report.plan.pool
        probes = report.stats.index_hits + report.stats.index_misses
        assert probes == pool.hits + pool.misses > 0
        assert report.to_json()["stats"]["index_lookups"] == probes

    def test_injected_plan_for_other_instance_rejected(self, genome_target):
        # A plan's indexes are snapshots of one instance; instances are
        # immutable, so auditing a modified copy with a stale plan would
        # silently miss (or invent) violations.
        constraints = genome.warehouse_constraints()
        plan = plan_audit(constraints, genome_target)
        corrupted = genome_target.builder().freeze()
        with pytest.raises(ValueError, match="different instance"):
            audit_constraints(corrupted, constraints, plan=plan)
        with pytest.raises(ValueError, match="different instance"):
            program_violations(corrupted, constraints, plan=plan)

    def test_injected_plan_reuses_indexes(self, genome_target):
        constraints = genome.warehouse_constraints()
        plan = plan_audit(constraints, genome_target)
        report = audit_constraints(genome_target, constraints,
                                   limit_per_clause=None, plan=plan)
        # Everything was prebuilt at planning time: the audit itself
        # builds nothing.
        assert report.stats.indexes_built == 0
        assert report.plan is plan


class TestAuditPlanning:
    def test_key_body_uses_index_probe(self):
        euro = cities.sample_euro_instance()
        plan = plan_constraint(key_constraint("CountryE", ["name"]),
                               euro.class_sizes())
        assert plan.body is not None and plan.head is not None
        modes = [step.mode for step in plan.body.steps]
        assert "member-index" in modes  # the quadratic join is gone
        assert ("CountryE", ("name",)) in plan.body.index_paths

    def test_head_probe_planned_with_body_bound(self):
        euro = cities.sample_euro_instance()
        constraint = inclusion_dependency("CityE", "country", "CountryE")
        plan = plan_constraint(constraint, euro.class_sizes())
        assert plan.head is not None
        # V is body-bound, so the head membership is a pure test.
        assert [step.mode for step in plan.head.steps] == ["member-test"]

    def test_audit_plan_explain_is_stable(self, genome_target):
        constraints = genome.warehouse_constraints()
        first = plan_audit(constraints, genome_target).explain()
        second = plan_audit(constraints, genome_target).explain()
        assert first == second
        assert "planned bodies" in first

    def test_schema_constraints_cover_keys_and_references(self):
        names = {c.name for c in schema_constraints(
            genome.warehouse_schema())}
        assert {"key_GeneT", "key_SequenceT", "key_CloneT",
                "incl_CloneT_seq", "incl_SeqGene_seq",
                "incl_SeqGene_gene"} <= names
        relibase_names = {c.name for c in schema_constraints(
            relibase.relibase_schema())}
        assert "elem_Protein_structures" in relibase_names


def _with_duplicate_country(euro):
    builder = euro.builder()
    builder.new("CountryE", Record.of(
        name="France", language="French", currency="franc"))
    return builder.freeze()
