"""Unit tests for the workload modules (paper figures as data)."""

import pytest

from repro.model import key_violations
from repro.morphase import Morphase
from repro.semantics import program_violations
from repro.workloads import cities, genome, persons


class TestCitiesWorkload:
    def test_sample_instances_valid(self):
        cities.sample_us_instance().validate()
        cities.sample_euro_instance().validate()

    def test_sample_satisfies_keys(self):
        assert not key_violations(cities.sample_euro_instance(),
                                  cities.euro_schema().keys)
        assert not key_violations(cities.sample_us_instance(),
                                  cities.us_schema().keys)

    def test_sample_satisfies_source_constraints(self):
        euro = cities.sample_euro_instance()
        program = cities.integration_program()
        constraints = [program.clause("C4"), program.clause("C5")]
        assert not program_violations(euro, constraints)

    def test_generator_scales(self):
        inst = cities.generate_euro_instance(10, 5, seed=2)
        inst.validate()
        assert inst.class_sizes() == {"CityE": 50, "CountryE": 10}

    def test_generator_satisfies_constraints(self):
        inst = cities.generate_euro_instance(6, 3, seed=5)
        program = cities.integration_program()
        assert not program_violations(
            inst, [program.clause("C4"), program.clause("C5")])

    def test_generator_requires_capital(self):
        with pytest.raises(ValueError):
            cities.generate_euro_instance(3, 0)
        with pytest.raises(ValueError):
            cities.generate_us_instance(3, 0)

    def test_us_generator(self):
        inst = cities.generate_us_instance(4, 3, seed=1)
        inst.validate()
        assert inst.class_sizes() == {"CityA": 12, "StateA": 4}


class TestPersonsWorkload:
    def test_sample_valid_and_constrained(self):
        inst = persons.sample_instance()
        inst.validate()
        program = persons.evolution_program()
        constraints = [program.clause("C9"), program.clause("C10"),
                       program.clause("C11")]
        assert not program_violations(inst, constraints)

    def test_asymmetric_violates_c11(self):
        inst = persons.asymmetric_instance()
        program = persons.evolution_program()
        assert program_violations(inst, [program.clause("C11")])

    def test_generator_scales(self):
        inst = persons.generate_instance(25)
        inst.validate()
        assert inst.class_sizes() == {"Person": 50}


class TestGenomeWorkload:
    def test_sample_source_valid(self):
        genome.source_instance().validate()

    def test_transformation_shape(self):
        from repro.adapters.acedb import schema_of_acedb
        source_schema = schema_of_acedb(genome.sample_acedb())
        morphase = Morphase([source_schema], genome.warehouse_schema(),
                            genome.PROGRAM_TEXT)
        result = morphase.transform(genome.source_instance())
        assert result.target.class_sizes() == {
            "CloneT": 2, "GeneT": 2, "SeqGene": 2, "SequenceT": 3}

    def test_sparser_sources_yield_smaller_warehouses(self):
        from repro.adapters.acedb import schema_of_acedb
        source_schema = schema_of_acedb(genome.sample_acedb())
        morphase = Morphase([source_schema], genome.warehouse_schema(),
                            genome.PROGRAM_TEXT)
        dense = morphase.transform(genome.source_instance(
            genome.generate_acedb(10, 20, 30, sparsity=1.0, seed=4)))
        sparse = morphase.transform(genome.source_instance(
            genome.generate_acedb(10, 20, 30, sparsity=0.4, seed=4)))
        assert (sparse.target.size() < dense.target.size())

    @pytest.mark.parametrize("sparsity", [-0.1, 1.5])
    def test_sparsity_outside_the_unit_interval_rejected(self, sparsity):
        with pytest.raises(ValueError):
            genome.generate_acedb(2, 2, 2, sparsity=sparsity)

    def test_full_sparsity_keeps_everything(self):
        from repro.adapters.acedb import schema_of_acedb
        source_schema = schema_of_acedb(genome.sample_acedb())
        morphase = Morphase([source_schema], genome.warehouse_schema(),
                            genome.PROGRAM_TEXT)
        result = morphase.transform(genome.source_instance(
            genome.generate_acedb(5, 10, 15, sparsity=1.0, seed=9)))
        sizes = result.target.class_sizes()
        assert sizes["GeneT"] == 5
        assert sizes["SequenceT"] == 10
        assert sizes["CloneT"] == 15

    def test_warehouse_exports_to_relational(self):
        from repro.adapters.acedb import schema_of_acedb
        from repro.adapters.relational import export_instance
        source_schema = schema_of_acedb(genome.sample_acedb())
        morphase = Morphase([source_schema], genome.warehouse_schema(),
                            genome.PROGRAM_TEXT)
        result = morphase.transform(genome.source_instance(
            genome.generate_acedb(6, 12, 18, sparsity=0.9, seed=2)))
        database = export_instance(result.target,
                                   genome.WAREHOUSE_TABLES)
        assert database.check_foreign_keys() == []
        assert len(database.table("GeneT")) == \
            result.target.class_sizes()["GeneT"]

    def test_cpl_backend_matches_direct(self):
        from repro.adapters.acedb import schema_of_acedb
        source_schema = schema_of_acedb(genome.sample_acedb())
        morphase = Morphase([source_schema], genome.warehouse_schema(),
                            genome.PROGRAM_TEXT)
        source = genome.source_instance()
        direct = morphase.transform(source, backend="direct")
        via_cpl = morphase.transform(source, backend="cpl")
        assert direct.target.valuations == via_cpl.target.valuations
