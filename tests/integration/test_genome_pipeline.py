"""Integration test: the genome warehouse trial (E7, paper Section 6).

ACeDB-style tree data (ACe22DB stand-in) is imported into the WOL model,
transformed by a WOL program, and exported to a relational warehouse
(Chr22DB stand-in) — heterogeneous models bridged through WOL exactly as
in the Penn genome-centre trials.
"""

import pytest

from repro.adapters.acedb import schema_of_acedb
from repro.adapters.relational import export_instance
from repro.morphase import Morphase
from repro.workloads import genome


@pytest.fixture(scope="module")
def morphase():
    source_schema = schema_of_acedb(genome.sample_acedb())
    return Morphase([source_schema], genome.warehouse_schema(),
                    genome.PROGRAM_TEXT)


class TestSampleTrial:
    def test_transforms_and_exports(self, morphase):
        result = morphase.transform(genome.source_instance())
        database = export_instance(result.target,
                                   genome.WAREHOUSE_TABLES)
        assert database.check_foreign_keys() == []
        assert database.table("GeneT").lookup("comt")[
            "description"].startswith("catechol")

    def test_sparse_objects_dropped(self, morphase):
        """The unmapped clone and the gene-less sequence link vanish —
        the 'delete' reading of optional-to-required (paper Section 1)."""
        result = morphase.transform(genome.source_instance())
        clone_names = {result.target.attribute(c, "name")
                       for c in result.target.objects_of("CloneT")}
        assert "c22_3" not in clone_names  # no map_position/length
        assert result.target.class_sizes()["SeqGene"] == 2  # S3 has no gene

    def test_reference_chain_preserved(self, morphase):
        result = morphase.transform(genome.source_instance())
        target = result.target
        by_name = {target.attribute(c, "name"): c
                   for c in target.objects_of("CloneT")}
        seq = target.attribute(by_name["c22_1"], "seq")
        assert target.attribute(seq, "name") == "AC000050"


class TestScaledTrial:
    @pytest.mark.parametrize("sparsity", [0.5, 0.8, 1.0])
    def test_roundtrip_at_scale(self, morphase, sparsity):
        database = genome.generate_acedb(15, 30, 45, sparsity=sparsity,
                                         seed=7)
        source = genome.source_instance(database)
        result = morphase.transform(source)
        result.target.validate()
        exported = export_instance(result.target,
                                   genome.WAREHOUSE_TABLES)
        assert exported.check_foreign_keys() == []
        # Row counts match the instance exactly.
        for table_name, table in exported.tables.items():
            assert len(table) == result.target.class_sizes()[table_name]

    def test_warehouse_monotone_in_sparsity(self, morphase):
        sizes = []
        for sparsity in (0.3, 0.6, 0.9):
            database = genome.generate_acedb(10, 20, 30,
                                             sparsity=sparsity, seed=3)
            result = morphase.transform(genome.source_instance(database))
            sizes.append(result.target.size())
        assert sizes[0] < sizes[2]


class TestSchemaEvolutionRobustness:
    """Section 6: 'it has also been easy to modify the original WOL
    program to reflect schema changes' — adding a tag to the source only
    needs the importer rerun; the program is untouched."""

    def test_extra_source_tag_is_ignored_gracefully(self):
        from repro.adapters.acedb import AceClass, AceDatabase, TagSpec
        extended_classes = list(genome.ACE_CLASSES)
        extended_classes[0] = AceClass("Gene", (
            TagSpec("symbol", "str"),
            TagSpec("description", "str"),
            TagSpec("pubmed_id", "int"),  # schema evolution!
        ))
        database = AceDatabase("ACe22v2", tuple(extended_classes))
        obj = database.new_object("Gene", "COMT")
        obj.add("symbol", "comt")
        obj.add("description", "desc")
        obj.add("pubmed_id", 12345)
        source_schema = schema_of_acedb(database)
        morphase = Morphase([source_schema], genome.warehouse_schema(),
                            genome.PROGRAM_TEXT)
        from repro.adapters.acedb import import_acedb
        result = morphase.transform(import_acedb(database))
        assert result.target.class_sizes()["GeneT"] == 1
