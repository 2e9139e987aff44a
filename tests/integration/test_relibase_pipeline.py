"""Integration test: the ReLiBase drug-design warehouse (Section 6).

SWISSPROT-like and PDB-like sources integrate into a ReLiBase-like object
model — the paper's second reported deployment of WOL.  Exercises
multi-source joins and set-valued attribute accumulation end to end.
"""

import pytest

from repro.model import WolSet
from repro.morphase import Morphase
from repro.workloads import relibase


@pytest.fixture(scope="module")
def morphase():
    return Morphase([relibase.swissprot_schema(), relibase.pdb_schema()],
                    relibase.relibase_schema(), relibase.PROGRAM_TEXT)


@pytest.fixture(scope="module")
def result(morphase):
    return morphase.transform([relibase.sample_swissprot(),
                               relibase.sample_pdb()])


class TestSampleWarehouse:
    def test_class_sizes(self, result):
        assert result.target.class_sizes() == {
            "Complex": 2, "Ligand": 2, "Protein": 3, "Structure": 3}

    def test_unmatched_pdb_structure_dropped(self, result):
        """9XYZ has no SWISSPROT counterpart: the cross-database join
        excludes it."""
        pdb_ids = {result.target.attribute(s, "pdb_id")
                   for s in result.target.objects_of("Structure")}
        assert "9XYZ" not in pdb_ids
        assert pdb_ids == {"1M17", "2ITY", "1HCK"}

    def test_set_valued_structures_accumulate(self, result):
        target = result.target
        by_accession = {target.attribute(p, "accession"): p
                        for p in target.objects_of("Protein")}
        egfr_structures = target.attribute(by_accession["P00533"],
                                           "structures")
        assert len(egfr_structures) == 2
        # A protein without structures gets the empty set, not an error.
        bace = target.attribute(by_accession["P56817"], "structures")
        assert bace == WolSet.of()

    def test_structure_protein_backlink(self, result):
        target = result.target
        for structure in target.objects_of("Structure"):
            protein = target.attribute(structure, "protein")
            assert structure in target.attribute(protein, "structures")

    def test_complexes_join_both_sides(self, result):
        target = result.target
        for complex_ in target.objects_of("Complex"):
            structure = target.attribute(complex_, "structure")
            ligand = target.attribute(complex_, "ligand")
            assert structure.class_name == "Structure"
            assert ligand.class_name == "Ligand"
            assert isinstance(target.attribute(complex_, "affinity"),
                              float)

    def test_audit_clean(self, morphase, result):
        assert morphase.audit(
            [relibase.sample_swissprot(), relibase.sample_pdb()],
            result.target) == []

    def test_cpl_backend_matches(self, morphase):
        sources = [relibase.sample_swissprot(), relibase.sample_pdb()]
        direct = morphase.transform(sources, backend="direct")
        via_cpl = morphase.transform(sources, backend="cpl")
        assert direct.target.valuations == via_cpl.target.valuations


class TestScaledWarehouse:
    def test_sizes_follow_generators(self, morphase):
        sp, pdb = relibase.generate_sources(12, 2, 8, 20, seed=5)
        target = morphase.transform([sp, pdb]).target
        sizes = target.class_sizes()
        assert sizes["Protein"] == 12
        assert sizes["Structure"] == 24
        assert sizes["Ligand"] == 8
        assert sizes["Complex"] == 20
        target.validate()

    def test_every_structure_in_its_protein_set(self, morphase):
        sp, pdb = relibase.generate_sources(6, 3, 4, 10, seed=7)
        target = morphase.transform([sp, pdb]).target
        collected = sum(len(target.attribute(p, "structures"))
                        for p in target.objects_of("Protein"))
        assert collected == target.class_sizes()["Structure"]

    def test_deterministic(self, morphase):
        sp, pdb = relibase.generate_sources(5, 2, 3, 6, seed=1)
        first = morphase.transform([sp, pdb]).target
        second = morphase.transform([sp, pdb]).target
        assert first.valuations == second.valuations
