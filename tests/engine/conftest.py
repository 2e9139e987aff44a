"""Shared helpers: the three-leg differential of
:mod:`tests.differential` as a fixture; the three bundled warehouses at
small fixed sizes."""

from dataclasses import dataclass
from typing import List

import pytest

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.model.instance import Instance
from repro.morphase import Morphase
from repro.semantics import merge_instances
from repro.workloads import cities, genome, relibase

from tests import differential


@pytest.fixture
def execute_both():
    return differential.execute_both


@dataclass(frozen=True)
class Warehouse:
    """One bundled program, transformed: what ``Morphase.audit`` sees."""

    morphase: Morphase
    sources: List[Instance]
    target: Instance

    @property
    def combined(self) -> Instance:
        """Source and target together — the instance the Tr-audit
        (``Morphase.audit``) plans and runs against."""
        return merge_instances("__audit__", self.sources + [self.target])


def _warehouse(morphase, sources) -> Warehouse:
    return Warehouse(morphase, sources, morphase.transform(sources).target)


@pytest.fixture(scope="session")
def warehouses():
    """genome, relibase and cities at small fixed sizes, seed 7 (three
    program shapes, so no test can special-case one of them)."""
    genome_schema = schema_of_acedb(AceDatabase("ACe22", genome.ACE_CLASSES))
    return {
        "genome": _warehouse(
            Morphase([genome_schema], genome.warehouse_schema(),
                     genome.PROGRAM_TEXT),
            [genome.source_instance(genome.generate_acedb(
                genes=40, sequences=80, clones=80, sparsity=0.9, seed=7))]),
        "relibase": _warehouse(
            Morphase([relibase.swissprot_schema(), relibase.pdb_schema()],
                     relibase.relibase_schema(), relibase.PROGRAM_TEXT),
            list(relibase.generate_sources(
                proteins=25, structures_per_protein=2, ligands=12,
                bindings=40, seed=7))),
        "cities": _warehouse(
            Morphase([cities.us_schema(), cities.euro_schema()],
                     cities.target_schema(), cities.PROGRAM_TEXT),
            [cities.generate_us_instance(6, 3, seed=7),
             cities.generate_euro_instance(10, 4, seed=7)]),
    }
