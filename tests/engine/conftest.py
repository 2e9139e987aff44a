"""Shared helpers: run a hand-written program on both ends of the
chain; the three bundled warehouses at small fixed sizes."""

from dataclasses import dataclass
from typing import List

import pytest

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.engine import IncrementalTransform, execute
from repro.model.instance import Instance
from repro.morphase import Morphase
from repro.oracle import naive_execute
from repro.semantics import merge_instances
from repro.workloads import cities, genome, relibase


def _session_start(program, source, target_schema, **kwargs):
    """Production as a session: the third leg of ``_execute_both``."""
    session = IncrementalTransform(program, source, target_schema, **kwargs)
    return session.target, session.stats


def _execute_both(program, source, target_schema, **kwargs):
    """``execute`` (production), ``naive_execute`` (the oracle) and
    ``IncrementalTransform`` (production as a session start) over the
    same program: equal, well-formed valuations (``Instance.validate``
    is the reference for the freeze's checks) and equal effect
    counters, or the same exception type and message.  Returns
    (or re-raises) production's outcome, so a test reads exactly as if
    it had called ``execute``."""
    outcomes = []
    for run in (execute, naive_execute, _session_start):
        try:
            outcomes.append(run(program, source, target_schema, **kwargs))
        except Exception as exc:  # noqa: BLE001 - compared, then re-raised
            outcomes.append(exc)
    planned = outcomes[0]
    if any(isinstance(outcome, Exception) for outcome in outcomes):
        for other in outcomes[1:]:
            assert type(planned) is type(other), outcomes
            assert str(planned) == str(other)
        raise planned
    target, stats = planned
    assert target.is_valid()
    for other_target, other_stats in outcomes[1:]:
        assert other_target.is_valid()
        assert target.valuations == other_target.valuations
        for counter in ("clauses_run", "bindings_found", "objects_created",
                        "attributes_set"):
            assert getattr(stats, counter) == getattr(other_stats, counter)
    return target, stats


@pytest.fixture
def execute_both():
    return _execute_both


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
