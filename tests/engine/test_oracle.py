"""One oracle entry point: ``repro.oracle`` is the only naive path.

The ``use_planner`` parameter (8 callables) and both ``--no-planner``
CLI flags are gone — production always plans — and the naive reference
is the dynamic ``Matcher`` plus four plain functions; under ``src/repro``
only ``Query.run`` reaches it (through ``naive_query``).
"""

import inspect
import pathlib
import re

import pytest

import repro
from repro import oracle
from repro.constraints import audit_constraints
from repro.engine import Executor, execute
from repro.lang import parse_program
from repro.model.values import Record
from repro.morphase import Morphase
from repro.semantics.satisfaction import program_violations
from repro.workloads import cities


def capital_less_countries():
    """Euro sample plus three countries without a capital: exactly
    three violations of C4 ("every country has a capital")."""
    builder = cities.sample_euro_instance().builder()
    for name in ("Utopia", "Erewhon", "Lilliput"):
        builder.new("CountryE", Record.of(
            name=name, language="?", currency="?"))
    constraints = list(parse_program(
        "C4: Y in CityE, Y.country = X, Y.is_capital = true"
        " <= X in CountryE;", classes=["CityE", "CountryE"]))
    return builder.freeze(), constraints


AUDIT_PATHS = {
    "sequential": program_violations,
    "naive": oracle.naive_violations,
}


@pytest.mark.parametrize("path", sorted(AUDIT_PATHS))
@pytest.mark.parametrize("limit", [0, 1, 2, None])
def test_limit_per_clause_means_the_same_on_every_path(limit, path):
    """Regression: ``limit_per_clause=0`` used to report one violation
    (the cap was tested only after the first append)."""
    instance, constraints = capital_less_countries()
    everything = {str(v) for v in program_violations(instance, constraints)}
    assert len(everything) == 3
    found = AUDIT_PATHS[path](instance, constraints, limit)
    assert len(found) == (3 if limit is None else limit)
    assert {str(v) for v in found} <= everything


def _morphase():
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


def _sources():
    return [cities.sample_us_instance(), cities.sample_euro_instance()]


FORMER_KNOB_SITES = {
    "Executor": lambda **kw: Executor(
        cities.sample_euro_instance(), cities.target_schema().schema, **kw),
    "execute": lambda **kw: execute(
        [], cities.sample_euro_instance(), cities.target_schema().schema,
        **kw),
    "program_violations": lambda **kw: program_violations(
        cities.sample_euro_instance(), [], **kw),
    "audit_constraints": lambda **kw: audit_constraints(
        cities.sample_euro_instance(), [], **kw),
    "Morphase.check_source": lambda **kw: _morphase().check_source(
        cities.sample_euro_instance(), **kw),
    "Morphase.transform": lambda **kw: _morphase().transform(
        _sources(), **kw),
    "Morphase.audit": lambda **kw: _morphase().audit(
        _sources(), cities.sample_euro_instance(), **kw),
}


@pytest.mark.parametrize("site", sorted(FORMER_KNOB_SITES))
def test_use_planner_parameter_is_gone(site):
    call = FORMER_KNOB_SITES[site]
    with pytest.raises(TypeError, match="use_planner"):
        call(use_planner=False)
    with pytest.raises(TypeError, match="use_planner"):
        call(use_planner=True)


@pytest.mark.parametrize("site", [
    "Morphase.audit", "Morphase.check_source", "Morphase.transform",
    "audit_constraints", "program_violations"])
def test_parallel_parameter_is_gone(site):
    """The parallel sharded engine is deleted (×0.59–0.69 end to end,
    0 of 40 paired transform runs won): every transform and audit takes
    the one planned, traced, metered path."""
    with pytest.raises(TypeError, match="parallel"):
        FORMER_KNOB_SITES[site](parallel=2)


def test_shard_seam_is_gone():
    with pytest.raises(TypeError, match="shard"):
        FORMER_KNOB_SITES["Executor"](shard=(0, 2))
    with pytest.raises(ImportError, match="execute_parallel"):
        from repro.engine import execute_parallel  # noqa: F401


def test_oracle_is_the_naive_functions_and_the_reference_matcher():
    public = [name for name, value in vars(oracle).items()
              if not name.startswith("_") and inspect.isfunction(value)
              and value.__module__ == oracle.__name__]
    assert sorted(public) == ["head_effects", "naive_execute",
                              "naive_query", "naive_transform",
                              "naive_violations", "unify_term"]
    assert [name for name, value in vars(oracle).items()
            if inspect.isclass(value)
            and value.__module__ == oracle.__name__] == ["Matcher"]
    package = pathlib.Path(repro.__file__).parent
    importers = [str(path.relative_to(package))
                 for path in package.rglob("*.py")
                 if path.name != "oracle.py"
                 and re.search(r"^\s*(from|import)\s+\S*\boracle\b",
                               path.read_text(), re.MULTILINE)]
    assert importers == ["query/query.py"]   # Query.run delegates


def test_naive_transform_matches_production_and_plans_nothing():
    morphase = _morphase()
    planned = morphase.transform(_sources())
    naive = oracle.naive_transform(morphase, _sources())
    assert naive.target.valuations == planned.target.valuations
    assert naive.stats.bindings_found == planned.stats.bindings_found
    assert planned.stats.clauses_planned == planned.stats.clauses_run
    assert naive.stats.clauses_planned == 0 and naive.plan is None
    assert naive.stats.vectorized_steps == 0
