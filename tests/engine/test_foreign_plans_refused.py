"""A plan or index pool built over one instance is refused over another.

A pool's hash indexes address the oids of the instance it was built
over; run over any other instance its probes return the wrong rows
without an error — an empty target, an empty result.  Every entry
point that is handed a plan, a compiled program or a pool asks the
pool once (``IndexPool.checked_for``) and raises ``ValueError``.
"""

import pytest

from repro.engine import execute, plan_program
from repro.morphase import Morphase
from repro.program import compile_program, parse_program_text, run_compiled
from repro.query import Query
from repro.semantics.match import IndexPool
from repro.workloads import cities

JOIN = ("N, M | X in CityE, Y in CountryE, X.country = Y, "
        "N = X.name, M = Y.name")


def _cities_sources(us, euro, seed):
    morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                        cities.target_schema(), cities.PROGRAM_TEXT)
    merged = morphase._merge_sources([
        cities.generate_us_instance(*us, seed=seed),
        cities.generate_euro_instance(*euro, seed=seed)])
    return morphase, merged


def test_execute_refuses_a_plan_over_another_source():
    morphase, small = _cities_sources((2, 2), (2, 2), seed=1)
    _, large = _cities_sources((4, 3), (4, 3), seed=2)
    program = morphase.compile().program()
    schema = morphase.target_plain
    fresh, _ = execute(program, large, schema)
    assert fresh.class_sizes() == {"CityT": 24, "CountryT": 4,
                                   "StateT": 4}
    with pytest.raises(ValueError, match="different instance"):
        execute(program, large, schema,
                plan=plan_program(program, small))


def test_compile_program_refuses_a_pool_over_another_instance():
    program = parse_program_text(f"rows = query {{ {JOIN} }};")
    euro = cities.sample_euro_instance()
    other = cities.generate_euro_instance(3, 3, seed=1)
    with pytest.raises(ValueError, match="different instance"):
        compile_program(program, other, pool=IndexPool(euro))


def test_run_compiled_refuses_another_instance():
    program = parse_program_text(f"rows = query {{ {JOIN} }};")
    other = cities.generate_euro_instance(3, 3, seed=1)
    fresh = run_compiled(compile_program(program, other), other)
    assert len(fresh.result.rows) == 9
    compiled = compile_program(program, cities.sample_euro_instance())
    with pytest.raises(ValueError, match="different instance"):
        run_compiled(compiled, other)


def test_run_planned_refuses_a_pool_over_another_instance():
    euro = cities.sample_euro_instance()
    other = cities.generate_euro_instance(3, 3, seed=1)
    query = Query.parse(JOIN, classes=euro.schema.class_names())
    assert len(list(query.run_planned(other))) == 9
    with pytest.raises(ValueError, match="different instance"):
        list(query.run_planned(other, pool=IndexPool(euro)))
