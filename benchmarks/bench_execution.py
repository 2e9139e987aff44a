"""E5: one-pass execution scales linearly in source size (Sections 3, 5).

The paper's design goal: "an implementation of a transformation should be
performed in one pass over the source databases".  Normal-form execution
touches each qualifying source combination once, so time grows linearly
with the source instance.

``Morphase.transform`` always runs the planned path (fixed atom orders,
shared prebuilt index pool), so the series here measure planned
execution; the production-vs-oracle head-to-head is the floored
``genome_default`` row of ``bench_planner.py``.
"""

import pytest
from conftest import best_of, print_table

from repro.morphase import Morphase
from repro.workloads import cities

SIZES = (20, 40, 80, 160)


@pytest.fixture(scope="module")
def morphase():
    m = Morphase([cities.us_schema(), cities.euro_schema()],
                 cities.target_schema(), cities.PROGRAM_TEXT)
    m.compile()
    return m


def _sources(countries):
    return [cities.generate_us_instance(max(countries // 4, 1), 3, seed=1),
            cities.generate_euro_instance(countries, 4, seed=1)]


def test_execution_scales_linearly(morphase, benchmark):
    rows = []
    times = {}
    for countries in SIZES:
        sources = _sources(countries)
        result, elapsed = best_of(
            lambda: morphase.transform(sources), repetitions=2)
        times[countries] = elapsed
        rows.append((countries, result.target.size(),
                     round(elapsed * 1000, 1)))
    print_table("E5: execution time vs source size",
                ("countries", "target objects", "ms"), rows)
    # Shape: 8x the source costs ~8x the time, not ~64x. Allow generous
    # noise slack but rule out super-linear blow-up.
    growth = times[SIZES[-1]] / times[SIZES[0]]
    size_growth = SIZES[-1] / SIZES[0]
    assert growth < size_growth * 4, (growth, size_growth)

    benchmark(lambda: morphase.transform(_sources(40)))


def test_compile_once_run_many(morphase, benchmark):
    """Compile-time expense amortises over repeated runs (Section 5)."""
    sources = _sources(30)

    def run():
        return morphase.transform(sources)

    first = morphase.compile()
    assert first is morphase.compile()  # cached: no recompilation
    benchmark(run)


def test_execution_statistics(morphase, benchmark):
    sources = _sources(25)
    result = benchmark(lambda: morphase.transform(sources))
    stats = result.stats
    sizes = result.target.class_sizes()
    print_table("E5: executor statistics (25 countries)",
                ("clauses", "planned", "bindings", "objects",
                 "attr writes", "scans avoided"),
                [(stats.clauses_run, stats.clauses_planned,
                  stats.bindings_found, stats.objects_created,
                  stats.attributes_set,
                  stats.index_hits + stats.index_misses)])
    # Every created object is reachable from some binding (one-pass).
    assert stats.objects_created == sum(sizes.values())
    assert stats.bindings_found >= stats.objects_created
    # The planned path covered every clause.
    assert stats.clauses_planned == stats.clauses_run
