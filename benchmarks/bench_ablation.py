"""A1/A2: ablations of the design choices called out in DESIGN.md.

A1 — constraint-based simplification on/off: effect on normal-form body
size and on execution time (Section 4.2's "extremely important in gaining
acceptable performance").

A2 — join-ordering heuristic in the conjunctive matcher (tests before
generators) on/off: identical results, different search cost.
"""

from conftest import best_of, print_table

from repro.morphase import Morphase
from repro.normalization import NormalizationOptions
from repro.oracle import Matcher
from repro.workloads import cities


def _morphase(**options):
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT,
                    options=NormalizationOptions(**options)
                    if options else None)


def _sources():
    return [cities.generate_us_instance(8, 3, seed=9),
            cities.generate_euro_instance(30, 4, seed=9)]


def test_a1_optimisation_shrinks_programs_and_speeds_execution(
        bench_report, benchmark):
    optimised = _morphase()
    raw = _morphase(use_constraints=False, simplify=False)
    opt_norm = optimised.compile()
    raw_norm = raw.compile()

    sources = _sources()
    opt_result, opt_time = best_of(
        lambda: optimised.transform(sources), repetitions=2)
    raw_result, raw_time = best_of(
        lambda: raw.transform(sources), repetitions=2)

    print_table(
        "A1: optimisation on vs off (cities program)",
        ("variant", "clauses", "atoms", "exec ms"),
        [("optimised", opt_norm.report.normal_clauses,
          opt_norm.report.normal_size, round(opt_time * 1000, 1)),
         ("raw", raw_norm.report.normal_clauses,
          raw_norm.report.normal_size, round(raw_time * 1000, 1))])

    bench_report.record(
        "optimisation_on_vs_off",
        optimised_ms=round(opt_time * 1000, 3),
        raw_ms=round(raw_time * 1000, 3),
        speedup=round(raw_time / opt_time, 2))
    # Same answer either way...
    assert opt_result.target.valuations == raw_result.target.valuations
    # ...but the optimised program is smaller and faster.
    assert opt_norm.report.normal_size < raw_norm.report.normal_size
    assert opt_norm.report.normal_clauses <= raw_norm.report.normal_clauses
    assert opt_time < raw_time

    benchmark(lambda: optimised.transform(sources))


def test_a2_join_ordering_heuristic(benchmark):
    from repro.lang import parse_clause
    source = cities.generate_euro_instance(60, 4, seed=10)
    # A body whose textual order opens the city generator before the
    # country filter binds anything: the heuristic reorders it.
    clause = parse_clause(
        "T = T <= X in CityE, Y in CountryE, X.country = Y,"
        ' Y.name = "Country7", X.is_capital = false;',
        classes=["CityE", "CountryE"])

    def count(prefer_tests):
        matcher = Matcher(source, prefer_tests=prefer_tests)
        return sum(1 for _ in matcher.solutions(clause.body))

    assert count(True) == count(False)

    _, smart = best_of(lambda: count(True))
    _, naive = best_of(lambda: count(False))
    print_table("A2: matcher join ordering",
                ("variant", "ms"),
                [("tests-first (default)", round(smart * 1000, 2)),
                 ("textual order", round(naive * 1000, 2))])
    # Identical answers; the heuristic never loses by more than noise.
    assert smart <= naive * 1.5

    benchmark(lambda: count(True))
