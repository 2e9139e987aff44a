"""E2: source key constraints collapse self-joins (Example 4.1).

Paper: combining (T4)/(T5) yields a clause joining CountryE with itself on
name; the key constraint (C8) lets Morphase replace the two-way join with a
single scan — "simpler and more efficient to evaluate".

Reproduced shape: the optimised clause has one CountryE member atom and a
smaller body, and executes with linearly rather than quadratically many
probes.
"""

from conftest import best_of, print_table

from repro.lang import MemberAtom, parse_clause
from repro.normalization import simplify_clause, snf_clause
from repro.oracle import Matcher
from repro.workloads import cities

CLASSES = ["CityE", "CountryE", "CityT", "CountryT"]
KEYS = {"CountryE": ((("name",),),)}

COMBINED = (
    "X = Mk_CountryT(N), X.language = L, X.currency = C"
    " <= Y in CountryE, Y.name = N, Y.language = L,"
    "    Z in CountryE, Z.name = N, Z.currency = C;")


def _clauses():
    raw = snf_clause(parse_clause(COMBINED, classes=CLASSES))
    optimised = simplify_clause(raw, KEYS)
    unoptimised = simplify_clause(raw, None)
    return optimised, unoptimised


def _members(clause):
    return sum(1 for a in clause.body if isinstance(a, MemberAtom))


def test_key_constraint_collapses_join(benchmark):
    optimised, unoptimised = _clauses()
    rows = [
        ("with key (C8)", _members(optimised), optimised.size()),
        ("without", _members(unoptimised), unoptimised.size()),
    ]
    print_table("E2: derived clause after optimisation (Example 4.1)",
                ("variant", "CountryE joins", "atoms"), rows)
    assert _members(optimised) == 1
    assert _members(unoptimised) == 2
    assert optimised.size() < unoptimised.size()

    raw = snf_clause(parse_clause(COMBINED, classes=CLASSES))
    benchmark(lambda: simplify_clause(raw, KEYS))


def test_optimised_clause_evaluates_faster(bench_report, benchmark):
    optimised, unoptimised = _clauses()
    source = cities.generate_euro_instance(120, 1, seed=0)
    matcher = Matcher(source)

    def count(clause):
        return sum(1 for _ in matcher.solutions(clause.body))

    assert count(optimised) == count(unoptimised) == 120

    _, fast = best_of(lambda: count(optimised))
    _, slow = best_of(lambda: count(unoptimised))
    rows = [("with key (C8)", round(fast * 1000, 1)),
            ("without", round(slow * 1000, 1))]
    print_table("E2: body evaluation over 120 countries",
                ("variant", "ms"), rows)
    # The self-join pays a quadratic probe cost; the optimised body is
    # strictly cheaper.
    assert fast < slow
    bench_report.record(
        "key_collapsed_join",
        optimised_ms=round(fast * 1000, 3),
        unoptimised_ms=round(slow * 1000, 3),
        speedup=round(slow / fast, 2))

    benchmark(lambda: count(optimised))
