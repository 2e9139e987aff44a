"""Property-based tests over the whole compilation/execution pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.morphase import Morphase
from repro.normalization import (clause_signature, congruence_of,
                                 is_snf_clause, snf_clause, Unsatisfiable)
from repro.workloads import cities, persons

from .strategies import clauses


@pytest.fixture(scope="module")
def city_morphase():
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


class TestSnfProperties:
    @given(clauses())
    @settings(max_examples=150)
    def test_snf_produces_snf(self, clause):
        from repro.normalization.snf import SnfError
        try:
            out = snf_clause(clause)
        except SnfError:
            return  # e.g. projections off constants: legitimately rejected
        assert is_snf_clause(out)

    @given(clauses())
    @settings(max_examples=150)
    def test_snf_idempotent(self, clause):
        from repro.normalization.snf import SnfError
        try:
            once = snf_clause(clause)
        except SnfError:
            return
        twice = snf_clause(once)
        assert set(twice.head) == set(once.head)
        assert set(twice.body) == set(once.body)

    @given(clauses())
    @settings(max_examples=150)
    def test_signature_invariant_under_renaming(self, clause):
        from repro.normalization.snf import SnfError
        try:
            out = snf_clause(clause)
        except SnfError:
            return
        renamed = out.rename({name: f"rv_{index}" for index, name in
                              enumerate(sorted(out.variables()))})
        assert clause_signature(out) == clause_signature(renamed)


class TestCongruenceProperties:
    @given(clauses(), st.randoms())
    @settings(max_examples=100)
    def test_order_independence(self, clause, rng):
        from repro.normalization.snf import SnfError
        try:
            out = snf_clause(clause)
        except SnfError:
            return
        atoms = list(out.body)
        shuffled = list(atoms)
        rng.shuffle(shuffled)
        try:
            first = congruence_of(atoms)
        except Unsatisfiable:
            with pytest.raises(Unsatisfiable):
                congruence_of(shuffled)
            return
        second = congruence_of(shuffled)
        variables = sorted(out.variables())
        from repro.lang.ast import Var
        for i, left in enumerate(variables):
            for right in variables[i + 1:]:
                assert (first.same(Var(left), Var(right))
                        == second.same(Var(left), Var(right)))


class TestExecutionProperties:
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_transform_deterministic(self, countries, cities_per, seed):
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        euro = cities.generate_euro_instance(countries, cities_per, seed)
        us = cities.generate_us_instance(2, 2, seed)
        first = morphase.transform([us, euro]).target
        second = morphase.transform([us, euro]).target
        assert first.valuations == second.valuations

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_cpl_agrees_with_direct(self, countries, cities_per, seed):
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        euro = cities.generate_euro_instance(countries, cities_per, seed)
        us = cities.generate_us_instance(1, 2, seed)
        direct = morphase.transform([us, euro], backend="direct").target
        via_cpl = morphase.transform([us, euro], backend="cpl").target
        assert direct.valuations == via_cpl.valuations

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_target_sizes_match_source_structure(self, countries,
                                                 cities_per, seed):
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        euro = cities.generate_euro_instance(countries, cities_per, seed)
        us = cities.generate_us_instance(2, 2, seed)
        target = morphase.transform([us, euro]).target
        sizes = target.class_sizes()
        assert sizes["CountryT"] == countries
        assert sizes["StateT"] == 2
        assert sizes["CityT"] == countries * cities_per + 4

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_audit_always_clean(self, countries, cities_per, seed):
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        euro = cities.generate_euro_instance(countries, cities_per, seed)
        us = cities.generate_us_instance(1, 1, seed)
        target = morphase.transform([us, euro]).target
        assert morphase.audit([us, euro], target) == []


class TestPersonsProperties:
    @given(st.integers(min_value=0, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_couples_map_to_matching_sizes(self, couples):
        morphase = Morphase([persons.person_schema()],
                            persons.evolved_schema(),
                            persons.PROGRAM_TEXT)
        source = persons.generate_instance(couples)
        target = morphase.transform(source).target
        assert target.class_sizes() == {
            "Male": couples, "Female": couples, "Marriage": couples}
