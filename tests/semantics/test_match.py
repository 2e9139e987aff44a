"""Unit tests for the conjunctive matcher."""

import pytest

from repro.lang import parse_clause, parse_term
from repro.model import (STR, InstanceBuilder, Oid, Record, Schema, WolSet,
                         record, set_of)
from repro.oracle import Matcher
from repro.semantics import unify_term
from repro.workloads.cities import sample_euro_instance

CLASSES = ["CityE", "CountryE"]


@pytest.fixture()
def euro():
    return sample_euro_instance()


def atoms(text, classes=CLASSES):
    clause = parse_clause(f"T = T <= {text};", classes=classes)
    return clause.body


class TestUnifyTerm:
    def test_variable_binds(self):
        out = unify_term(parse_term("X"), 5, {}, None)
        assert out == {"X": 5}

    def test_bound_variable_checks(self):
        assert unify_term(parse_term("X"), 5, {"X": 5}, None) == {"X": 5}
        assert unify_term(parse_term("X"), 6, {"X": 5}, None) is None

    def test_const_matches(self):
        assert unify_term(parse_term("42"), 42, {}, None) == {}
        assert unify_term(parse_term("42"), 41, {}, None) is None

    def test_record_decomposition(self):
        value = Record.of(a=1, b=2)
        out = unify_term(parse_term("(a = X, b = Y)"), value, {}, None)
        assert out == {"X": 1, "Y": 2}

    def test_record_field_mismatch(self):
        value = Record.of(a=1)
        assert unify_term(parse_term("(a = X, b = Y)"), value, {},
                          None) is None

    def test_variant_decomposition(self):
        from repro.model import Variant
        out = unify_term(parse_term("ins_l(X)"), Variant("l", 3), {}, None)
        assert out == {"X": 3}
        assert unify_term(parse_term("ins_m(X)"), Variant("l", 3), {},
                          None) is None

    def test_skolem_inversion_single(self):
        oid = Oid.keyed("CountryT", "France")
        out = unify_term(parse_term("Mk_CountryT(N)"), oid, {}, None)
        assert out == {"N": "France"}

    def test_skolem_inversion_named(self):
        oid = Oid.keyed("CityT", Record.of(name="Paris", cn="France"))
        out = unify_term(parse_term("Mk_CityT(name = N, cn = C)"), oid,
                         {}, None)
        assert out == {"N": "Paris", "C": "France"}

    def test_skolem_class_mismatch(self):
        oid = Oid.keyed("StateT", "Iowa")
        assert unify_term(parse_term("Mk_CountryT(N)"), oid, {},
                          None) is None

    def test_anonymous_oid_never_matches_skolem(self):
        assert unify_term(parse_term("Mk_C(N)"), Oid.fresh("C"), {},
                          None) is None

    def test_binding_not_mutated(self):
        binding = {}
        unify_term(parse_term("X"), 5, binding, None)
        assert binding == {}


class TestMatcher:
    def test_class_membership_generates(self, euro):
        matcher = Matcher(euro)
        solutions = list(matcher.solutions(atoms("X in CountryE")))
        assert len(solutions) == 3

    def test_join_on_attribute(self, euro):
        matcher = Matcher(euro)
        body = atoms("X in CityE, X.is_capital = true, X.country = C,"
                     " C in CountryE")
        solutions = list(matcher.solutions(body))
        assert len(solutions) == 3  # one capital per country

    def test_projection_chain(self, euro):
        matcher = Matcher(euro)
        body = atoms('X in CityE, X.country.name = "France"')
        names = {euro.attribute(s["X"], "name")
                 for s in matcher.solutions(body)}
        assert names == {"Paris", "Lyon"}

    def test_constant_filter(self, euro):
        matcher = Matcher(euro)
        body = atoms('X in CityE, X.name = "London"')
        assert len(list(matcher.solutions(body))) == 1

    def test_neq_filters(self, euro):
        matcher = Matcher(euro)
        body = atoms("X in CountryE, Y in CountryE, X != Y")
        assert len(list(matcher.solutions(body))) == 6  # ordered pairs

    def test_comparison(self, euro):
        matcher = Matcher(euro)
        body = atoms("X in CountryE, Y in CountryE, X.name < Y.name")
        assert len(list(matcher.solutions(body))) == 3  # 3 choose 2

    def test_initial_binding_respected(self, euro):
        matcher = Matcher(euro)
        france = next(o for o in euro.objects_of("CountryE")
                      if euro.attribute(o, "name") == "France")
        body = atoms("X in CityE, X.country = C")
        solutions = list(matcher.solutions(body, {"C": france}))
        assert len(solutions) == 2

    def test_satisfiable_short_circuits(self, euro):
        matcher = Matcher(euro)
        assert matcher.satisfiable(atoms("X in CityE"))
        assert not matcher.satisfiable(
            atoms('X in CityE, X.name = "Gotham"'))

    def test_set_membership(self):
        schema = Schema.of(
            "S", Person=record(name=STR, nicknames=set_of(STR)))
        builder = InstanceBuilder(schema)
        builder.new("Person", Record.of(
            name="Sue", nicknames=WolSet.of("s", "su")))
        inst = builder.freeze()
        matcher = Matcher(inst)
        body = atoms("P in Person, N in P.nicknames", classes=["Person"])
        names = {s["N"] for s in matcher.solutions(body)}
        assert names == {"s", "su"}

    def test_skolem_definition_binds(self, euro):
        matcher = Matcher(euro)
        body = atoms("C in CountryE, C.name = N, X = Mk_CountryT(N)")
        solutions = list(matcher.solutions(body))
        assert len(solutions) == 3
        assert all(isinstance(s["X"], Oid) for s in solutions)

    def test_deterministic_order(self, euro):
        matcher = Matcher(euro)
        body = atoms("X in CityE")
        first = [s["X"] for s in matcher.solutions(body)]
        second = [s["X"] for s in matcher.solutions(body)]
        assert first == second
