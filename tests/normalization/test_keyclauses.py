"""Unit tests for key clause recognition and identity derivation."""

from repro.lang import Var, parse_clause
from repro.normalization import (congruence_of, derive_identity,
                                 key_paths_from_spec, recognise_key_clause,
                                 recognise_source_key_paths, snf_clause)
from repro.workloads.cities import euro_schema

CLASSES = ["CityE", "CountryE", "CityT", "CountryT", "StateT"]


def snf(text):
    return snf_clause(parse_clause(text, classes=CLASSES))


class TestRecogniseKeyClause:
    def test_paper_c3(self):
        key = recognise_key_clause(snf(
            "Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;"))
        assert key is not None
        assert key.class_name == "CountryT"
        assert key.object_var == "Y"

    def test_named_compound_key(self):
        key = recognise_key_clause(snf(
            "X = Mk_CityT(name = N, place = P)"
            " <= X in CityT, N = X.name, P = X.place;"))
        assert key is not None
        assert key.skolem.is_named

    def test_deep_path_key(self):
        key = recognise_key_clause(snf(
            "X = Mk_CityT(name = N, cn = M)"
            " <= X in CityT, N = X.name, M = X.country.name;"))
        assert key is not None
        assert len(key.definitions) == 3  # name, country, country.name

    def test_rejects_multi_atom_head(self):
        assert recognise_key_clause(snf(
            "X = Mk_CityT(N), X in CityT <= N = X.name;")) is None

    def test_rejects_extra_members(self):
        assert recognise_key_clause(snf(
            "X = Mk_CityT(N) <= X in CityT, Y in CountryT,"
            " N = X.name;")) is None

    def test_rejects_non_key_shapes(self):
        assert recognise_key_clause(snf(
            "X.name = N <= X in CityT, N = N;")) is None


class TestDeriveIdentity:
    def test_simple_derivation(self):
        key = recognise_key_clause(snf(
            "Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;"))
        producer = snf("X in CountryT, X.name = E.name <= E in CountryE;")
        congruence = congruence_of(producer.atoms())
        identity = derive_identity(congruence, Var("X"), key)
        assert identity is not None
        assert identity.class_name == "CountryT"
        (label, arg), = identity.args
        assert label is None

    def test_deep_path_derivation(self):
        key = recognise_key_clause(snf(
            "X = Mk_CityT(name = N, cn = M)"
            " <= X in CityT, N = X.name, M = X.country.name;"))
        producer = snf(
            "Y in CityT, Y.name = E.name, Y.country = C"
            " <= E in CityE, C in CountryT, C.name = E.country.name;")
        # Y.country.name resolves through C.name, which the body defines.
        congruence = congruence_of(producer.atoms())
        identity = derive_identity(congruence, Var("Y"), key)
        assert identity is not None
        labels = [label for label, _ in identity.args]
        assert labels == ["cn", "name"]

    def test_deep_path_derivation_fails_without_link(self):
        key = recognise_key_clause(snf(
            "X = Mk_CityT(name = N, cn = M)"
            " <= X in CityT, N = X.name, M = X.country.name;"))
        producer = snf(
            "Y in CityT, Y.name = E.name, Y.country = C"
            " <= E in CityE, C in CountryT;")
        # Nothing defines C.name: the cn component cannot be derived.
        congruence = congruence_of(producer.atoms())
        assert derive_identity(congruence, Var("Y"), key) is None

    def test_derivation_fails_without_key_attribute(self):
        key = recognise_key_clause(snf(
            "Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;"))
        producer = snf(
            "X in CountryT, X.language = E.language <= E in CountryE;")
        congruence = congruence_of(producer.atoms())
        assert derive_identity(congruence, Var("X"), key) is None

    def test_variant_valued_key(self):
        key = recognise_key_clause(snf(
            "X = Mk_CityT(name = N, place = P)"
            " <= X in CityT, N = X.name, P = X.place;"))
        producer = snf(
            "Y in CityT, Y.name = E.name, Y.place = ins_euro_city(C)"
            " <= E in CityE, C in CountryT;")
        congruence = congruence_of(producer.atoms())
        identity = derive_identity(congruence, Var("Y"), key)
        assert identity is not None
        labels = [label for label, _ in identity.args]
        assert labels == ["name", "place"]


class TestSourceKeyRecognition:
    def test_paper_c8(self):
        recognised = recognise_source_key_paths(snf(
            "X = Y <= X in CountryE, Y in CountryE, X.name = Y.name;"))
        assert recognised == ("CountryE", (("name",),))

    def test_compound_paths(self):
        recognised = recognise_source_key_paths(snf(
            "X = Y <= X in CityE, Y in CityE, X.name = Y.name,"
            " X.country.name = Y.country.name;"))
        assert recognised == ("CityE", (("country", "name"), ("name",)))

    def test_oid_equality_keeps_prefix_only(self):
        recognised = recognise_source_key_paths(snf(
            "X = Y <= X in CityE, Y in CityE, X.country = Y.country;"))
        assert recognised == ("CityE", (("country",),))

    def test_conditional_clause_rejected(self):
        """The paper's (C5) must NOT be treated as a key."""
        recognised = recognise_source_key_paths(snf(
            "X = Y <= X in CityE, Y in CityE, X.country = Y.country,"
            " X.is_capital = true, Y.is_capital = true;"))
        assert recognised is None

    def test_extra_member_rejected(self):
        recognised = recognise_source_key_paths(snf(
            "X = Y <= X in CityE, Y in CityE, Z in CountryE,"
            " X.name = Y.name;"))
        assert recognised is None

    def test_comparison_rejected(self):
        recognised = recognise_source_key_paths(snf(
            "X = Y <= X in CityE, Y in CityE, X.name = Y.name,"
            " X.name != Y.zip;"))
        assert recognised is None

    def test_different_classes_rejected(self):
        recognised = recognise_source_key_paths(snf(
            "X = Y <= X in CityE, Y in CountryE, X.name = Y.name;"))
        assert recognised is None

    def test_unlinked_paths_rejected(self):
        recognised = recognise_source_key_paths(snf(
            "X = Y <= X in CityE, Y in CityE, N = X.name, M = Y.name;"))
        assert recognised is None


class TestKeyPathsFromSpec:
    def test_spec_conversion(self):
        schema = euro_schema()
        paths = key_paths_from_spec(schema.keys)
        assert paths["CountryE"] == ((("name",),),)
        assert paths["CityE"] == (
            (("name",), ("country", "name")),)
