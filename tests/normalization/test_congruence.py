"""Unit tests for congruence closure and unsatisfiability detection."""

import pytest

from repro.lang import Const, Var, parse_clause
from repro.normalization import Unsatisfiable, congruence_of

CLASSES = ["CityE", "CountryE", "CityT", "CountryT"]


def body(text):
    return parse_clause(f"T = T <= {text};", classes=CLASSES).body


class TestEqualities:
    def test_transitive_variable_merge(self):
        congruence = congruence_of(body("X = Y, Y = Z"))
        assert congruence.same(Var("X"), Var("Z"))

    def test_constant_propagation(self):
        congruence = congruence_of(body('X = Y, Y = "a"'))
        assert congruence.representative(Var("X")) == Const("a")

    def test_distinct_constants_clash(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body('X = "a", X = "b"'))

    def test_bool_not_int(self):
        # true and 1 are different constants despite Python's bool==int.
        congruence_of(body("X = true, Y = 1"))
        with pytest.raises(Unsatisfiable):
            congruence_of(body("X = true, X = 1"))


class TestProjectionFunctionality:
    def test_same_projection_merges_results(self):
        congruence = congruence_of(
            body("E in CityE, V = E.name, W = E.name"))
        assert congruence.same(Var("V"), Var("W"))

    def test_projection_through_merged_subjects(self):
        congruence = congruence_of(
            body("E in CityE, F in CityE, E = F, V = E.name, W = F.name"))
        assert congruence.same(Var("V"), Var("W"))

    def test_lookup_projection(self):
        congruence = congruence_of(body("E in CityE, V = E.name"))
        assert congruence.lookup_projection(Var("E"), "name") == Var("V")
        assert congruence.lookup_projection(Var("E"), "zip") is None


class TestConstructorInjectivity:
    def test_variant_injectivity(self):
        congruence = congruence_of(
            body("X = ins_a(V), X = ins_a(W)"))
        assert congruence.same(Var("V"), Var("W"))

    def test_variant_label_clash(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body("X = ins_a(V), X = ins_b(W)"))

    def test_skolem_injectivity(self):
        congruence = congruence_of(
            body("X = Mk_CountryT(V), X = Mk_CountryT(W)"))
        assert congruence.same(Var("V"), Var("W"))

    def test_skolem_class_clash(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body("X = Mk_CountryT(V), X = Mk_CityT(W)"))

    def test_record_injectivity(self):
        congruence = congruence_of(
            body("X = (a = V, b = W), X = (a = P, b = Q)"))
        assert congruence.same(Var("V"), Var("P"))
        assert congruence.same(Var("W"), Var("Q"))

    def test_record_label_clash(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body("X = (a = V), X = (b = W)"))

    def test_constant_vs_construction_clash(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body('X = ins_a(V), X = "str"'))

    def test_injectivity_cascades(self):
        congruence = congruence_of(
            body("X = ins_a(V), Y = ins_a(W), X = Y, V = P"))
        assert congruence.same(Var("W"), Var("P"))


class TestMemberships:
    def test_two_classes_clash(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body("X in CityE, X in CountryE"))

    def test_merged_into_two_classes_clash(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body("X in CityE, Y in CountryE, X = Y"))

    def test_constant_member_clash(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body('X in CityE, X = "Paris"'))


class TestDisequalitiesAndComparisons:
    def test_neq_violated(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body("X != Y, X = Y"))

    def test_neq_ok(self):
        congruence_of(body("X != Y"))

    def test_false_constant_comparison(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body("X = 2, Y = 1, X < Y"))

    def test_true_constant_comparison(self):
        congruence_of(body("X = 1, Y = 2, X < Y"))

    def test_irreflexive_lt(self):
        with pytest.raises(Unsatisfiable):
            congruence_of(body("X = Y, X < Y"))

    def test_leq_reflexive_ok(self):
        congruence_of(body("X = Y, X =< Y"))


class TestKeyMerging:
    KEYS = {"CountryE": ((("name",),),),
            "CityE": ((("name",), ("country", "name")),)}

    def test_single_path_key_merge(self):
        congruence = congruence_of(
            body("X in CountryE, Y in CountryE, N = X.name, N = Y.name"),
            self.KEYS)
        assert congruence.same(Var("X"), Var("Y"))

    def test_no_merge_without_keys(self):
        congruence = congruence_of(
            body("X in CountryE, Y in CountryE, N = X.name, N = Y.name"))
        assert not congruence.same(Var("X"), Var("Y"))

    def test_compound_key_needs_all_paths(self):
        # Same name but country names unknown: no merge.
        congruence = congruence_of(
            body("X in CityE, Y in CityE, N = X.name, N = Y.name"),
            self.KEYS)
        assert not congruence.same(Var("X"), Var("Y"))

    def test_compound_key_merges_with_all_paths(self):
        congruence = congruence_of(
            body("X in CityE, Y in CityE, N = X.name, N = Y.name,"
                 " C = X.country, D = Y.country, M = C.name, M = D.name"),
            self.KEYS)
        assert congruence.same(Var("X"), Var("Y"))

    def test_key_merge_cascades_into_congruence(self):
        congruence = congruence_of(
            body("X in CountryE, Y in CountryE, N = X.name, N = Y.name,"
                 " L1 = X.language, L2 = Y.language"),
            self.KEYS)
        assert congruence.same(Var("L1"), Var("L2"))

    def test_alternative_keys(self):
        # Either key alone suffices to merge.
        keys = {"CountryE": ((("name",),), (("currency",),))}
        congruence = congruence_of(
            body("X in CountryE, Y in CountryE, C = X.currency,"
                 " C = Y.currency"),
            keys)
        assert congruence.same(Var("X"), Var("Y"))


class TestConstConstructedOrderIndependence:
    """Regression pins for the Hypothesis falsifiers: const-vs-constructed
    clash detection must fire in *every* atom/argument order."""

    def test_const_equals_variant_both_atom_orders(self):
        # Falsifier #1: X in CityE, 0 = <a: X> — Unsatisfiable no matter
        # where the membership atom sits.
        from repro.lang.ast import EqAtom, MemberAtom, VariantTerm
        member = MemberAtom(Var("X"), "CityE")
        clash = EqAtom(Const(0), VariantTerm("a", Var("X")))
        for atoms in ([member, clash], [clash, member]):
            with pytest.raises(Unsatisfiable):
                congruence_of(atoms)

    def test_const_meets_construction_in_either_union_order(self):
        # Falsifier #2: X = 0, X = <a: Y> — whichever side of the union
        # carries the construction when the constant becomes the root.
        from repro.lang.ast import EqAtom, VariantTerm
        to_const = EqAtom(Var("X"), Const(0))
        to_variant = EqAtom(Var("X"), VariantTerm("a", Var("Y")))
        for atoms in ([to_const, to_variant], [to_variant, to_const]):
            with pytest.raises(Unsatisfiable):
                congruence_of(atoms)

    def test_variant_constant_decomposes_instead_of_clashing(self):
        # A *variant-valued* constant is not a clash: the construction
        # decomposes against it, binding the payload — in both orders.
        from repro.lang.ast import EqAtom, VariantTerm
        from repro.model.values import Variant
        decompose = EqAtom(Const(Variant("a", 7)), VariantTerm("a", Var("X")))
        payload = EqAtom(Var("X"), Const(7))
        for atoms in ([decompose], [decompose, payload],
                      [payload, decompose]):
            congruence = congruence_of(atoms)
            assert congruence.representative(Var("X")) == Const(7)

    def test_variant_constant_label_mismatch(self):
        from repro.lang.ast import EqAtom, VariantTerm
        from repro.model.values import Variant
        with pytest.raises(Unsatisfiable):
            congruence_of(
                [EqAtom(Const(Variant("b", 7)), VariantTerm("a", Var("X")))])

    def test_variant_constant_payload_clash_through_union(self):
        from repro.lang.ast import EqAtom, VariantTerm
        from repro.model.values import Variant
        decompose = EqAtom(Const(Variant("a", 7)), VariantTerm("a", Var("X")))
        other = EqAtom(Var("X"), Const(8))
        for atoms in ([decompose, other], [other, decompose]):
            with pytest.raises(Unsatisfiable):
                congruence_of(atoms)

    def test_record_constant_decomposes_fieldwise(self):
        from repro.lang.ast import EqAtom, RecordTerm
        from repro.model.values import Record
        term = RecordTerm((("a", Var("X")), ("b", Var("Y"))))
        constant = Const(Record((("a", 1), ("b", 2))))
        for atoms in ([EqAtom(constant, term)],
                      [EqAtom(Var("Z"), term), EqAtom(Var("Z"), constant)],
                      [EqAtom(Var("Z"), constant), EqAtom(Var("Z"), term)]):
            congruence = congruence_of(atoms)
            assert congruence.representative(Var("X")) == Const(1)
            assert congruence.representative(Var("Y")) == Const(2)

    def test_scalar_constant_never_equals_record(self):
        from repro.lang.ast import EqAtom, RecordTerm
        term = RecordTerm((("a", Var("X")),))
        first = EqAtom(Var("Z"), term)
        second = EqAtom(Var("Z"), Const("scalar"))
        for atoms in ([first, second], [second, first]):
            with pytest.raises(Unsatisfiable):
                congruence_of(atoms)
