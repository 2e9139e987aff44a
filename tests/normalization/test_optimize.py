"""Unit tests for constraint-based simplification (paper Section 4.2)."""

from repro.lang import EqAtom, MemberAtom, parse_clause
from repro.normalization import (clause_signature, is_body_satisfiable,
                                 simplify_clause, snf_clause)

CLASSES = ["CityE", "CountryE", "CityT", "CountryT"]
KEYS = {"CountryE": ((("name",),),),
        "CityE": ((("name",), ("country", "name")),)}


def snf(text):
    return snf_clause(parse_clause(text, classes=CLASSES))


def members(clause, cname):
    return [a for a in clause.body
            if isinstance(a, MemberAtom) and a.class_name == cname]


class TestPaperExample41:
    """Clauses (T4)+(T5) combined, simplified with key (C8)."""

    COMBINED = (
        "X = Mk_CountryT(N), X.language = L, X.currency = C"
        " <= Y in CountryE, Y.name = N, Y.language = L,"
        "    Z in CountryE, Z.name = N, Z.currency = C;")

    def test_with_key_constraint_collapses_self_join(self):
        out = simplify_clause(snf(self.COMBINED), KEYS)
        assert len(members(out, "CountryE")) == 1

    def test_without_key_constraint_keeps_join(self):
        out = simplify_clause(snf(self.COMBINED), None)
        assert len(members(out, "CountryE")) == 2

    def test_simplified_clause_is_smaller(self):
        with_keys = simplify_clause(snf(self.COMBINED), KEYS)
        without = simplify_clause(snf(self.COMBINED), None)
        assert with_keys.size() < without.size()


class TestUnsatPruning:
    def test_conflicting_constants_pruned(self):
        clause = snf('X.name = N <= X in CityE, N = "a", N = "b";')
        assert simplify_clause(clause, None) is None
        assert not is_body_satisfiable(clause)

    def test_prune_unsat_false_keeps_clause(self):
        clause = snf('X.name = N <= X in CityE, N = "a", N = "b";')
        assert simplify_clause(clause, None, prune_unsat=False) is clause

    def test_variant_clash_pruned(self):
        clause = snf("X.place = P <= X in CityT, P = ins_a(V),"
                     " P = ins_b(W), V in CityE, W in CityE;")
        assert simplify_clause(clause, None) is None

    def test_satisfiable_clause_kept(self):
        clause = snf("X.name = N <= X in CityE, N = X.name;")
        assert simplify_clause(clause, None) is not None


class TestCanonicalisation:
    def test_duplicate_atoms_merged(self):
        clause = snf("T = T <= E in CityE, V = E.name, W = E.name,"
                     " V = W;")
        out = simplify_clause(clause, None, prune_unused=False)
        projections = [a for a in out.body if isinstance(a, EqAtom)]
        # V and W collapse to one canonical projection.
        assert len(projections) == 1

    def test_constants_propagate(self):
        clause = snf('X.name = N <= X in CityE, N = M, M = "Paris";')
        out = simplify_clause(clause, None)
        assert any("Paris" in str(a) for a in out.body + out.head)

    def test_trivial_equalities_dropped(self):
        clause = snf("X.name = N <= X in CityE, N = N, N = X.name;")
        out = simplify_clause(clause, None)
        assert all(str(a) != "N = N" for a in out.body)


class TestUnusedPruning:
    def test_unused_definition_dropped(self):
        clause = snf("X.name = N <= X in CityE, N = X.name,"
                     " U = X.is_capital;")
        out = simplify_clause(clause, None)
        assert all("is_capital" not in str(a) for a in out.body)

    def test_used_definition_kept(self):
        clause = snf("X.name = N <= X in CityE, N = X.name,"
                     " U = X.is_capital, U = true;")
        out = simplify_clause(clause, None)
        assert any("is_capital" in str(a) for a in out.body)

    def test_join_definitions_kept(self):
        # V defined twice: a join between two projections; must stay.
        clause = snf("T = T <= X in CityE, Y in CityE,"
                     " V = X.name, V = Y.name;")
        out = simplify_clause(clause, None)
        assert sum("name" in str(a) for a in out.body) == 2

    def test_member_atoms_never_dropped(self):
        clause = snf("T = T <= X in CityE, Y in CountryE;")
        out = simplify_clause(clause, None)
        assert len(out.body) == 2


class TestHeadIdentityReasoning:
    def test_head_identity_equates_body_keys(self):
        # Head says X = Mk_CountryT(N); body binds X = Mk_CountryT(M).
        # Injectivity makes N = M, collapsing the two CountryE members.
        clause = snf(
            "X in CountryT, X = Mk_CountryT(N), X.name = N"
            " <= Y in CountryE, N = Y.name, Z in CountryE, M = Z.name,"
            "    X = Mk_CountryT(M);")
        out = simplify_clause(clause, KEYS)
        assert len(members(out, "CountryE")) == 1


class TestClauseSignature:
    def test_renaming_invariant(self):
        first = snf("X.name = N <= X in CityE, N = X.name;")
        second = snf("A.name = B <= A in CityE, B = A.name;")
        assert clause_signature(first) == clause_signature(second)

    def test_different_clauses_differ(self):
        first = snf("X.name = N <= X in CityE, N = X.name;")
        second = snf("X.country = N <= X in CityE, N = X.country;")
        assert clause_signature(first) != clause_signature(second)
