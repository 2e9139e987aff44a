"""Unit tests for semi-normal form conversion (paper Section 5)."""

from repro.lang import (EqAtom, InAtom, MemberAtom, Proj, SkolemTerm, Var,
                        parse_clause)
from repro.normalization import is_snf_atom, is_snf_clause, snf_clause
from repro.normalization.snf import AUX_PREFIX

CLASSES = ["CityA", "StateA", "CityE", "CountryE", "CityT", "CountryT",
           "StateT"]


def clause(text):
    return parse_clause(text, classes=CLASSES)


class TestSnfShapes:
    def test_flat_clause_unchanged(self):
        c = clause("X.state = Y <= Y in StateA, X = Y.capital;")
        out = snf_clause(c)
        assert is_snf_clause(out)
        # Originally flat atoms survive structurally.
        assert MemberAtom(Var("Y"), "StateA") in out.body

    def test_projection_chain_flattened(self):
        c = clause("T = T <= E in CityE, E.country.name = N;")
        out = snf_clause(c)
        assert is_snf_clause(out)
        # One auxiliary for the intermediate E.country.
        aux = [a for a in out.body
               if isinstance(a, EqAtom) and isinstance(a.right, Proj)
               and a.right.attr == "country"]
        assert len(aux) == 1
        assert aux[0].left.name.startswith(AUX_PREFIX)

    def test_skolem_args_flattened(self):
        c = clause("X = Mk_CityT(name = E.name, place = ins_euro_city(C))"
                   " <= E in CityE, C in CountryT;")
        out = snf_clause(c)
        assert is_snf_clause(out)
        skolems = [a for a in out.head + out.body
                   if isinstance(a, EqAtom)
                   and isinstance(a.right, SkolemTerm)]
        assert len(skolems) == 1
        for _, arg in skolems[0].right.args:
            assert isinstance(arg, Var)

    def test_nested_variant_flattened(self):
        c = clause("T = T <= E in CityE, X = ins_wrap(ins_inner(E));")
        out = snf_clause(c)
        assert is_snf_clause(out)

    def test_comparison_sides_flattened(self):
        c = clause("T = T <= X in CityE, Y in CityE, X.name < Y.name;")
        out = snf_clause(c)
        assert is_snf_clause(out)

    def test_constant_equation(self):
        c = clause('T = T <= X in CityE, X.name = "Paris";')
        out = snf_clause(c)
        assert is_snf_clause(out)

    def test_set_membership_collection_flattened(self):
        c = clause("T = T <= X in CityE, N in X.tags;")
        out = snf_clause(c)
        assert is_snf_clause(out)
        assert any(isinstance(a, InAtom) and isinstance(a.collection, Var)
                   for a in out.body)

    def test_idempotent(self):
        c = clause("Y in CityT, Y.name = E.name,"
                   " Y.place = ins_euro_city(X)"
                   " <= E in CityE, X in CountryT,"
                   " X.name = E.country.name;")
        once = snf_clause(c)
        twice = snf_clause(once)
        assert once.head == twice.head
        assert once.body == twice.body


class TestHeadBodySplit:
    def test_source_reads_move_to_body(self):
        c = clause("Y in CityT, Y.name = E.name <= E in CityE;")
        out = snf_clause(c)
        # The E.name read is evaluable from the body and moves there.
        reads = [a for a in out.body
                 if isinstance(a, EqAtom) and isinstance(a.right, Proj)
                 and isinstance(a.right.subject, Var)
                 and a.right.subject.name == "E"]
        assert len(reads) == 1
        # The assignment to the created object stays in the head.
        assigns = [a for a in out.head
                   if isinstance(a, EqAtom) and isinstance(a.right, Proj)
                   and a.right.subject.name == "Y"]
        assert len(assigns) == 1

    def test_assignments_stay_in_head(self):
        c = clause("X.capital = Y <= X in CountryT, Y in CityT;")
        out = snf_clause(c)
        assert any(isinstance(a, EqAtom) and isinstance(a.right, Proj)
                   for a in out.head)

    def test_membership_stays_in_head(self):
        c = clause("Y in CityT <= E in CityE;")
        out = snf_clause(c)
        assert out.head == (MemberAtom(Var("Y"), "CityT"),)

    def test_skolem_identity_stays_in_head(self):
        c = clause("X = Mk_CountryT(N) <= E in CountryE, N = E.name;")
        out = snf_clause(c)
        assert any(isinstance(a, EqAtom)
                   and isinstance(a.right, SkolemTerm)
                   for a in out.head)

    def test_test_on_body_var_stays_in_head(self):
        # N is a body variable: the head atom is an assertion, not a
        # definition, so it must not move.
        c = clause('N = "x" <= E in CityE, N = E.name;')
        out = snf_clause(c)
        assert len(out.head) == 1

    def test_variant_construction_from_body_moves(self):
        c = clause("Y in CityT, Y.place = ins_euro_city(X)"
                   " <= E in CityE, X in CountryT;")
        out = snf_clause(c)
        constructions = [a for a in out.body
                         if isinstance(a, EqAtom)
                         and not isinstance(a.right, (Var, Proj))]
        assert len(constructions) == 1

    def test_name_and_kind_preserved(self):
        c = parse_clause("transformation T1: X in CountryT"
                         " <= E in CountryE;", classes=CLASSES)
        out = snf_clause(c)
        assert out.name == "T1"
        assert out.kind == "transformation"


class TestSnfAtomPredicate:
    def test_flat_atoms(self):
        assert is_snf_atom(parse_clause("X = Y <= X in CityA;",
                                        classes=CLASSES).head[0])

    def test_deep_atom_rejected(self):
        c = clause("T = T <= X in CityE, X.country.name = N;")
        deep = c.body[1]
        assert not is_snf_atom(deep)
