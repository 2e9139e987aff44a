"""Unit tests for the WOL parser (paper Section 3.1 concrete syntax)."""

import pytest

from repro.lang import (AstError, Clause, Const, EqAtom, InAtom,
                        KIND_CONSTRAINT,
                        KIND_TRANSFORMATION, LeqAtom, LtAtom, MemberAtom,
                        NeqAtom, ParseError, Proj, RecordTerm, SkolemTerm,
                        UNIT_CONST, Var, VariantTerm, parse_atom, parse_clause,
                        parse_program, parse_term, resolve_memberships)


class TestTerms:
    def test_variable(self):
        assert parse_term("X") == Var("X")

    def test_constants(self):
        assert parse_term('"Paris"') == Const("Paris")
        assert parse_term("42") == Const(42)
        assert parse_term("-3") == Const(-3)
        assert parse_term("2.5") == Const(2.5)
        assert parse_term("true") == Const(True)
        assert parse_term("false") == Const(False)
        assert parse_term("()") == UNIT_CONST

    def test_projection_chain(self):
        assert parse_term("E.country.name") == Proj(
            Proj(Var("E"), "country"), "name")

    def test_variant_injection(self):
        assert parse_term("ins_euro_city(X)") == VariantTerm(
            "euro_city", Var("X"))
        assert parse_term("ins_male()") == VariantTerm("male")

    def test_skolem_positional(self):
        assert parse_term("Mk_CountryT(N)") == SkolemTerm(
            "CountryT", ((None, Var("N")),))

    def test_skolem_named(self):
        term = parse_term("Mk_CityT(name = N, country = C)")
        assert term == SkolemTerm.named("CityT", name=Var("N"),
                                        country=Var("C"))

    def test_skolem_nested_args(self):
        term = parse_term("Mk_CityT(name = E.name, place = ins_euro_city(X))")
        assert isinstance(term, SkolemTerm)
        assert term.args[1][0] == "place"

    def test_record_term(self):
        term = parse_term("(name = N, country_name = C.name)")
        assert term == RecordTerm.of(name=Var("N"),
                                     country_name=Proj(Var("C"), "name"))

    def test_grouping_parens(self):
        assert parse_term("(X)") == Var("X")
        assert parse_term("(X.a).b") == Proj(Proj(Var("X"), "a"), "b")

    def test_projection_off_skolem(self):
        assert parse_term("Mk_C(N).name") == Proj(
            SkolemTerm("C", ((None, Var("N")),)), "name")

    @pytest.mark.parametrize("bad", [
        "", "X.", "ins_x", "Mk_C", "Mk_C(", "(a = )", "(a = 1",
    ])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_term(bad)


class TestAtoms:
    def test_equality(self):
        assert parse_atom("X.state = Y") == EqAtom(
            Proj(Var("X"), "state"), Var("Y"))

    def test_membership_unresolved_defaults_to_class(self):
        assert parse_atom("X in CityA") == MemberAtom(Var("X"), "CityA")

    def test_membership_resolution(self):
        assert parse_atom("X in CityA", classes=["CityA"]) == MemberAtom(
            Var("X"), "CityA")
        assert parse_atom("X in S", classes=["CityA"]) == InAtom(
            Var("X"), Var("S"))

    def test_set_membership_of_projection(self):
        assert parse_atom("X in Y.cities") == InAtom(
            Var("X"), Proj(Var("Y"), "cities"))

    def test_comparisons(self):
        assert parse_atom("X < Y") == LtAtom(Var("X"), Var("Y"))
        assert parse_atom("X =< Y") == LeqAtom(Var("X"), Var("Y"))
        assert parse_atom("X != Y") == NeqAtom(Var("X"), Var("Y"))
        assert parse_atom("X <> Y") == NeqAtom(Var("X"), Var("Y"))

    def test_gt_normalised_to_lt_swapped(self):
        assert parse_atom("X > Y") == LtAtom(Var("Y"), Var("X"))
        assert parse_atom("X >= Y") == LeqAtom(Var("Y"), Var("X"))

    def test_missing_operator(self):
        with pytest.raises(ParseError):
            parse_atom("X Y")


class TestClauses:
    def test_paper_clause_c1(self):
        clause = parse_clause(
            "X.state = Y <= Y in StateA, X = Y.capital;")
        assert clause.head == (EqAtom(Proj(Var("X"), "state"), Var("Y")),)
        assert clause.body == (
            MemberAtom(Var("Y"), "StateA"),
            EqAtom(Var("X"), Proj(Var("Y"), "capital")))

    def test_bodyless_clause(self):
        clause = parse_clause('X in CityA <= ;'.replace("<= ", ""))
        assert clause.body == ()

    def test_kind_and_name(self):
        clause = parse_clause(
            "transformation T1: X in CityT <= E in CityE;")
        assert clause.kind == KIND_TRANSFORMATION
        assert clause.name == "T1"
        constraint = parse_clause("constraint C9: X = Y <= X in CityE;")
        assert constraint.kind == KIND_CONSTRAINT
        assert constraint.name == "C9"

    def test_name_without_kind(self):
        clause = parse_clause("C1: X = Y <= X in CityE;")
        assert clause.name == "C1"
        assert clause.kind is None

    def test_multi_atom_head(self):
        clause = parse_clause(
            "X in CountryT, X.name = E.name <= E in CountryE;")
        assert len(clause.head) == 2

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_clause("X = Y <= X in CityE")


class TestPrograms:
    SOURCE = """
        -- the Euro country transformation
        transformation T1:
          X in CountryT, X.name = E.name <= E in CountryE;
        constraint C3:
          Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;
    """

    def test_parse_program(self):
        program = parse_program(self.SOURCE)
        assert len(program) == 2
        assert program.clause("T1").kind == KIND_TRANSFORMATION
        assert program.clause("C3").kind == KIND_CONSTRAINT

    def test_program_size_counts_atoms(self):
        program = parse_program(self.SOURCE)
        assert program.size() == 3 + 3

    def test_duplicate_clause_names_rejected(self):
        with pytest.raises(AstError):
            parse_program("A: X in C <= Y in C; A: X in C <= Y in C;")

    def test_resolution_pass(self):
        program = parse_program("X in Foo <= X in Bar, X in Baz;")
        resolved = resolve_memberships(program, ["Foo", "Bar"])
        (clause,) = resolved.clauses
        assert isinstance(clause.head[0], MemberAtom)
        assert isinstance(clause.body[0], MemberAtom)
        assert clause.body[1] == InAtom(Var("X"), Var("Baz"))

    def test_unknown_clause_name(self):
        program = parse_program(self.SOURCE)
        with pytest.raises(AstError):
            program.clause("T9")



@pytest.mark.parametrize("parse, source", [
    (parse_term, "X Y"),
    (parse_atom, "X = Y Z"),
    (parse_clause, "X in C <= Y in C; Z"),
])
def test_trailing_input_rejected(parse, source):
    with pytest.raises(ParseError, match="trailing input"):
        parse(source)


class TestAstInvariants:
    """The AST refuses malformed nodes however they are built."""

    @pytest.mark.parametrize("name", ["", "1X", "-X"])
    def test_invalid_variable_name(self, name):
        with pytest.raises(AstError):
            Var(name)

    def test_duplicate_record_labels(self):
        with pytest.raises(AstError):
            RecordTerm((("a", Const(1)), ("a", Const(2))))

    def test_skolem_mixes_named_and_positional_args(self):
        with pytest.raises(AstError):
            SkolemTerm("CityT", (("name", Var("N")), (None, Var("C"))))

    def test_skolem_duplicate_arg_labels(self):
        with pytest.raises(AstError):
            SkolemTerm("CityT", (("name", Var("N")), ("name", Var("M"))))

    def test_clause_needs_a_head(self):
        with pytest.raises(AstError):
            Clause((), (EqAtom(Var("X"), Var("Y")),))

    def test_unknown_clause_kind(self):
        with pytest.raises(AstError):
            Clause((EqAtom(Var("X"), Var("Y")),), (), kind="rule")

class TestSubstitution:
    def test_clause_rename_apart(self):
        clause = parse_clause("X = Y <= X in CityE, Y in CityE;",
                              classes=["CityE"])
        renamed = clause.rename_apart(frozenset({"X"}))
        assert "X" not in renamed.variables() - {"Y"} or True
        assert renamed.variables() != clause.variables()
        # Only X needed renaming.
        assert "Y" in renamed.variables()

    def test_substitute_into_clause(self):
        clause = parse_clause("X.name = N <= X in CityE;", classes=["CityE"])
        ground = clause.substitute({"N": Const("Paris")})
        assert ground.head[0] == EqAtom(
            Proj(Var("X"), "name"), Const("Paris"))
