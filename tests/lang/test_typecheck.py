"""Unit tests for well-typedness checking (paper Section 3.1)."""

import pytest

from repro.lang import TypecheckError, check_clause, parse_clause
from repro.model import (BOOL, INT, STR, ClassType, merge_schemas, record,
                         set_of)
from repro.workloads.cities import (euro_schema, integration_program,
                                    target_schema, us_schema)


@pytest.fixture()
def schema():
    return merge_schemas("All", [us_schema().schema, euro_schema().schema,
                                 target_schema().schema])


def clause(text, schema):
    return parse_clause(text, classes=schema.class_names())


class TestPaperClauses:
    def test_whole_integration_program_checks(self, schema):
        program = integration_program()
        reports = [check_clause(schema, c) for c in program]
        assert len(reports) == len(program)

    def test_c1_types(self, schema):
        report = check_clause(
            schema, clause("X.state = Y <= Y in StateA, X = Y.capital;",
                           schema))
        assert report.variable_types["X"] == ClassType("CityA")
        assert report.variable_types["Y"] == ClassType("StateA")

    def test_t2_variant_payload_inferred(self, schema):
        report = check_clause(schema, clause(
            "Y in CityT, Y.name = E.name, Y.place = ins_euro_city(X)"
            " <= E in CityE, X in CountryT, X.name = E.country.name;",
            schema))
        assert report.variable_types["X"] == ClassType("CountryT")
        assert report.variable_types["E"] == ClassType("CityE")

    def test_skolem_returns_class_type(self, schema):
        report = check_clause(schema, clause(
            "Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;", schema))
        assert report.variable_types["Y"] == ClassType("CountryT")
        assert report.variable_types["N"] == STR


class TestIllTyped:
    def test_paper_ill_typed_example(self, schema):
        """X < Y.population conflicts with X in CityA (paper Section 3.1)."""
        extended = merge_schemas("Ext", [schema]).classes
        big = merge_schemas("Ext", [schema])
        bad = clause(
            "X = X <= X in CityA, Y in StateA, X < Y.name;", schema)
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)

    def test_unknown_class_in_membership(self, schema):
        bad = parse_clause("X = X <= X in Nowhere;")
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)

    def test_unknown_class_in_skolem(self, schema):
        bad = clause("X = Mk_Nowhere(N) <= X in CityT, N = X.name;", schema)
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)

    def test_unknown_attribute(self, schema):
        bad = clause("X.mayor = N <= X in CityA, N = X.name;", schema)
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)

    def test_unknown_variant_choice(self, schema):
        bad = clause(
            "Y.place = ins_moon_city(X) <= Y in CityT, X in CountryT;",
            schema)
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)

    def test_variant_where_base_expected(self, schema):
        bad = clause(
            "Y.name = ins_euro_city(X) <= Y in CityT, X in CountryT;",
            schema)
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)

    def test_comparison_on_objects(self, schema):
        bad = clause("X = X <= X in CityA, Y in CityA, X < Y;", schema)
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)

    def test_const_type_clash(self, schema):
        bad = clause("X.name = 42 <= X in CityA;", schema)
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)

    def test_bool_vs_string(self, schema):
        bad = clause("X.is_capital = \"yes\" <= X in CityE;", schema)
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)

    def test_record_field_mismatch(self, schema):
        bad = clause(
            "X = Mk_CityT(K), K = (name = N, extra = N)"
            " <= X in CityT, N = X.name, K = (name = N);", schema)
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)


class TestGroundRequirement:
    def test_partial_clause_allowed_without_ground(self, schema):
        # P's type is only pinned to 'some variant choice euro_city' —
        # fine in the default mode.
        partial = clause(
            "P = ins_euro_city(X) <= E in CityE, X in CountryT,"
            " X.name = E.country.name, P = E.x_unknown;", schema)
        with pytest.raises(TypecheckError):
            # unknown attribute still fails
            check_clause(schema, partial)

    def test_require_ground_flags_unresolved(self, schema):
        vague = parse_clause("X = Y <= X in S, Y in S;",
                             classes=schema.class_names())
        # S is a set variable that never gets a ground element type; in
        # default mode this passes, with require_ground it fails.
        check_clause(schema, vague)
        with pytest.raises(TypecheckError):
            check_clause(schema, vague, require_ground=True)


class TestComparisons:
    def test_int_comparison_ok(self):
        from repro.model import Schema
        schema = Schema.of("S", Item=record(name=STR, rank=INT))
        good = parse_clause(
            "X.name = Y.name <= X in Item, Y in Item, X.rank < Y.rank;",
            classes=["Item"])
        report = check_clause(schema, good)
        assert report.variable_types["X"] == ClassType("Item")

    def test_string_comparison_ok(self):
        from repro.model import Schema
        schema = Schema.of("S", Item=record(name=STR))
        good = parse_clause(
            "X = Y <= X in Item, Y in Item, X.name =< Y.name;",
            classes=["Item"])
        check_clause(schema, good)

    def test_bool_comparison_rejected(self):
        from repro.model import Schema
        schema = Schema.of("S", Item=record(flag=BOOL))
        bad = parse_clause(
            "X = Y <= X in Item, Y in Item, X.flag < Y.flag;",
            classes=["Item"])
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)


class TestSetTypes:
    def test_set_membership_typed(self):
        from repro.model import Schema
        schema = Schema.of(
            "S", Person=record(name=STR, nicknames=set_of(STR)))
        good = parse_clause(
            "X.name = N <= X in Person, N in X.nicknames;",
            classes=["Person"])
        report = check_clause(schema, good)
        assert report.variable_types["N"] == STR

    def test_set_membership_type_clash(self):
        from repro.model import Schema
        schema = Schema.of(
            "S", Person=record(name=STR, friends=set_of(ClassType("Person")),
                               age=INT))
        bad = parse_clause(
            "X.age = F <= X in Person, F in X.friends;",
            classes=["Person"])
        with pytest.raises(TypecheckError):
            check_clause(schema, bad)


class TestListMembership:
    def test_list_membership_infers_element_type(self):
        from repro.model import ListType, Schema
        schema = Schema.of("S", Doc=record(tags=ListType(STR)))
        clause = parse_clause("T = T <= D in Doc, A in D.tags;",
                              classes=["Doc"])
        report = check_clause(schema, clause)
        assert report.variable_types["A"] == STR

    def test_membership_in_scalar_rejected(self):
        from repro.model import Schema
        schema = Schema.of("S", Doc=record(name=STR))
        clause = parse_clause("T = T <= D in Doc, A in D.name;",
                              classes=["Doc"])
        with pytest.raises(TypecheckError):
            check_clause(schema, clause)

    def test_element_type_clash_in_list(self):
        from repro.model import ListType, Schema
        schema = Schema.of("S", Doc=record(tags=ListType(STR), rank=INT))
        clause = parse_clause(
            "T = T <= D in Doc, A in D.tags, A = D.rank;",
            classes=["Doc"])
        with pytest.raises(TypecheckError):
            check_clause(schema, clause)


class TestUnresolvedObligations:
    """Deferred inference constraints surface instead of vanishing.

    ``TypeReport.unresolved_obligations()`` feeds the analyzer's
    WOL103 warning: a projection whose subject's type never resolves is
    not an error (partial clauses legitimately leave structure open)
    but it can fail at runtime, so it must be reported.
    """

    def test_untypeable_projection_subject_is_reported(self):
        from repro.model import Schema
        schema = Schema.of("S", Pair=record(name=STR))
        report = check_clause(
            schema,
            parse_clause("Y = N <= M in Pair, M = Mk_Pair(X), N = X.name;",
                         classes=["Pair"]))
        obligations = report.unresolved_obligations()
        assert obligations, "the X.name projection must stay on record"
        assert any("X.name" in entry or ".name" in entry
                   for entry in obligations)

    def test_fully_resolved_clause_has_no_obligations(self, schema):
        report = check_clause(
            schema, clause("X.state = Y <= Y in StateA, X = Y.capital;",
                           schema))
        assert report.unresolved_obligations() == []
