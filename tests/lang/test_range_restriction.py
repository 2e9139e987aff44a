"""Unit tests for range restriction (safety) analysis."""

import pytest

from repro.lang import (RangeRestrictionError, check_range_restriction,
                        parse_clause, unrestricted_variables)
from repro.lang.range_restriction import determinable_vars
from repro.lang.parser import parse_term
from repro.workloads.cities import integration_program

CLASSES = ["CityA", "StateA", "CityE", "CountryE", "CityT", "CountryT",
           "StateT", "Person", "Male", "Female", "Marriage"]


def clause(text):
    return parse_clause(text, classes=CLASSES)


def restricted(parsed):
    """The verdict of the production check."""
    try:
        check_range_restriction(parsed)
    except RangeRestrictionError:
        return False
    return True


class TestDeterminableVars:
    def test_variable_is_determinable(self):
        assert determinable_vars(parse_term("X")) == {"X"}

    def test_projection_subject_not_determinable(self):
        assert determinable_vars(parse_term("Y.a")) == frozenset()

    def test_record_fields_determinable(self):
        assert determinable_vars(parse_term("(a = X, b = Y)")) == {"X", "Y"}

    def test_skolem_args_determinable(self):
        assert determinable_vars(parse_term("Mk_C(N, M)")) == {"N", "M"}

    def test_variant_payload_determinable(self):
        assert determinable_vars(parse_term("ins_l(X)")) == {"X"}

    def test_nested_mixture(self):
        # X recoverable (record field); Y not (projection subject).
        assert determinable_vars(
            parse_term("(a = X, b = Y.c)")) == {"X"}


class TestPaperExamples:
    def test_paper_unrestricted_example(self):
        """X.population < Y <= X in CityA  — Y is not range-restricted."""
        bad = clause("X.population < Y <= X in CityA;")
        assert not restricted(bad)
        _, bad_head = unrestricted_variables(bad)
        assert bad_head == frozenset({"Y"})

    def test_whole_integration_program_restricted(self):
        for c in integration_program():
            check_range_restriction(c)


class TestBodyBinding:
    def test_class_membership_binds(self):
        assert restricted(clause("X = X <= X in CityA;"))

    def test_chained_equalities_bind(self):
        assert restricted(clause(
            "Z = Z <= X in CityA, Y = X.name, Z = Y;"))

    def test_unbound_comparison_operand(self):
        bad = clause("X = X <= X in CityA, X.name < N;")
        assert not restricted(bad)

    def test_neq_does_not_bind(self):
        bad = clause("X = X <= X in CityA, N != X.name;")
        assert not restricted(bad)

    def test_eq_binds_via_either_side(self):
        assert restricted(clause(
            "N = N <= X in CityA, X.name = N;"))
        assert restricted(clause(
            "N = N <= X in CityA, N = X.name;"))

    def test_set_membership_binds_element_once_collection_bound(self):
        assert restricted(clause(
            "N = N <= X in CityA, N in X.tags;"))

    def test_set_membership_needs_bound_collection(self):
        bad = clause("N = N <= N in S;")
        assert not restricted(bad)

    def test_record_decomposition_binds(self):
        # Knowing X.pair = (a = A, b = B) binds A and B.
        assert restricted(clause(
            "A = B <= X in CityA, X.pair = (a = A, b = B);"))

    def test_skolem_inversion_binds(self):
        # X = Mk_C(N): knowing X determines N (injectivity).
        assert restricted(clause(
            "N = N <= X in CityT, X = Mk_CityT(N);"))

    def test_projection_subject_not_bound_by_equation(self):
        bad = clause("Y = Y <= X in CityA, X.name = Y.name;")
        assert not restricted(bad)


class TestHeadBinding:
    def test_existential_head_membership(self):
        """Paper (T6): X is existential in the head."""
        good = clause(
            "X in Male, X.name = N <= Y in Person, N = Y.name;")
        assert restricted(good)

    def test_head_skolem_binds(self):
        good = clause(
            "X = Mk_CountryT(N) <= Y in CountryE, N = Y.name;")
        assert restricted(good)

    def test_head_variable_with_no_anchor(self):
        bad = clause("X.population < Y <= X in CityA;")
        assert not restricted(bad)

    def test_check_raises_with_variable_names(self):
        bad = clause("X.population < Y <= X in CityA;")
        with pytest.raises(RangeRestrictionError) as excinfo:
            check_range_restriction(bad)
        assert "Y" in str(excinfo.value)

    def test_unbound_body_variable_reported(self):
        bad = clause("X = X <= X in CityA, X.name < N;")
        bad_body, _ = unrestricted_variables(bad)
        assert "N" in bad_body


class TestErrorTexts:
    """The refusal texts, byte for byte: ``Query.parse``'s 422 and the
    WOL504 diagnostics quote them."""

    @pytest.mark.parametrize("text, message", [
        ("X.population < Y <= X in CityA;",
         "clause X.population < Y <= X in CityA;: not range-restricted: "
         "head variables ['Y']"),
        ("X = X <= X in CityA, X.name < N;",
         "clause X = X <= X in CityA, X.name < N;: not range-restricted: "
         "body variables ['N']"),
        ("Y = Z <= X in CityA, W in S, X.name = Y.name;",
         "clause Y = Z <= X in CityA, W in S, X.name = Y.name;: not "
         "range-restricted: body variables ['S', 'W', 'Y'] and head "
         "variables ['Y', 'Z']"),
        ("named: X = Y <= Y in CityA, Z = Y.name, W = Q;",
         "clause named: not range-restricted: body variables ['Q', 'W']"),
    ])
    def test_message(self, text, message):
        with pytest.raises(RangeRestrictionError) as excinfo:
            check_range_restriction(clause(text))
        assert str(excinfo.value) == message


class TestWorkBound:
    def test_term_walks_are_linear_in_the_atoms(self, monkeypatch):
        """Each atom's binding rule is read once per check, not once
        per fixpoint round: a chain that binds one variable a round
        walks each term a constant number of times."""
        from repro.lang.ast import Term
        calls = []
        variables = Term.variables

        def counted(term):
            calls.append(term)
            return variables(term)
        monkeypatch.setattr(Term, "variables", counted)

        def walks(length):
            chain = "".join(f"V{i + 1} = V{i}, " for i in range(length))
            probe = clause(f"V0 = V0 <= {chain}V0 in CityA;")
            calls.clear()
            check_range_restriction(probe)
            return len(calls)
        # Per equation: its rule pair reads each side once, and the
        # variable census reads each side once more.
        assert walks(40) - walks(20) == walks(20) - walks(0) == 20 * 4
