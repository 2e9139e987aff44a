"""One firing test per WOL5xx code — the program validator's vocabulary.

Mirrors ``tests/analysis/test_passes.py``: each test presents the
smallest program that trips exactly the code under test and asserts the
diagnostic anchors to the right statement.  The registry drift test
over there reads this file, so every WOL5xx code must appear quoted
here.
"""

import pytest

from repro.program import (MAX_STATEMENTS, ProgramParseError,
                           ProgramValidationError, parse_program_text)
from repro.program.validate import checked_queries
from repro.workloads import cities

CLASSES = ("CityE", "CountryE")


def validate(text, classes=CLASSES):
    """The full report: the one an error raises, or the clean one."""
    try:
        return checked_queries(parse_program_text(text), classes)[0]
    except ProgramValidationError as exc:
        return exc.report


def has(report, code, clause=None):
    for diagnostic in report.diagnostics:
        if diagnostic.code == code and (clause is None
                                        or diagnostic.clause == clause):
            return diagnostic
    raise AssertionError(
        f"expected {code} ({clause or 'any statement'}); got "
        f"{[str(d) for d in report.diagnostics]}")


class TestBoundsAndNames:
    def test_parse_error_raises_before_validation(self):
        with pytest.raises(ProgramParseError):
            validate("x = nonsense a;")

    def test_wol501_empty_program(self):
        report = validate("")
        assert has(report, "WOL501")

    def test_wol501_over_statement_limit(self):
        text = "a0 = query { X in CityE };\n" + "\n".join(
            f"a{i} = union a0, a0;" for i in range(1, MAX_STATEMENTS + 1))
        report = validate(text)
        assert has(report, "WOL501")

    def test_wol502_duplicate_statement_name(self):
        report = validate(
            "a = query { X in CityE };\n"
            "a = query { X in CountryE };")
        found = has(report, "WOL502", clause="a")
        assert found.clause_index == 1

    def test_wol503_undefined_reference(self):
        report = validate(
            "a = query { X in CityE };\n"
            "b = union a, ghost;")
        assert has(report, "WOL503", clause="b")

    def test_wol503_forward_and_self_references_rejected(self):
        report = validate(
            "a = union a, b;\n"
            "b = query { X in CityE };")
        found = has(report, "WOL503", clause="a")
        assert found.clause_index == 0
        assert "earlier" in found.message


class TestQueryBodies:
    def test_wol504_unparsable_body(self):
        report = validate("a = query { X in in };")
        assert has(report, "WOL504", clause="a")

    def test_wol504_not_range_restricted(self):
        report = validate("a = query { N = X.name };")
        found = has(report, "WOL504", clause="a")
        assert "range-restricted" in found.message

    def test_wol504_unknown_projection_variable(self):
        report = validate("a = query { Z | X in CityE, N = X.name };")
        assert has(report, "WOL504", clause="a")


class TestAlgebra:
    def test_wol505_column_mismatch(self):
        report = validate(
            "a = query { N | X in CityE, N = X.name };\n"
            "b = query { X in CountryE };\n"
            "c = union a, b;")
        found = has(report, "WOL505", clause="c")
        assert found.suggestion is not None

    def test_wol506_unknown_projection_column(self):
        report = validate(
            "a = query { N | X in CityE, N = X.name };\n"
            "b = project a -> Z;")
        assert has(report, "WOL506", clause="b")

    def test_wol507_negative_limit(self):
        report = validate(
            "a = query { X in CityE };\n"
            "b = limit a -1;")
        assert has(report, "WOL507", clause="b")

    def test_wol508_unused_statement_is_a_warning(self):
        report = validate(
            "a = query { X in CityE };\n"
            "b = query { X in CountryE };\n"
            "c = limit b 1;")
        found = has(report, "WOL508", clause="a")
        assert found.severity == "warning"
        assert report.ok  # warnings do not block execution

    def test_result_statement_is_never_unused(self):
        report = validate("a = query { X in CityE };")
        assert report.diagnostics == []


class TestCheckProgram:
    def test_clean_program_passes(self):
        program = parse_program_text(
            "caps = query { N | X in CityE, X.is_capital = true, "
            "N = X.name };\n"
            "alln = query { N | X in CityE, N = X.name };\n"
            "rest = difference alln, caps;")
        report, queries = checked_queries(program, classes=CLASSES)
        assert report.ok
        assert [query is not None for query in queries] == [
            True, True, False]

    def test_errors_raise_with_report_attached(self):
        program = parse_program_text("b = union a, a;")
        with pytest.raises(ProgramValidationError) as info:
            checked_queries(program, classes=CLASSES)
        assert any(d.code == "WOL503"
                   for d in info.value.report.errors())

    def test_compile_refuses_invalid_programs(self):
        from repro.program import compile_program
        instance = cities.sample_euro_instance()
        program = parse_program_text("b = limit ghost 3;")
        with pytest.raises(ProgramValidationError):
            compile_program(program, instance)

    def test_without_classes_structure_still_checked(self):
        report = validate("a = query { X in Anything };\n"
                          "b = union a, ghost;", classes=None)
        assert has(report, "WOL503", clause="b")
