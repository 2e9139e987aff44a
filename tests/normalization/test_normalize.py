"""Unit tests for the normal-form driver (paper Section 5)."""

import pytest

from repro.lang import MemberAtom, parse_program
from repro.model import merge_schemas
from repro.normalization import (NormalizationError, NormalizationOptions,
                                 normalize)
from repro.workloads import cities, persons, synthetic


def norm_cities(program=None, **opts):
    source = merge_schemas("Src", [cities.us_schema().schema,
                                   cities.euro_schema().schema])
    keys = None
    if "source_keys" not in opts:
        from repro.model import KeySpec
        functions = {}
        for schema in (cities.us_schema(), cities.euro_schema()):
            functions.update(schema.keys.functions)
        keys = KeySpec(functions)
    else:
        keys = opts.pop("source_keys")
    options = NormalizationOptions(**opts) if opts else None
    return normalize(program or cities.integration_program(), source,
                     cities.target_schema().schema, source_keys=keys,
                     options=options)


def body_classes(clause):
    return {a.class_name for a in clause.body
            if isinstance(a, MemberAtom)}


class TestCitiesProgram:
    def test_produces_expected_clause_count(self):
        normalized = norm_cities()
        assert normalized.report.normal_clauses == 4

    def test_bodies_are_source_only(self):
        normalized = norm_cities()
        target = set(cities.target_schema().schema.class_names())
        for clause in normalized.clauses:
            assert not (body_classes(clause) & target)

    def test_every_head_has_identity(self):
        from repro.lang import EqAtom, SkolemTerm
        normalized = norm_cities()
        for clause in normalized.clauses:
            assert any(isinstance(a, EqAtom)
                       and isinstance(a.right, SkolemTerm)
                       for a in clause.head)

    def test_cross_variant_combinations_pruned(self):
        normalized = norm_cities()
        assert normalized.report.pruned_unsatisfiable >= 2

    def test_all_attributes_covered(self):
        normalized = norm_cities()
        assert normalized.report.uncovered == {}

    def test_source_constraints_partitioned(self):
        normalized = norm_cities()
        names = {c.name for c in normalized.source_constraints}
        assert {"C1", "C4", "C5"} <= names

    def test_key_clauses_recognised(self):
        normalized = norm_cities()
        assert set(normalized.key_clauses) == {"CityT", "CountryT",
                                               "StateT"}

    def test_source_key_paths_extracted(self):
        normalized = norm_cities()
        assert normalized.source_key_paths["CountryE"] == ((("name",),),)

    def test_report_counts(self):
        normalized = norm_cities()
        report = normalized.report
        assert report.input_clauses == 12
        assert report.producers == 4
        assert report.assigners == 2
        assert report.normal_size > 0
        assert report.elapsed_seconds >= 0


class TestConstraintAblation:
    def test_without_constraints_more_clauses(self):
        with_constraints = norm_cities()
        without = norm_cities(use_constraints=False)
        assert (without.report.normal_clauses
                > with_constraints.report.normal_clauses)

    def test_without_constraints_bigger_bodies(self):
        with_constraints = norm_cities()
        without = norm_cities(use_constraints=False)
        assert without.report.normal_size > with_constraints.report.normal_size

    def test_without_simplify_bigger(self):
        simplified = norm_cities()
        raw = norm_cities(simplify=False)
        assert raw.report.normal_size >= simplified.report.normal_size


    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_variant_split_blows_up_only_without_constraints(self, width):
        """Section 6: without constraints the normal form can be
        exponential in the program; with them it stays one clause per
        variant choice."""
        choices = 2
        source, target = synthetic.variant_schemas(width, choices)

        def normal_clauses(use_constraints):
            return normalize(
                synthetic.variant_split_program(width, choices),
                source.schema, target.schema, source_keys=source.keys,
                options=NormalizationOptions(
                    use_constraints=use_constraints)).report.normal_clauses

        assert normal_clauses(True) == choices
        assert normal_clauses(False) == choices * choices ** width

class TestPersonsProgram:
    @staticmethod
    def _normalized():
        from repro.lang import Program
        from repro.morphase import generate_target_key_clauses
        program = persons.evolution_program()
        generated = generate_target_key_clauses(
            persons.evolved_schema(), skip=["Marriage"])
        program = Program(program.clauses + tuple(generated))
        return normalize(program,
                         persons.person_schema().schema,
                         persons.evolved_schema().schema,
                         source_keys=persons.person_schema().keys)

    def test_marriage_unfolds_male_female(self):
        normalized = self._normalized()
        t8 = [c for c in normalized.clauses
              if any(isinstance(a, MemberAtom)
                     and a.class_name == "Marriage" for a in c.head)]
        assert len(t8) == 1
        assert body_classes(t8[0]) == {"Person"}

    def test_person_key_merges_joins(self):
        normalized = self._normalized()
        (t8,) = [c for c in normalized.clauses
                 if any(isinstance(a, MemberAtom)
                        and a.class_name == "Marriage" for a in c.head)]
        # Four Person references (Z, W, T6's, T7's) collapse to two.
        assert sum(1 for a in t8.body
                   if isinstance(a, MemberAtom)) == 2


class TestErrors:
    def test_overlapping_schemas_rejected(self):
        schema = cities.us_schema().schema
        with pytest.raises(NormalizationError):
            normalize(cities.integration_program(), schema, schema)

    def test_missing_key_clause(self):
        program = parse_program(
            "T: X in CountryT, X.name = E.name <= E in CountryE;",
            classes=["CountryE", "CountryT"])
        with pytest.raises(NormalizationError) as excinfo:
            normalize(program, cities.euro_schema().schema,
                      cities.target_schema().schema)
        assert "key clause" in str(excinfo.value)

    def test_underdetermined_key(self):
        program = parse_program(
            """
            T: X in CountryT, X.language = E.language <= E in CountryE;
            K: X = Mk_CountryT(N) <= X in CountryT, N = X.name;
            """,
            classes=["CountryE", "CountryT"])
        with pytest.raises(NormalizationError) as excinfo:
            normalize(program, cities.euro_schema().schema,
                      cities.target_schema().schema)
        assert "key" in str(excinfo.value)

    def test_recursive_program_rejected(self):
        program = parse_program(
            """
            K: X = Mk_Node(N) <= X in Node, N = X.name;
            T: X in Node, X.name = N, X.next = Y
               <= Y in Node, N = Y.name;
            """,
            classes=["Node", "Src"])
        from repro.model import Schema, record, STR, ClassType
        source = Schema.of("S", Src=record(name=STR))
        target = Schema.of(
            "T2", Node=record(name=STR, next=ClassType("Node")))
        with pytest.raises(NormalizationError) as excinfo:
            normalize(program, source, target)
        assert "recursive" in str(excinfo.value).lower()

    def test_unknown_class_rejected(self):
        program = parse_program("T: X in Ghost <= E in CountryE;")
        with pytest.raises(NormalizationError):
            normalize(program, cities.euro_schema().schema,
                      cities.target_schema().schema)

    def test_create_and_assign_external_rejected(self):
        program = parse_program(
            """
            K: X = Mk_CountryT(N) <= X in CountryT, N = X.name;
            K2: X = Mk_StateT(N) <= X in StateT, N = X.name;
            T: X in CountryT, X.name = E.name, S.capital = Y
               <= E in CountryE, S in StateT, Y in CityT;
            """,
            classes=["CountryE", "CountryT", "StateT", "CityT"])
        with pytest.raises(NormalizationError):
            normalize(program, cities.euro_schema().schema,
                      cities.target_schema().schema)


class TestOptionalAttributes:
    def test_optional_attr_not_required_for_completeness(self):
        from repro.model import Schema, record, STR, set_of
        source = Schema.of("S", Item=record(name=STR, note=set_of(STR)))
        target = Schema.of("T", Out=record(name=STR, note=STR))
        program = parse_program(
            """
            K: X = Mk_Out(N) <= X in Out, N = X.name;
            P: X in Out, X.name = N <= I in Item, N = I.name;
            A: X.note = V <= X in Out, I in Item, X.name = I.name,
               V in I.note;
            """,
            classes=["Item", "Out"])
        normalized = normalize(
            program, source, target,
            options=NormalizationOptions(
                optional_attributes=frozenset({("Out", "note")})))
        # Both the bare producer and the producer+assigner merge emitted.
        assert normalized.report.normal_clauses == 2
        assert normalized.report.uncovered == {}

    def test_without_marking_attr_is_gated(self):
        from repro.model import Schema, record, STR, set_of
        source = Schema.of("S", Item=record(name=STR, note=set_of(STR)))
        target = Schema.of("T", Out=record(name=STR, note=STR))
        program = parse_program(
            """
            K: X = Mk_Out(N) <= X in Out, N = X.name;
            P: X in Out, X.name = N <= I in Item, N = I.name;
            A: X.note = V <= X in Out, I in Item, X.name = I.name,
               V in I.note;
            """,
            classes=["Item", "Out"])
        normalized = normalize(program, source, target)
        # Only the complete combination is emitted.
        assert normalized.report.normal_clauses == 1
