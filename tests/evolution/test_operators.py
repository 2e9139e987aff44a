"""Unit tests for the schema-evolution operator toolkit."""

import pytest

from repro.evolution import Evolution, EvolutionError
from repro.model import STR, Record, WolSet, isomorphic, parse_schema
from repro.model.instance import InstanceBuilder
from repro.morphase import Morphase
from repro.workloads import cities, persons


def library_schema():
    return parse_schema("""
        schema Library {
          class Book   = (title: str, author: Author,
                          isbn: {str}) key title;
          class Author = (name: str, born: int) key name;
        }
    """)


def library_instance(schema, with_isbn=True):
    builder = InstanceBuilder(schema.schema)
    author = builder.new("Author", Record.of(name="Woolf", born=1882))
    builder.new("Book", Record.of(
        title="Orlando", author=author,
        isbn=WolSet.of("978-1") if with_isbn else WolSet.of()))
    builder.new("Book", Record.of(
        title="The Waves", author=author, isbn=WolSet.of()))
    return builder.freeze()


class TestCopyClass:
    def test_identity_copy(self):
        schema = library_schema()
        evo = Evolution(schema, "V2")
        evo.copy_class("Author")
        result = evo.build()
        builder = InstanceBuilder(schema.schema)
        builder.new("Author", Record.of(name="Woolf", born=1882))
        out = result.transform(schema, builder.freeze())
        assert out.class_sizes() == {"Author": 1}
        (oid,) = out.objects_of("Author")
        assert out.attribute(oid, "name") == "Woolf"

    def test_rename_class_and_attribute(self):
        schema = library_schema()
        evo = Evolution(schema, "V2")
        evo.copy_class("Author", target_class="Writer",
                       renames={"born": "birth_year"})
        result = evo.build()
        assert result.target_schema.schema.attributes("Writer") == (
            "birth_year", "name")
        builder = InstanceBuilder(schema.schema)
        builder.new("Author", Record.of(name="Woolf", born=1882))
        out = result.transform(schema, builder.freeze())
        (oid,) = out.objects_of("Writer")
        assert out.attribute(oid, "birth_year") == 1882

    def test_drop_attribute(self):
        schema = library_schema()
        evo = Evolution(schema, "V2")
        evo.copy_class("Author", drops=["born"])
        result = evo.build()
        assert result.target_schema.schema.attributes("Author") == ("name",)

    def test_add_attribute_with_default(self):
        schema = library_schema()
        evo = Evolution(schema, "V2")
        evo.copy_class("Author", adds={"country": (STR, "unknown")})
        result = evo.build()
        builder = InstanceBuilder(schema.schema)
        builder.new("Author", Record.of(name="Woolf", born=1882))
        out = result.transform(schema, builder.freeze())
        (oid,) = out.objects_of("Author")
        assert out.attribute(oid, "country") == "unknown"

    def test_reference_rewired_through_keys(self):
        schema = library_schema()
        evo = Evolution(schema, "V2")
        evo.copy_class("Author", target_class="Writer")
        evo.copy_class("Book", drops=["isbn"],
                       renames={"author": "writer"})
        result = evo.build()
        out = result.transform(schema, library_instance(schema))
        (book, book2) = sorted(out.objects_of("Book"), key=str)
        writer = out.attribute(book, "writer")
        assert writer.class_name == "Writer"
        assert out.attribute(writer, "name") == "Woolf"

    def test_unknown_class_rejected(self):
        with pytest.raises(EvolutionError):
            Evolution(library_schema()).copy_class("Magazine")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(EvolutionError):
            Evolution(library_schema()).copy_class(
                "Author", drops=["publisher"])

    def test_unmapped_reference_rejected(self):
        schema = library_schema()
        evo = Evolution(schema)
        evo.copy_class("Book", drops=["isbn"])  # Author not copied
        with pytest.raises(EvolutionError):
            evo.build()


class TestMakeRequired:
    def test_delete_policy_drops_objects(self):
        schema = library_schema()
        evo = Evolution(schema, "V2")
        evo.copy_class("Author")
        evo.copy_class("Book")
        evo.make_required("Book", "isbn", policy="delete")
        result = evo.build()
        out = result.transform(schema, library_instance(schema))
        # Only Orlando has an isbn; The Waves is deleted.
        assert out.class_sizes()["Book"] == 1

    def test_default_policy_fills_value(self):
        schema = library_schema()
        evo = Evolution(schema, "V2")
        evo.copy_class("Author")
        evo.copy_class("Book")
        evo.make_required("Book", "isbn", policy="default",
                          default="unassigned")
        result = evo.build()
        assert result.defaults == {("Book", "isbn"): "unassigned"}
        out = result.transform(schema, library_instance(schema))
        assert out.class_sizes()["Book"] == 2
        isbns = {out.attribute(b, "isbn") for b in out.objects_of("Book")}
        assert isbns == {"978-1", "unassigned"}

    def test_default_policy_needs_value(self):
        schema = library_schema()
        evo = Evolution(schema)
        evo.copy_class("Book")
        with pytest.raises(EvolutionError):
            evo.make_required("Book", "isbn", policy="default")

    def test_scalar_attribute_rejected(self):
        schema = library_schema()
        evo = Evolution(schema)
        evo.copy_class("Book")
        with pytest.raises(EvolutionError):
            evo.make_required("Book", "title", policy="delete")

    def test_unknown_policy_rejected(self):
        schema = library_schema()
        evo = Evolution(schema)
        evo.copy_class("Book")
        with pytest.raises(EvolutionError):
            evo.make_required("Book", "isbn", policy="maybe")

    def test_requires_copy_first(self):
        schema = library_schema()
        evo = Evolution(schema)
        with pytest.raises(EvolutionError):
            evo.make_required("Book", "isbn", policy="delete")


class TestSplitAndReify:
    @staticmethod
    def _evolution():
        evo = Evolution(persons.person_schema(), "Evolved")
        evo.split_class("Person", "sex",
                        {"male": "Male", "female": "Female"})
        evo.reify_reference(
            "Person", "spouse", "Marriage",
            subject_target="Male", object_target="Female",
            subject_label="husband", object_label="wife",
            subject_filter=("sex", "male"),
            object_filter=("sex", "female"))
        return evo

    def test_regenerates_paper_example(self):
        """The operator-generated program computes the same result as the
        hand-written (T6)-(T8)."""
        result = self._evolution().build()
        hand_written = Morphase([persons.person_schema()],
                                persons.evolved_schema(),
                                persons.PROGRAM_TEXT)
        source = persons.sample_instance()
        assert isomorphic(
            result.transform(persons.person_schema(), source),
            hand_written.transform(source).target)

    def test_split_schema_shape(self):
        result = self._evolution().build()
        schema = result.target_schema.schema
        assert schema.class_names() == ("Female", "Male", "Marriage")
        assert schema.attributes("Male") == ("name",)
        assert schema.attributes("Marriage") == ("husband", "wife")

    def test_split_needs_variant_attribute(self):
        evo = Evolution(persons.person_schema())
        with pytest.raises(EvolutionError):
            evo.split_class("Person", "name", {"x": "X"})

    def test_split_unknown_label_rejected(self):
        evo = Evolution(persons.person_schema())
        with pytest.raises(EvolutionError):
            evo.split_class("Person", "sex", {"other": "Other"})

    def test_reify_needs_reference(self):
        evo = Evolution(persons.person_schema())
        with pytest.raises(EvolutionError):
            evo.reify_reference("Person", "name", "L", "A", "B")

    def test_asymmetric_instance_loses_information(self):
        """The operator-generated program inherits Example 4.2's
        information-loss behaviour on unconstrained sources."""
        result = self._evolution().build()
        source_schema = persons.person_schema()
        a = result.transform(source_schema, persons.asymmetric_instance())
        b = result.transform(source_schema,
                             persons.symmetric_variant_of_asymmetric())
        assert isomorphic(a, b)


class TestCitiesSubset:
    def test_copy_us_database(self):
        evo = Evolution(cities.us_schema(), "USv2")
        evo.copy_class("StateA", target_class="State")
        evo.copy_class("CityA", target_class="City",
                       renames={"state": "in_state"})
        result = evo.build()
        out = result.transform(cities.us_schema(),
                               cities.sample_us_instance())
        assert out.class_sizes() == {"City": 5, "State": 2}
        # Cross-references survive the copy through key-based rewiring.
        for city in out.objects_of("City"):
            state = out.attribute(city, "in_state")
            assert state.class_name == "State"
