"""Synthetic WOL programs for compile-time experiments (E3, E4).

Two program families:

* :func:`wide_program` — one target class whose ``width`` attributes are
  described by separate partial clauses (the paper's motivation for
  partial rules: "tens of fields is common").  Normalisation merges them
  into one complete clause; re-normalising the already-normal output is
  the paper's baseline for the ~6x compile-time comparison (Section 6).

* :func:`variant_split_program` — a target class with ``width`` attribute
  groups, each described per variant choice.  Combining the partial
  clauses multiplies the choices: without constraint knowledge the
  normal form has ``choices ** width`` clauses (the paper's "could be
  exponential in the size of the original program"); with constraints
  the incompatible combinations are unsatisfiable and pruned, leaving
  ``choices`` clauses.
"""

from __future__ import annotations

from typing import List, Tuple

from ..lang.ast import Program
from ..lang.parser import parse_program
from ..model.instance import Instance, InstanceBuilder
from ..model.keys import KeyedSchema
from ..model.schema import parse_schema
from ..model.values import Record


# ----------------------------------------------------------------------
# Wide-record programs (E3)
# ----------------------------------------------------------------------

def wide_schemas(width: int) -> Tuple[KeyedSchema, KeyedSchema]:
    """Source/target schemas with a ``width``-attribute record class."""
    attrs = ", ".join(f"a{i}: str" for i in range(width))
    source = parse_schema(
        f"schema WideSrc {{ class Item = (name: str, {attrs}) key name; }}")
    target = parse_schema(
        f"schema WideTgt {{ class Out = (name: str, {attrs}) key name; }}")
    return source, target


def wide_program_text(width: int) -> str:
    """Program text for :func:`wide_program` (also fed to the linter)."""
    clauses: List[str] = [
        "constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;",
        "transformation P0: X in Out, X.name = N"
        " <= I in Item, N = I.name;",
    ]
    for index in range(width):
        clauses.append(
            f"transformation A{index}: X.a{index} = V"
            f" <= X in Out, I in Item, X.name = I.name, V = I.a{index};")
    return "\n".join(clauses)


def wide_program(width: int) -> Program:
    """One producer plus one partial clause per attribute.

    The producer only establishes the object and its key; each attribute
    arrives from its own clause — the step-wise style the paper argues
    partial rules enable.
    """
    source, target = wide_schemas(width)
    classes = source.schema.class_names() + target.schema.class_names()
    return parse_program(wide_program_text(width), classes=classes)


def wide_instance(width: int, items: int) -> Instance:
    source, _ = wide_schemas(width)
    builder = InstanceBuilder(source.schema)
    for index in range(items):
        fields = {"name": f"item{index}"}
        fields.update({f"a{i}": f"v{index}_{i}" for i in range(width)})
        builder.new("Item", Record.of(**fields))
    return builder.freeze()


# ----------------------------------------------------------------------
# Variant-split programs (E4)
# ----------------------------------------------------------------------

def variant_schemas(width: int,
                    choices: int) -> Tuple[KeyedSchema, KeyedSchema]:
    """Source items tagged with a variant; a target with ``width``
    attributes plus the tag."""
    tag_choices = ", ".join(f"c{j}: unit" for j in range(choices))
    attrs = ", ".join(f"a{i}: str" for i in range(width))
    source = parse_schema(
        f"schema VarSrc {{ class Item = (name: str, "
        f"tag: <<{tag_choices}>>, {attrs}) key name; }}")
    target = parse_schema(
        f"schema VarTgt {{ class Out = (name: str, "
        f"tag: <<{tag_choices}>>, {attrs}) key name; }}")
    return source, target


def variant_split_program_text(width: int, choices: int = 2) -> str:
    """Program text for :func:`variant_split_program` (and the linter)."""
    clauses: List[str] = [
        "constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;",
    ]
    for j in range(choices):
        clauses.append(
            f"transformation P{j}: X in Out, X.name = N,"
            f" X.tag = ins_c{j}()"
            f" <= I in Item, N = I.name, I.tag = ins_c{j}();")
    for i in range(width):
        for j in range(choices):
            clauses.append(
                f"transformation A{i}_{j}: X.a{i} = V"
                f" <= X in Out, X.tag = ins_c{j}(), I in Item,"
                f" X.name = I.name, I.tag = ins_c{j}(), V = I.a{i};")
    return "\n".join(clauses)


def variant_split_program(width: int, choices: int = 2) -> Program:
    """Producers per variant choice; assigners per (attribute, choice).

    Combination without constraints multiplies: every producer accepts
    every assigner candidate for every attribute, giving
    ``choices ** width`` merged clauses per producer family.  With
    constraints, an assigner whose tag choice differs from the
    producer's is unsatisfiable after merging, so only the matching
    assigners survive: ``choices`` clauses total.
    """
    source, target = variant_schemas(width, choices)
    classes = source.schema.class_names() + target.schema.class_names()
    return parse_program(variant_split_program_text(width, choices),
                         classes=classes)
