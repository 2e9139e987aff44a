"""Relational substrate and adapter.

Stands in for the Sybase/Oracle databases the paper's trials connected to
via Kleisli (Section 5): a minimal in-memory relational database — named
tables of flat rows with primary and foreign keys — plus
:func:`export_instance`, which maps a (flat enough) WOL instance to tables,
deriving foreign-key columns from references.

This is what "complex relational databases" look like on the WOL side, and
it is the target substrate of the genome-warehouse experiment (E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..model.instance import Instance
from ..model.values import Oid, Record, format_value

RowValue = Union[int, str, bool, float]
Row = Dict[str, RowValue]


class RelationalError(Exception):
    """Raised for schema violations in the relational substrate."""


_COLUMN_TYPES = {"int": int, "str": str, "bool": bool, "float": float}


@dataclass(frozen=True)
class Column:
    """A column: name, base type name, optional foreign key target."""

    name: str
    type_name: str
    references: Optional[str] = None  # referenced table

    def __post_init__(self) -> None:
        if self.type_name not in _COLUMN_TYPES:
            raise RelationalError(
                f"column {self.name}: unknown type {self.type_name!r}")


@dataclass(frozen=True)
class TableSchema:
    """A table: columns and a primary key (subset of the columns)."""

    name: str
    columns: Tuple[Column, ...]
    primary_key: Tuple[str, ...]

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise RelationalError(f"table {self.name}: duplicate columns")
        for key_col in self.primary_key:
            if key_col not in names:
                raise RelationalError(
                    f"table {self.name}: primary key column "
                    f"{key_col!r} does not exist")
        if not self.primary_key:
            raise RelationalError(
                f"table {self.name}: a primary key is required")
        for column in self.columns:
            if column.references is not None and column.name in self.primary_key:
                # Allowed, but the referenced table's key must be single
                # column — checked at database level.
                pass


class Table:
    """A mutable table of rows."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: List[Row] = []
        self._keys: Dict[Tuple[RowValue, ...], int] = {}

    def insert(self, **values: RowValue) -> Row:
        expected = {column.name for column in self.schema.columns}
        given = set(values)
        if given != expected:
            raise RelationalError(
                f"table {self.schema.name}: row columns {sorted(given)} "
                f"do not match schema columns {sorted(expected)}")
        for column in self.schema.columns:
            value = values[column.name]
            expected_type = _COLUMN_TYPES[column.type_name]
            if expected_type is int and isinstance(value, bool):
                raise RelationalError(
                    f"table {self.schema.name}: column {column.name} "
                    f"expects int, got bool")
            if not isinstance(value, expected_type):
                raise RelationalError(
                    f"table {self.schema.name}: column {column.name} "
                    f"expects {column.type_name}, got {value!r}")
        key = tuple(values[c] for c in self.schema.primary_key)
        if key in self._keys:
            raise RelationalError(
                f"table {self.schema.name}: duplicate primary key {key}")
        self._keys[key] = len(self.rows)
        row = dict(values)
        self.rows.append(row)
        return row

    def lookup(self, *key: RowValue) -> Row:
        index = self._keys.get(tuple(key))
        if index is None:
            raise RelationalError(
                f"table {self.schema.name}: no row with key {key}")
        return self.rows[index]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class RelationalDatabase:
    """A named collection of tables with foreign-key checking."""

    def __init__(self, name: str, tables: Sequence[TableSchema]) -> None:
        self.name = name
        self.tables: Dict[str, Table] = {}
        for table_schema in tables:
            if table_schema.name in self.tables:
                raise RelationalError(
                    f"duplicate table {table_schema.name}")
            self.tables[table_schema.name] = Table(table_schema)
        # Validate foreign keys point at existing single-column keys.
        for table_schema in tables:
            for column in table_schema.columns:
                if column.references is None:
                    continue
                target = self.tables.get(column.references)
                if target is None:
                    raise RelationalError(
                        f"table {table_schema.name}: column "
                        f"{column.name} references unknown table "
                        f"{column.references}")
                if len(target.schema.primary_key) != 1:
                    raise RelationalError(
                        f"table {table_schema.name}: column "
                        f"{column.name} references composite-key table "
                        f"{column.references}")

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise RelationalError(f"no table {name!r}") from None

    def insert(self, table_name: str, **values: RowValue) -> Row:
        return self.table(table_name).insert(**values)

    def check_foreign_keys(self) -> List[str]:
        """All dangling foreign-key references (empty = consistent)."""
        problems: List[str] = []
        for table in self.tables.values():
            for column in table.schema.columns:
                if column.references is None:
                    continue
                target = self.tables[column.references]
                for row in table:
                    try:
                        target.lookup(row[column.name])
                    except RelationalError:
                        problems.append(
                            f"{table.schema.name}.{column.name} = "
                            f"{row[column.name]!r} dangles")
        return problems


# ----------------------------------------------------------------------
# Export: WOL -> relational
# ----------------------------------------------------------------------

def export_instance(instance: Instance,
                    database_schema: Sequence[TableSchema]
                    ) -> RelationalDatabase:
    """Export a flat instance into tables.

    Classes must match table names; attributes must be base-typed or
    references to keyed objects of the referenced table, whose primary key
    is recovered from the oid key (objects must carry keyed oids, as
    transformations produce).
    """
    database = RelationalDatabase(instance.schema.name,
                                  list(database_schema))
    for table_schema in database_schema:
        if not instance.schema.has_class(table_schema.name):
            raise RelationalError(
                f"instance has no class for table {table_schema.name}")
        for oid in sorted(instance.objects_of(table_schema.name), key=str):
            value = instance.value_of(oid)
            if not isinstance(value, Record):
                raise RelationalError(
                    f"object {oid} is not a record; cannot export")
            row: Dict[str, RowValue] = {}
            for column in table_schema.columns:
                if not value.has(column.name):
                    raise RelationalError(
                        f"object {oid} lacks column {column.name}")
                field_value = value.get(column.name)
                if column.references is not None:
                    if not (isinstance(field_value, Oid)
                            and field_value.is_keyed):
                        raise RelationalError(
                            f"object {oid}: column {column.name} is not "
                            f"a keyed reference")
                    key = field_value.key
                    if isinstance(key, Record):
                        raise RelationalError(
                            f"object {oid}: composite-key references are "
                            f"not exportable to column {column.name}")
                    row[column.name] = key  # type: ignore[assignment]
                else:
                    if not isinstance(field_value, (int, str, bool, float)):
                        raise RelationalError(
                            f"object {oid}: column {column.name} has "
                            f"non-scalar value "
                            f"{format_value(field_value)}")
                    row[column.name] = field_value
            database.insert(table_schema.name, **row)
    return database
