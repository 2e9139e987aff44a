"""Heterogeneous database substrates: relational and ACeDB-style."""

from .relational import (Column, RelationalDatabase, RelationalError, Row,
                         Table, TableSchema, export_instance)
from .acedb import (AceClass, AceDatabase, AceError, AceObject, TagSpec,
                    import_acedb, schema_of_acedb)

__all__ = [
    "Column", "RelationalDatabase", "RelationalError", "Row", "Table",
    "TableSchema", "export_instance",
    "AceClass", "AceDatabase", "AceError", "AceObject", "TagSpec",
    "import_acedb", "schema_of_acedb",
]
