"""Conjunctive queries over instances using WOL bodies."""

from .query import Query, QueryError, Row

__all__ = ["Query", "QueryError", "Row"]
