"""The canonical JSON AST of the query-program DSL.

A *query program* is a statically-bounded composition of named
statements.  Each statement either runs a WOL conjunctive body (the
``query`` operator, syntax and semantics of :class:`repro.query.Query`)
or applies set algebra — ``union``, ``intersect``, ``difference``,
``project``, ``limit`` — to the result sets of *earlier* statements.
There is no iteration, no recursion and no forward reference, so every
program has a statically-determinable maximum operation count.

The JSON AST is the canonical representation::

    {"version": 1,
     "name": "capitals",
     "statements": [
       {"name": "caps", "op": "query",
        "body": "X in CityE, X.is_capital = true, N = X.name",
        "project": ["N"]},
       {"name": "top", "op": "limit", "input": "caps", "count": 10}]}

The text DSL (:mod:`repro.program.parser`) is a serialisation of this
AST; both forms compile to the same execution.  ``QueryProgram`` is a
frozen value: :meth:`QueryProgram.to_json` is deterministic (every
field always present, statements in program order) and
:meth:`QueryProgram.from_json` rejects anything it would not itself
emit — unknown operators, missing fields, wrong field types — with a
:class:`ProgramParseError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

#: Version stamp of the canonical AST (the wire format's ``version``).
PROGRAM_VERSION = 1

#: Bound on statements per program — the language is statically bounded,
#: and the service must not compile unbounded work per request.
MAX_STATEMENTS = 64

#: The fixed operator vocabulary.
OP_QUERY = "query"
OP_UNION = "union"
OP_INTERSECT = "intersect"
OP_DIFFERENCE = "difference"
OP_PROJECT = "project"
OP_LIMIT = "limit"

ALL_OPS = (OP_QUERY, OP_UNION, OP_INTERSECT, OP_DIFFERENCE,
           OP_PROJECT, OP_LIMIT)


class ProgramError(Exception):
    """Base class for query-program failures."""


class ProgramParseError(ProgramError):
    """The program text / JSON AST is not syntactically well-formed.

    The service maps this to HTTP 400 — the request never reached
    validation.
    """


class ProgramValidationError(ProgramError):
    """The program parsed but failed static validation.

    Carries the full :class:`~repro.analysis.DiagnosticReport` (WOL5xx
    codes); the service maps this to HTTP 422 with the diagnostics in
    the error envelope.
    """

    def __init__(self, report) -> None:
        errors = report.errors()
        detail = "; ".join(str(d) for d in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"program failed validation with {len(errors)} error(s): "
            f"{detail}{more}")
        self.report = report


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QueryOp:
    """Run a WOL conjunctive body; project ``project`` (empty = all)."""

    body: str
    project: Tuple[str, ...] = ()

    op = OP_QUERY

    def inputs(self) -> Tuple[str, ...]:
        return ()

    def to_json(self) -> Dict[str, Any]:
        return {"op": OP_QUERY, "body": self.body,
                "project": list(self.project)}


@dataclass(frozen=True)
class UnionOp:
    """Set union of two or more earlier statements' result sets."""

    sources: Tuple[str, ...]

    op = OP_UNION

    def inputs(self) -> Tuple[str, ...]:
        return self.sources

    def to_json(self) -> Dict[str, Any]:
        return {"op": OP_UNION, "inputs": list(self.sources)}


@dataclass(frozen=True)
class IntersectOp:
    """Set intersection of two or more earlier statements' result sets."""

    sources: Tuple[str, ...]

    op = OP_INTERSECT

    def inputs(self) -> Tuple[str, ...]:
        return self.sources

    def to_json(self) -> Dict[str, Any]:
        return {"op": OP_INTERSECT, "inputs": list(self.sources)}


@dataclass(frozen=True)
class DifferenceOp:
    """Rows of ``left`` not present in ``right``."""

    left: str
    right: str

    op = OP_DIFFERENCE

    def inputs(self) -> Tuple[str, ...]:
        return (self.left, self.right)

    def to_json(self) -> Dict[str, Any]:
        return {"op": OP_DIFFERENCE, "inputs": [self.left, self.right]}


@dataclass(frozen=True)
class ProjectOp:
    """Narrow an earlier result set to ``columns`` (dropping duplicates)."""

    source: str
    columns: Tuple[str, ...]

    op = OP_PROJECT

    def inputs(self) -> Tuple[str, ...]:
        return (self.source,)

    def to_json(self) -> Dict[str, Any]:
        return {"op": OP_PROJECT, "input": self.source,
                "columns": list(self.columns)}


@dataclass(frozen=True)
class LimitOp:
    """The first ``count`` rows of an earlier result set's canonical order."""

    source: str
    count: int

    op = OP_LIMIT

    def inputs(self) -> Tuple[str, ...]:
        return (self.source,)

    def to_json(self) -> Dict[str, Any]:
        return {"op": OP_LIMIT, "input": self.source, "count": self.count}


Op = Union[QueryOp, UnionOp, IntersectOp, DifferenceOp, ProjectOp,
           LimitOp]


@dataclass(frozen=True)
class Statement:
    """One named step: ``name = op``."""

    name: str
    op: Op

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, **self.op.to_json()}


@dataclass(frozen=True)
class QueryProgram:
    """A whole query program (the AST root)."""

    statements: Tuple[Statement, ...]
    name: Optional[str] = None

    @property
    def result_name(self) -> Optional[str]:
        """The statement whose result set the program returns (the last)."""
        return self.statements[-1].name if self.statements else None

    def to_json(self) -> Dict[str, Any]:
        """The canonical JSON AST (deterministic field set and order)."""
        document: Dict[str, Any] = {"version": PROGRAM_VERSION}
        if self.name is not None:
            document["name"] = self.name
        document["statements"] = [s.to_json() for s in self.statements]
        return document

    @staticmethod
    def from_json(data: Any) -> "QueryProgram":
        """Decode a canonical JSON AST; strict, raising on any drift."""
        if not isinstance(data, dict):
            raise ProgramParseError(
                f"program AST must be a JSON object, got "
                f"{type(data).__name__}")
        unknown = set(data) - {"version", "name", "statements"}
        if unknown:
            raise ProgramParseError(
                f"unknown program field(s): {', '.join(sorted(unknown))}")
        version = data.get("version")
        if version != PROGRAM_VERSION:
            raise ProgramParseError(
                f"unsupported program version {version!r} "
                f"(this build speaks version {PROGRAM_VERSION})")
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise ProgramParseError("program 'name' must be a string")
        raw_statements = data.get("statements")
        if not isinstance(raw_statements, list):
            raise ProgramParseError("program 'statements' must be a list")
        statements = tuple(_statement_from_json(entry, index)
                           for index, entry in enumerate(raw_statements))
        return QueryProgram(statements=statements, name=name)


# ----------------------------------------------------------------------
# Strict JSON decoding helpers
# ----------------------------------------------------------------------

def _field(entry: Dict[str, Any], index: int, key: str, kind,
           kind_name: str) -> Any:
    value = entry.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ProgramParseError(
            f"statement #{index + 1}: field {key!r} must be "
            f"{kind_name}, got {value!r}")
    return value


def _name_list(entry: Dict[str, Any], index: int, key: str
               ) -> Tuple[str, ...]:
    value = entry.get(key)
    if not (isinstance(value, list)
            and all(isinstance(item, str) for item in value)):
        raise ProgramParseError(
            f"statement #{index + 1}: field {key!r} must be a list "
            f"of strings, got {value!r}")
    return tuple(value)


_OP_FIELDS = {
    OP_QUERY: {"op", "name", "body", "project"},
    OP_UNION: {"op", "name", "inputs"},
    OP_INTERSECT: {"op", "name", "inputs"},
    OP_DIFFERENCE: {"op", "name", "inputs"},
    OP_PROJECT: {"op", "name", "input", "columns"},
    OP_LIMIT: {"op", "name", "input", "count"},
}


def _statement_from_json(entry: Any, index: int) -> Statement:
    if not isinstance(entry, dict):
        raise ProgramParseError(
            f"statement #{index + 1} must be a JSON object, got "
            f"{type(entry).__name__}")
    op_name = entry.get("op")
    if op_name not in _OP_FIELDS:
        raise ProgramParseError(
            f"statement #{index + 1}: unknown operator {op_name!r} "
            f"(one of: {', '.join(ALL_OPS)})")
    unknown = set(entry) - _OP_FIELDS[op_name]
    if unknown:
        raise ProgramParseError(
            f"statement #{index + 1}: unknown field(s) for "
            f"{op_name!r}: {', '.join(sorted(unknown))}")
    name = _field(entry, index, "name", str, "a string")

    op: Op
    if op_name == OP_QUERY:
        body = _field(entry, index, "body", str, "a string")
        project = (_name_list(entry, index, "project")
                   if "project" in entry else ())
        op = QueryOp(body=body, project=project)
    elif op_name == OP_UNION:
        op = UnionOp(sources=_name_list(entry, index, "inputs"))
    elif op_name == OP_INTERSECT:
        op = IntersectOp(sources=_name_list(entry, index, "inputs"))
    elif op_name == OP_DIFFERENCE:
        inputs = _name_list(entry, index, "inputs")
        if len(inputs) != 2:
            raise ProgramParseError(
                f"statement #{index + 1}: 'difference' takes exactly "
                f"two inputs, got {len(inputs)}")
        op = DifferenceOp(left=inputs[0], right=inputs[1])
    elif op_name == OP_PROJECT:
        op = ProjectOp(source=_field(entry, index, "input", str,
                                     "a string"),
                       columns=_name_list(entry, index, "columns"))
    else:  # OP_LIMIT
        op = LimitOp(source=_field(entry, index, "input", str,
                                   "a string"),
                     count=_field(entry, index, "count", int,
                                  "an integer"))
    return Statement(name=name, op=op)


def is_statement_name(text: str) -> bool:
    """Valid statement names are identifiers (the text DSL's NAME)."""
    return bool(text) and (text[0].isalpha() or text[0] == "_") \
        and all(ch.isalnum() or ch == "_" for ch in text)


__all__: List[str] = [
    "PROGRAM_VERSION", "MAX_STATEMENTS", "ALL_OPS",
    "OP_QUERY", "OP_UNION", "OP_INTERSECT", "OP_DIFFERENCE",
    "OP_PROJECT", "OP_LIMIT",
    "ProgramError", "ProgramParseError", "ProgramValidationError",
    "QueryOp", "UnionOp", "IntersectOp", "DifferenceOp", "ProjectOp",
    "LimitOp", "Op", "Statement", "QueryProgram", "is_statement_name",
]
