"""Structured diagnostics for the WOL static analyzer.

Every finding the analyzer produces is a :class:`Diagnostic` — a stable
code (``WOL101``), a severity, the clause it anchors to, a message and an
optional suggested fix.  The :data:`CODES` registry is the single source
of truth for the code table (the README's "Static analysis" section and
the renderers both read it), so adding a pass means registering its codes
here.

Severities order ``error > warning > info``; ``--fail-on`` and the
transform preflight compare against that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

#: Higher rank = more severe; used by ``--fail-on`` threshold checks.
SEVERITY_RANK = {SEVERITY_INFO: 1, SEVERITY_WARNING: 2, SEVERITY_ERROR: 3}


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    code: str
    severity: str
    title: str
    meaning: str


#: The full diagnostic vocabulary, grouped by pass (1xx safety &
#: boundness, 2xx dead/unsatisfiable clauses, 3xx clause interference,
#: 4xx schema/key lint, 5xx query-program validation —
#: :mod:`repro.program.validate`).  WOL100 is the analyzer's own entry
#: gate.
CODES: Dict[str, CodeInfo] = {info.code: info for info in (
    CodeInfo("WOL100", SEVERITY_ERROR, "parse error",
             "the program text is not syntactically valid WOL"),
    CodeInfo("WOL101", SEVERITY_ERROR, "not range-restricted",
             "a variable is not bound to any database value "
             "(paper Section 3.1 safety)"),
    CodeInfo("WOL102", SEVERITY_ERROR, "type error",
             "no consistent type assignment exists for the clause"),
    CodeInfo("WOL103", SEVERITY_WARNING, "unresolved type obligations",
             "type inference left projection/variant/membership "
             "obligations undischarged; the clause may fail at runtime"),
    CodeInfo("WOL104", SEVERITY_WARNING, "statically unorderable",
             "the clause is range-restricted but the planner finds no "
             "static join order; its normal form is what runs, but as "
             "a query body or constraint the clause is refused"),
    CodeInfo("WOL201", SEVERITY_ERROR, "unsatisfiable body",
             "congruence closure proves the body contradictory; the "
             "clause can never fire"),
    CodeInfo("WOL202", SEVERITY_WARNING, "dead clause",
             "the body selects from a target class no clause produces, "
             "so the body is empty in every run"),
    CodeInfo("WOL203", SEVERITY_WARNING, "duplicate clause",
             "another clause has the same renaming-invariant signature"),
    CodeInfo("WOL204", SEVERITY_INFO, "unused body variable",
             "a body variable occurs in a single atom and never reaches "
             "the head; it only widens the join"),
    CodeInfo("WOL301", SEVERITY_WARNING, "conflicting attribute writes",
             "two clauses write the same non-key scalar attribute and "
             "their bodies can overlap; co-firing raises a runtime "
             "conflict"),
    CodeInfo("WOL302", SEVERITY_WARNING, "recursive produce/consume cycle",
             "the clause participates in a cycle of target-class "
             "production and consumption; results depend on clause "
             "iteration"),
    # WOL303 retired with the parallel engine; the number is not reused.
    CodeInfo("WOL304", SEVERITY_WARNING, "imprecise read-set",
             "a projection subject could not be typed; incremental "
             "seeding must treat the clause as reading everything"),
    # WOL305 retired with the row-at-a-time fallback (every plan step
    # is a batch stage); the number is not reused.
    CodeInfo("WOL401", SEVERITY_ERROR, "key-incomplete creation",
             "the head creates an object of a keyed class without "
             "binding every key attribute (a runtime conflict today)"),
    CodeInfo("WOL402", SEVERITY_INFO, "unreachable class",
             "a schema class is mentioned by no clause"),
    CodeInfo("WOL403", SEVERITY_WARNING, "dangling Skolem argument",
             "a named Skolem-term argument labels no attribute of its "
             "class"),
    # WOL500 retired with the report-folding text validator: a program
    # that does not parse is a parse error (400 ``parse_error`` on
    # /program, exit 2 on the CLI), never a report; the number is not
    # reused.
    CodeInfo("WOL501", SEVERITY_ERROR, "program bounds violated",
             "the program is empty, exceeds the statement limit, or "
             "names a statement with a non-identifier"),
    CodeInfo("WOL502", SEVERITY_ERROR, "duplicate statement name",
             "two statements bind the same name; results would be "
             "ambiguous"),
    CodeInfo("WOL503", SEVERITY_ERROR, "undefined statement reference",
             "an operator input names no *earlier* statement (forward "
             "and self references are rejected — the language has no "
             "recursion)"),
    CodeInfo("WOL504", SEVERITY_ERROR, "invalid query body",
             "a query statement's WOL body does not parse, is not "
             "range-restricted, admits no join order, or projects a "
             "variable the body never binds"),
    CodeInfo("WOL505", SEVERITY_ERROR, "set-operation column mismatch",
             "the inputs of a union/intersect/difference produce "
             "different column sets; row equality would be undefined"),
    CodeInfo("WOL506", SEVERITY_ERROR, "unknown projection column",
             "a project operator selects a column its input does not "
             "produce"),
    CodeInfo("WOL507", SEVERITY_ERROR, "invalid limit",
             "a limit operator's row count is negative"),
    CodeInfo("WOL508", SEVERITY_WARNING, "unused statement",
             "the statement's result set feeds no later statement and "
             "is not the program result; it only burns execution time"),
)}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    ``clause`` is the clause label (name or rendering) and
    ``clause_index`` its position in the program; both are None for
    program-level findings (parse errors, unreachable classes).
    ``atom`` pins the finding to one atom's rendering when it has a
    single anchor.
    """

    code: str
    message: str
    clause: Optional[str] = None
    clause_index: Optional[int] = None
    atom: Optional[str] = None
    suggestion: Optional[str] = None

    @property
    def severity(self) -> str:
        return CODES[self.code].severity

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity,
            "title": CODES[self.code].title,
            "message": self.message,
        }
        if self.clause is not None:
            payload["clause"] = self.clause
        if self.clause_index is not None:
            payload["clause_index"] = self.clause_index
        if self.atom is not None:
            payload["atom"] = self.atom
        if self.suggestion is not None:
            payload["suggestion"] = self.suggestion
        return payload

    def __str__(self) -> str:
        where = f" [{self.clause}]" if self.clause else ""
        return f"{self.code}{where}: {self.message}"


def _sort_key(diagnostic: Diagnostic) -> Tuple:
    index = (diagnostic.clause_index
             if diagnostic.clause_index is not None else -1)
    return (index, diagnostic.code, diagnostic.message)


@dataclass
class DiagnosticReport:
    """All findings of one analyzer run, deterministically ordered."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    passes_run: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.diagnostics = sorted(self.diagnostics, key=_sort_key)
        self.suppressed = sorted(self.suppressed, key=_sort_key)

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity == SEVERITY_ERROR]

    def counts(self) -> Dict[str, int]:
        out = {SEVERITY_ERROR: 0, SEVERITY_WARNING: 0, SEVERITY_INFO: 0}
        for diagnostic in self.diagnostics:
            out[diagnostic.severity] += 1
        return out

    def at_or_above(self, severity: str) -> List[Diagnostic]:
        """Diagnostics at the given severity or worse (threshold check)."""
        floor = SEVERITY_RANK[severity]
        return [d for d in self.diagnostics
                if SEVERITY_RANK[d.severity] >= floor]

    @property
    def ok(self) -> bool:
        return not self.errors()

    def render_text(self, source_name: str = "<program>") -> str:
        """Stable human-readable rendering (golden-tested)."""
        counts = self.counts()
        summary = ", ".join(
            f"{counts[severity]} {severity}{'s' if counts[severity] != 1 else ''}"
            for severity in (SEVERITY_ERROR, SEVERITY_WARNING,
                             SEVERITY_INFO))
        lines = [f"{source_name}: {len(self.diagnostics)} diagnostic(s) "
                 f"({summary}), {len(self.suppressed)} suppressed"]
        for diagnostic in self.diagnostics:
            where = diagnostic.clause or "<program>"
            lines.append(f"  {diagnostic.severity:<7} {diagnostic.code}  "
                         f"{where}: {diagnostic.message}")
            if diagnostic.atom:
                lines.append(f"          at atom: {diagnostic.atom}")
            if diagnostic.suggestion:
                lines.append(f"          fix: {diagnostic.suggestion}")
        if not self.diagnostics:
            lines.append("  clean")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "suppressed": len(self.suppressed),
            "passes": list(self.passes_run),
        }
