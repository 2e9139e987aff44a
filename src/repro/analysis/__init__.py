"""Whole-program static analysis for WOL programs.

A multi-pass analyzer producing structured :class:`Diagnostic` records
with stable codes (``WOL101``...), severities and suggested fixes —
the preflight every program entry point (CLI ``repro lint``, the
:class:`~repro.morphase.system.Morphase` façade, the HTTP service)
shares.  See :mod:`repro.analysis.analyzer` for the pass pipeline and
:data:`repro.analysis.diagnostics.CODES` for the vocabulary.
"""

from .analyzer import (AnalysisContext, analyze_program, analyze_text,
                       default_passes)
from .diagnostics import (CODES, SEVERITY_ERROR, SEVERITY_INFO,
                          SEVERITY_RANK, SEVERITY_WARNING, Diagnostic,
                          DiagnosticReport)
from .suppress import parse_suppressions

__all__ = [
    "AnalysisContext",
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_RANK",
    "SEVERITY_WARNING",
    "analyze_program",
    "analyze_text",
    "default_passes",
    "parse_suppressions",
]
