"""Repo-specific static analysis: the ``repro lint`` rule suite.

PR 1 fixed a family of I/O-accounting bugs and added the observability
layer; this package is what keeps them fixed.  Each ``RPR###`` rule
encodes one invariant (storage layering, metric-name hygiene,
monotonic timing, DoV float comparison, typing ratchet) as
an AST check, and ``repro lint`` fails the build when any is violated.
See DESIGN.md ("Static analysis") for the audit behind each rule and how
to add one; README ("Linting") for CLI usage and pragma syntax.
"""

from typing import Tuple

from repro.analysis.context import ModuleContext, Rule
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.driver import (DRIVER_CODE, LintResult,
                                   iter_python_files, lint_paths,
                                   module_name_for)
from repro.analysis.pragmas import PragmaIndex, collect_pragmas
from repro.analysis.rules import RULES


def all_rules() -> Tuple[Rule, ...]:
    """Every rule ``repro lint`` runs, sorted by code."""
    return RULES


__all__ = [
    "DRIVER_CODE",
    "Diagnostic",
    "LintResult",
    "ModuleContext",
    "PragmaIndex",
    "all_rules",
    "collect_pragmas",
    "iter_python_files",
    "lint_paths",
    "module_name_for",
]
