"""The lint driver: collect files, parse, run rules, filter, report.

:func:`lint_paths` is the library entry point (used by tests and the
``repro lint`` CLI): it walks the given files/directories, parses each
``.py`` file once, derives its dotted module name from the package
layout (``__init__.py`` chain), runs every rule of ``RULES`` per file
and then once over the whole set, then applies pragma suppression.
Unparsable files are *violations* (``RPR000``), not crashes — a syntax
error in the tree must fail the gate, not skip it.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.context import ModuleContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.pragmas import PragmaIndex, collect_pragmas
from repro.analysis.rules import RULES

#: Pseudo-code for files the driver itself rejects (syntax errors,
#: unreadable files).  Not a rule of ``RULES``: it cannot be suppressed.
DRIVER_CODE = "RPR000"

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


@dataclass
class LintResult:
    """Outcome of one lint run."""

    diagnostics: List[Diagnostic]
    files_checked: int
    #: Diagnostics removed by ``# repro: ignore`` pragmas.
    pragma_suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated file list.

    De-duplication keys on ``os.path.realpath`` so the same file reached
    more than once — through a symlinked directory, a repeated argument,
    or an unnormalised spelling — is linted exactly once; the first-seen
    spelling is what diagnostics display.  Sorting happens once, at the
    end: sorting inside ``os.walk`` as well (as this function used to)
    was redundant, and the old ``normpath`` key still admitted symlink
    duplicates.
    """
    found: Dict[str, str] = {}
    for path in paths:
        if os.path.isfile(path):
            found.setdefault(os.path.realpath(path), path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = [d for d in dirs if d not in _SKIP_DIRS]
                for name in files:
                    if name.endswith(".py"):
                        full = os.path.join(root, name)
                        found.setdefault(os.path.realpath(full), full)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(found.values())


def module_name_for(path: str) -> Optional[str]:
    """Dotted module name from the ``__init__.py`` package chain.

    Walks upward while each parent directory is a package; a file that
    is not importable this way (scripts, test fixtures in a bare
    directory) gets ``None`` and package-scoped rules skip it.
    """
    absolute = os.path.abspath(path)
    directory, filename = os.path.split(absolute)
    stem = os.path.splitext(filename)[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.append(package)
    if not parts:
        return None
    name = ".".join(reversed(parts))
    return name if name else None


def display_path(path: str) -> str:
    """Repo-relative path when possible (stable across machines)."""
    relative = os.path.relpath(path)
    return path if relative.startswith("..") else relative


def _parse(path: str) -> Tuple[Optional[ModuleContext],
                               Optional[Diagnostic], PragmaIndex]:
    display = display_path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return None, Diagnostic(display, 1, 1, DRIVER_CODE,
                                f"cannot read file: {exc}"), PragmaIndex()
    pragmas = collect_pragmas(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Diagnostic(display, exc.lineno or 1,
                                (exc.offset or 0) + 1, DRIVER_CODE,
                                f"syntax error: {exc.msg}"), pragmas
    context = ModuleContext(path=display, module=module_name_for(path),
                            tree=tree)
    return context, None, pragmas


def lint_paths(paths: Sequence[str]) -> LintResult:
    """Run the rule suite over ``paths``; returns the filtered result."""
    files = iter_python_files(paths)
    contexts: List[ModuleContext] = []
    pragma_of: Dict[str, PragmaIndex] = {}
    raw: List[Diagnostic] = []
    for path in files:
        context, error, pragmas = _parse(path)
        if error is not None:
            raw.append(error)
            pragma_of[error.path] = pragmas
            continue
        assert context is not None
        pragma_of[context.path] = pragmas
        contexts.append(context)
        for rule in RULES:
            raw.extend(rule.check_module(context))
    for rule in RULES:
        raw.extend(rule.check_project(contexts))

    raw.sort(key=lambda d: d.sort_key())
    kept: List[Diagnostic] = []
    pragma_suppressed = 0
    for diagnostic in raw:
        pragmas = pragma_of.get(diagnostic.path, PragmaIndex())
        if diagnostic.code != DRIVER_CODE and \
                pragmas.suppresses(diagnostic.line, diagnostic.code):
            pragma_suppressed += 1
        else:
            kept.append(diagnostic)

    return LintResult(diagnostics=kept, files_checked=len(files),
                      pragma_suppressed=pragma_suppressed)
