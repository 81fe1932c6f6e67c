"""Diagnostic records produced by ``repro lint``.

A diagnostic pins one rule violation to one source location with a
stable ``RPR###`` code.  Codes are part of the repo's contract: tests
and pragmas (``# repro: ignore[RPR004]``) key on them, so a code is
never renumbered or reused once shipped (retired codes are documented
in DESIGN.md and left unassigned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation at one source location."""

    path: str
    line: int
    column: int
    code: str
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.code)

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.code} {self.message}")
