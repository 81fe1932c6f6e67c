"""Ignore pragmas: suppressing a diagnostic at the source line.

One form, comment-only (strings never activate a pragma — the source
is tokenized, not regex-scanned): ``# repro: ignore[RPR001, RPR005]``
suppresses the listed codes on that physical line (the line the
diagnostic is reported at).

Codes must be listed explicitly; there is no bare ``ignore`` that
swallows everything and no whole-file form, because a blanket pragma
hides future violations the author never saw.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Set

_PRAGMA_RE = re.compile(r"#\s*repro:\s*ignore\s*\[(?P<codes>[A-Z0-9,\s]+)\]")


@dataclass
class PragmaIndex:
    """Per-file suppression index built from comment tokens."""

    #: line number -> codes suppressed on that line.
    line_codes: Dict[int, Set[str]] = field(default_factory=dict)

    def suppresses(self, line: int, code: str) -> bool:
        return code in self.line_codes.get(line, frozenset())


def collect_pragmas(source: str) -> PragmaIndex:
    """Scan ``source`` for pragmas; tolerates unparsable tails.

    Tokenization errors (which :func:`ast.parse` would have rejected
    anyway) terminate the scan early rather than raising, so the driver
    reports the syntax error once instead of twice.
    """
    index = PragmaIndex()
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            index.line_codes.setdefault(token.start[0], set()).update(
                code.strip() for code in match.group("codes").split(",")
                if code.strip())
    # An unparsable file yields an empty pragma index on purpose: the
    # lint driver reports the parse failure itself as RPR000, so a
    # second error from here would be noise.
    except (tokenize.TokenError, IndentationError,  # repro: ignore[RPR008]
            SyntaxError):
        pass
    return index
