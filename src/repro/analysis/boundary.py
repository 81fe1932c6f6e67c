"""The "only module M may use name X" rules, as rows of one table.

RPR001, RPR004 and RPR014 are the same check over different
names: a *use* of a confined name — a call, a bound method handed on
as a value, an attribute read, an import — outside the modules that own
it.  Each is one :class:`Boundary` row of :data:`BOUNDARIES`; one
walker serves them all and never looks at which code a row carries.

A name is spelled one of two ways:

* ``time.time`` — an exact origin.  A use matches when the module's
  :class:`~repro.analysis.context.Imports` resolves it there, whatever
  the local alias (``from time import time as now``).
* ``*.read_page`` — any receiver.  Methods have no origin to resolve
  (``pf.read_page``: ``pf`` is a parameter), so the final name is
  matched wherever it is spelled — an attribute, an imported name, or
  the ``from m import`` that binds it — unless the receiver is one of
  the row's sanctioned ``receivers``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, Iterator, Optional, Tuple

from repro.analysis.context import ModuleContext, Rule
from repro.analysis.diagnostics import Diagnostic

@dataclass(frozen=True)
class Boundary(Rule):
    """One confined set of names and the modules allowed to use them."""

    code: str
    name: str
    summary: str
    #: Exact origins (``time.time``) and any-receiver names (``*.x``).
    names: FrozenSet[str]
    #: Modules or packages in which the names are free to use.
    homes: Tuple[str, ...]
    #: Receivers (final dotted segment) that sanction a ``*.`` name.
    receivers: Tuple[str, ...]
    #: Diagnostic text; ``{name}`` is the matched name as resolved.
    message: str

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if any(ctx.in_package(home) for home in self.homes):
            return
        for node, receiver, name in ctx.uses:
            origin = name if receiver is None else f"{receiver}.{name}"
            # An import binds an exact name without using it (the
            # resolver follows the binding to each use); a ``*.`` name
            # has no origin to follow, so binding it is the use.
            if ("*." + name in self.names
                    and not self._sanctioned(receiver)) or (
                    origin in self.names
                    and not isinstance(node, ast.ImportFrom)):
                yield ctx.diagnostic(self, node,
                                     self.message.format(name=origin))

    def _sanctioned(self, receiver: Optional[str]) -> bool:
        return receiver is not None and \
            receiver.rpartition(".")[2] in self.receivers


BOUNDARIES: Tuple[Boundary, ...] = (
    # PR 1's bugs (phantom V-page reads, same-page re-reads charged as
    # seeks) all lived at direct page-primitive call sites scattered
    # above the storage layer; ``pageio`` attributes each access to a
    # component.  ``self`` is sanctioned because a class outside
    # ``repro.storage`` cannot be ``PagedFile``.
    Boundary(
        code="RPR001", name="storage-layering",
        summary=("page primitives (PagedFile.read_page/write_page/...) "
                 "may only be used inside repro.storage; use "
                 "repro.storage.pageio elsewhere"),
        names=frozenset({"*.read_page", "*.write_page", "*.append_page",
                         "*.read_run", "*.read_runs", "*.write_run",
                         "*._fh", "*._mem", "*._charge",
                         "*._last_accessed"}),
        homes=("repro.storage",), receivers=("pageio", "self"),
        message=("use of PagedFile primitive {name} outside "
                 "repro.storage; route page access through "
                 "repro.storage.pageio so it stays accounted and "
                 "layer-attributed")),
    # ``time.time()`` is wall-clock: NTP slews and manual changes move
    # it, so an elapsed-time difference can be negative.  (The seed
    # violation: ``repro/cli.py`` timed experiment runs with it.)
    Boundary(
        code="RPR004", name="timing-discipline",
        summary=("time.time() is forbidden for timing; use "
                 "time.perf_counter() (pragma a line that genuinely "
                 "needs wall-clock timestamps)"),
        names=frozenset({"time.time"}),
        homes=(), receivers=(),
        message=("{name}() measures wall-clock, which can jump; use "
                 "time.perf_counter() for elapsed time")),
    # PR 9 made the V-page byte layout *versioned* (raw pages vs the
    # packed delta stream).  A direct raw call elsewhere reads garbage
    # the moment the environment is built packed, and bypasses the
    # codec's CRC / version / bounds checks.
    Boundary(
        code="RPR014", name="vpage-codec-boundary",
        summary=("encode_vpage/decode_vpage may only be used (or "
                 "imported) inside repro.storage.vpagecodec and "
                 "repro.storage.serializer; go through a VPageCodec"),
        names=frozenset({"*.encode_vpage", "*.decode_vpage"}),
        homes=("repro.storage.vpagecodec", "repro.storage.serializer"),
        receivers=(),
        message=("use of {name} outside the V-page codec module; "
                 "V-page bytes are versioned — read and write them "
                 "through the scheme's VPageCodec so the packed layout "
                 "and its corruption checks apply")),
)
