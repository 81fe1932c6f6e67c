"""The repo-specific lint rules (``RPR001``–``RPR009`` less the retired
``RPR003``, and ``RPR014``).

Each rule encodes an invariant that a past bug (PR 1's I/O-accounting
fixes) or a structural decision (the observability layer) established,
so the next change cannot silently reintroduce the bug class.  DESIGN.md
documents every rule with the incident it encodes; this module is the
executable form.

All rules are heuristic AST checks, not type-resolved analyses: they
name-match methods and identifiers.  When a rule misfires on legitimate
code, suppress that line with ``# repro: ignore[RPR###]`` and say why in
the adjacent comment — the pragma is part of the audit trail.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import (ModuleContext, ModuleRule, ProjectRule,
                                     register)

#: The package allowed to touch page primitives directly (RPR001).
STORAGE_PACKAGE = "repro.storage"

#: Accounted PagedFile methods that must not be called above the
#: storage layer (the seek-level primitives ``_fh``/``_mem`` are
#: covered separately).
PAGE_METHODS = frozenset({"read_page", "write_page", "append_page",
                          "read_run"})

#: PagedFile internals nobody outside the class may touch: reaching
#: them bypasses the charge accounting entirely.
PAGE_PRIVATE_ATTRS = frozenset({"_fh", "_mem", "_charge",
                                "_last_accessed"})

#: Packages held to the strict typing bar (RPR006 + mypy strict gate).
STRICT_PACKAGES = (
    "repro.storage",
    "repro.core",
    "repro.obs",
    "repro.visibility",
    "repro.rtree",
    "repro.analysis",
)

#: The module metric-name constants must come from (RPR002).
NAMES_MODULE = "repro.obs.names"

#: Modules whose *job* is absorbing and transmuting failures (RPR008).
#: Only here may an exception be caught and deliberately dropped.
FAULT_BOUNDARY_MODULES = frozenset({
    "repro.storage.faults",
    "repro.storage.retry",
})

#: Registry methods that take a metric name as first argument.
METRIC_METHODS = frozenset({"counter", "gauge", "histogram", "value"})

#: The HTTP front-end package whose handlers must stay clock-free
#: (RPR009) so its machine-independent report sections stay exact.
HTTP_PACKAGE = "repro.serving.http"

#: The single module under :data:`HTTP_PACKAGE` allowed to read clocks.
HTTP_TIMING_MODULE = "repro.serving.http.middleware"

#: Clock-reading callables in the ``time`` module (RPR009).
CLOCK_FUNCTIONS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})

#: The raw V-page byte codecs (RPR014): only the codec module — and the
#: serializer that owns the byte layout — may call them.
VPAGE_CODEC_FUNCTIONS = frozenset({"encode_vpage", "decode_vpage"})

#: Modules allowed to touch the raw V-page byte layout (RPR014).
VPAGE_CODEC_MODULES = frozenset({
    "repro.storage.vpagecodec",
    "repro.storage.serializer",
})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(root):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


@register
class LayeringRule(ModuleRule):
    """RPR001: only ``repro.storage`` touches page primitives.

    PR 1's bugs (phantom V-page reads, same-page re-reads charged as
    seeks) all lived at direct ``read_page``/``write_page`` call sites
    scattered above the storage layer.  Everything above must go
    through ``repro.storage.pageio``, which attributes the access to a
    component and keeps the accounting surface in one package.
    """

    code = "RPR001"
    name = "storage-layering"
    summary = ("page primitives (PagedFile.read_page/write_page/...) may "
               "only be called inside repro.storage; use "
               "repro.storage.pageio elsewhere")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.in_package(STORAGE_PACKAGE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in PAGE_METHODS:
                    receiver = _dotted(node.func.value)
                    if receiver is not None and (
                            receiver == "pageio"
                            or receiver.endswith(".pageio")):
                        continue
                    yield ctx.diagnostic(
                        self, node,
                        f"direct call to PagedFile.{attr}() outside "
                        f"repro.storage; route page access through "
                        f"repro.storage.pageio so it stays accounted "
                        f"and layer-attributed")
            elif isinstance(node, ast.Attribute) and \
                    node.attr in PAGE_PRIVATE_ATTRS:
                receiver = _dotted(node.value)
                if receiver == "self":
                    continue
                yield ctx.diagnostic(
                    self, node,
                    f"access to PagedFile internal '.{node.attr}' outside "
                    f"repro.storage bypasses the I/O accounting")


class _NamesImports:
    """Which local names refer to the metric-name registry."""

    def __init__(self, tree: ast.Module) -> None:
        #: Local aliases bound to the names *module* itself.
        self.module_aliases: Set[str] = set()
        #: Local names bound to individual constants from the module.
        self.constant_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == NAMES_MODULE:
                    for alias in node.names:
                        self.constant_aliases.add(
                            alias.asname or alias.name)
                elif node.module is not None and \
                        NAMES_MODULE.startswith(node.module + "."):
                    tail = NAMES_MODULE[len(node.module) + 1:]
                    for alias in node.names:
                        if alias.name == tail:
                            self.module_aliases.add(
                                alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == NAMES_MODULE:
                        self.module_aliases.add(
                            alias.asname or alias.name)

    def sanctions(self, arg: ast.expr) -> bool:
        """True when ``arg`` provably comes from the names registry."""
        if isinstance(arg, ast.Name):
            return arg.id in self.constant_aliases
        if isinstance(arg, ast.Attribute):
            base = _dotted(arg.value)
            return base is not None and (
                base in self.module_aliases or base == NAMES_MODULE)
        return False


@register
class MetricHygieneRule(ModuleRule):
    """RPR002: metric names are constants from ``repro.obs.names``.

    A typo'd literal at a ``counter()`` call does not fail — it creates
    a silent new series and the dashboards read zero.  Forcing every
    name through the registry module makes the typo an undefined-name
    error instead.
    """

    code = "RPR002"
    name = "metric-hygiene"
    summary = ("metric names passed to counter()/gauge()/histogram()/"
               "value() must be constants imported from repro.obs.names")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.module == NAMES_MODULE:
            return
        imports = _NamesImports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in METRIC_METHODS:
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if imports.sanctions(arg):
                continue
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield ctx.diagnostic(
                    self, arg,
                    f"literal metric name {arg.value!r}; import the "
                    f"constant from repro.obs.names (a typo here creates "
                    f"a silent new series)")
            else:
                yield ctx.diagnostic(
                    self, arg,
                    f"metric name passed to {node.func.attr}() is not a "
                    f"constant from repro.obs.names")


@register
class UnusedMetricNameRule(ProjectRule):
    """RPR002 (project half): every registered name is used somewhere.

    A constant nobody references is a dead series: it either outlived
    its instrument or was added speculatively.  Either way the registry
    stops being the ground truth, so the rule makes removal mandatory.
    """

    code = "RPR007"
    name = "unused-metric-name"
    summary = ("every constant registered in repro.obs.names must be "
               "referenced by some module")

    def check_project(self, modules: Sequence[ModuleContext]
                      ) -> Iterator[Diagnostic]:
        names_ctx = next((m for m in modules if m.module == NAMES_MODULE),
                         None)
        if names_ctx is None:
            return
        constants: Dict[str, ast.stmt] = {}
        for stmt in names_ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and \
                            target.id.isupper():
                        constants[target.id] = stmt
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name) and \
                    stmt.target.id.isupper():
                constants[stmt.target.id] = stmt
        if not constants:
            return
        used: Set[str] = set()
        for ctx in modules:
            if ctx.module == NAMES_MODULE:
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Name) and node.id in constants:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and \
                        node.attr in constants:
                    used.add(node.attr)
        for constant, stmt in sorted(constants.items()):
            if constant not in used:
                yield names_ctx.diagnostic(
                    self, stmt,
                    f"registered metric name {constant} is never used; "
                    f"remove it or instrument the code that should "
                    f"report it")


@register
class TimingDisciplineRule(ModuleRule):
    """RPR004: elapsed time is measured with a monotonic clock.

    ``time.time()`` is wall-clock: NTP slews, DST and manual changes
    move it, so an elapsed-time difference can be negative or wildly
    wrong — exactly the kind of silent mismeasurement the accounting
    layer exists to prevent.  ``time.perf_counter()`` is monotonic.
    (The seed violation: ``repro/cli.py`` timed experiment runs with
    ``time.time()`` until this rule shipped.)
    """

    code = "RPR004"
    name = "timing-discipline"
    summary = ("time.time() is forbidden for timing; use "
               "time.perf_counter() (pragma a line that genuinely needs "
               "wall-clock timestamps)")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        time_aliases: Set[str] = set()
        func_aliases: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name == "time":
                            func_aliases.add(alias.asname or "time")
        if not time_aliases and not func_aliases:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            flagged = False
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "time":
                receiver = _dotted(node.func.value)
                flagged = receiver in time_aliases
            elif isinstance(node.func, ast.Name):
                flagged = node.func.id in func_aliases
            if flagged:
                yield ctx.diagnostic(
                    self, node,
                    "time.time() measures wall-clock, which can jump; "
                    "use time.perf_counter() for elapsed time")


def _identifiers(node: ast.expr) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _mentions_dov_or_eta(node: ast.expr) -> bool:
    for identifier in _identifiers(node):
        segments = identifier.lower().split("_")
        if "dov" in segments or "eta" in segments:
            return True
    return False


def _is_zero_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and \
        not isinstance(node.value, bool) and node.value == 0


@register
class FloatEqualityRule(ModuleRule):
    """RPR005: no ``==``/``!=`` on DoV/eta values except zero-guards.

    DoV and eta are floats produced by ray sampling and solid-angle
    integration; two mathematically equal values rarely compare equal
    bit-for-bit, so ``==`` silently mis-classifies.  The one sanctioned
    exception is comparison against literal zero: invisibility is
    *stored* as exact 0.0 (the paper's line-3 prune), so a zero-guard
    is an identity test, not a numeric one.
    """

    code = "RPR005"
    name = "dov-float-equality"
    summary = ("direct ==/!= on DoV/eta expressions is forbidden except "
               "against literal zero; use math.isclose or an explicit "
               "tolerance")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if not (_mentions_dov_or_eta(left)
                        or _mentions_dov_or_eta(right)):
                    continue
                if _is_zero_constant(left) or _is_zero_constant(right):
                    continue
                yield ctx.diagnostic(
                    self, node,
                    "floating-point ==/!= on a DoV/eta expression; only "
                    "zero-guards are exact (invisibility is stored as "
                    "0.0) — use math.isclose or an explicit tolerance")


@register
class SilentExceptionRule(ModuleRule):
    """RPR008: no silent exception swallowing outside the fault boundary.

    PR 3 introduced a layer whose *purpose* is to absorb storage
    failures — which makes a stray ``except: pass`` anywhere else twice
    as dangerous: it looks like resilience but is actually a dropped
    error with no retry, no degradation and no metric.  Swallowing is
    therefore confined to the designated fault-boundary modules
    (``repro.storage.faults``, ``repro.storage.retry``); everywhere else
    an exception must be handled, transmuted or re-raised.  Bare
    ``except:`` is flagged regardless of body — it catches
    ``KeyboardInterrupt``/``SystemExit`` too, which no library code
    should intercept.
    """

    code = "RPR008"
    name = "silent-exception"
    summary = ("silent exception swallowing (except-pass or bare except) "
               "is only allowed in the designated fault-boundary modules "
               "repro.storage.faults / repro.storage.retry")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.module in FAULT_BOUNDARY_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.diagnostic(
                    self, node,
                    "bare 'except:' catches KeyboardInterrupt and "
                    "SystemExit; name the exceptions (and handle them)")
            elif self._is_silent(node.body):
                yield ctx.diagnostic(
                    self, node,
                    "exception caught and silently dropped; handle it, "
                    "transmute it, or move the swallow into a "
                    "fault-boundary module (repro.storage.faults/retry)")

    @staticmethod
    def _is_silent(body: Sequence[ast.stmt]) -> bool:
        """True when the handler does nothing observable: only ``pass``,
        ``...`` and bare string constants (comments in statement form)."""
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and \
                    isinstance(stmt.value, ast.Constant) and \
                    (stmt.value.value is Ellipsis
                     or isinstance(stmt.value.value, str)):
                continue
            return False
        return True


#: Typing-container names that are meaningless without parameters under
#: ``mypy --strict`` (``disallow_any_generics``).
_BARE_GENERICS = frozenset({
    "list", "dict", "set", "tuple", "frozenset", "type",
    "List", "Dict", "Set", "Tuple", "FrozenSet", "Type",
    "Sequence", "Iterable", "Iterator", "Mapping", "MutableMapping",
    "Callable", "Generator", "Optional", "Union",
})


@register
class TypingRatchetRule(ModuleRule):
    """RPR006: strict packages stay fully annotated.

    The mypy strict gate runs in CI, where mypy is installed; this rule
    is the container-local ratchet that catches the two highest-volume
    strict failures (missing annotations, bare generics) without any
    third-party dependency, so a PR authored offline cannot silently
    regress the typed core.
    """

    code = "RPR006"
    name = "typing-ratchet"
    summary = ("functions in the strict-typed packages must annotate "
               "every parameter and the return type, with no bare "
               "generics")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if not any(ctx.in_package(pkg) for pkg in STRICT_PACKAGES):
            return
        parents = _parent_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_def(ctx, node, parents)
            elif isinstance(node, ast.AnnAssign):
                for bare in self._bare_generics(node.annotation):
                    yield ctx.diagnostic(
                        self, bare,
                        f"bare generic {ast.unparse(bare)!r} in variable "
                        f"annotation; parameterize it "
                        f"(disallow_any_generics)")

    def _check_def(self, ctx: ModuleContext, func: ast.AST,
                   parents: Dict[ast.AST, ast.AST]
                   ) -> Iterator[Diagnostic]:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = func.args
        positional = list(args.posonlyargs) + list(args.args)
        skip_first = isinstance(parents.get(func), ast.ClassDef) and \
            not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in func.decorator_list)
        for index, arg in enumerate(positional):
            if index == 0 and skip_first:
                continue
            if arg.annotation is None:
                yield ctx.diagnostic(
                    self, arg,
                    f"parameter {arg.arg!r} of {func.name}() is "
                    f"unannotated (strict-typed package)")
        for arg in args.kwonlyargs:
            if arg.annotation is None:
                yield ctx.diagnostic(
                    self, arg,
                    f"parameter {arg.arg!r} of {func.name}() is "
                    f"unannotated (strict-typed package)")
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                yield ctx.diagnostic(
                    self, vararg,
                    f"parameter {vararg.arg!r} of {func.name}() is "
                    f"unannotated (strict-typed package)")
        if func.returns is None:
            yield ctx.diagnostic(
                self, func,
                f"{func.name}() has no return annotation "
                f"(strict-typed package)")
        for annotation in self._annotations(func):
            for bare in self._bare_generics(annotation):
                yield ctx.diagnostic(
                    self, bare,
                    f"bare generic {ast.unparse(bare)!r} in annotation "
                    f"of {func.name}(); parameterize it "
                    f"(disallow_any_generics)")

    def _annotations(self, func: ast.AST) -> Iterator[ast.expr]:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = func.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)
                    + [a for a in (args.vararg, args.kwarg)
                       if a is not None]):
            if arg.annotation is not None:
                yield arg.annotation
        if func.returns is not None:
            yield func.returns

    def _bare_generics(self, annotation: ast.expr) -> Iterator[ast.expr]:
        # A Name is "bare" when it is not the value side of a Subscript
        # (``List`` alone vs ``List[int]``).  String annotations are
        # parsed and recursed into.
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            try:
                parsed = ast.parse(annotation.value, mode="eval")
            except SyntaxError:
                return
            yield from self._bare_generics(parsed.body)
            return
        subscript_values: Set[int] = set()
        for node in ast.walk(annotation):
            if isinstance(node, ast.Subscript):
                subscript_values.add(id(node.value))
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name) and \
                    node.id in _BARE_GENERICS and \
                    id(node) not in subscript_values:
                yield node
            elif isinstance(node, ast.Attribute) and \
                    node.attr in _BARE_GENERICS and \
                    id(node) not in subscript_values and \
                    _dotted(node) in {"typing." + node.attr,
                                      "t." + node.attr}:
                yield node


@register
class VPageCodecBoundaryRule(ModuleRule):
    """RPR014: V-page bytes are decoded only inside the codec module.

    PR 9 made the V-page byte layout *versioned* (raw pages vs the
    packed delta stream).  A direct ``encode_vpage``/``decode_vpage``
    call outside :mod:`repro.storage.vpagecodec` hard-codes the raw
    layout: it reads garbage the moment the environment is built with
    the packed codec, and it bypasses the codec's corruption checks
    (CRC, version byte, bounds).  Schemes and tools must go through a
    :class:`VPageCodec`; only the codec module and the serializer that
    owns the raw byte format may call the raw functions.
    """

    code = "RPR014"
    name = "vpage-codec-boundary"
    summary = ("encode_vpage/decode_vpage may only be called (or "
               "imported) inside repro.storage.vpagecodec and "
               "repro.storage.serializer; go through a VPageCodec")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.module in VPAGE_CODEC_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in VPAGE_CODEC_FUNCTIONS:
                        yield ctx.diagnostic(
                            self, node,
                            f"import of {alias.name} outside the V-page "
                            f"codec module hard-codes the raw byte "
                            f"layout; read/write V-pages through a "
                            f"repro.storage.vpagecodec.VPageCodec")
            elif isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                if name in VPAGE_CODEC_FUNCTIONS:
                    yield ctx.diagnostic(
                        self, node,
                        f"direct {name}() call outside the V-page codec "
                        f"module; V-page bytes are versioned — decode "
                        f"them through the scheme's VPageCodec so the "
                        f"packed layout and its corruption checks apply")


@register
class HttpTimingBoundaryRule(ModuleRule):
    """RPR009: only the timing middleware reads clocks in the front-end.

    The traffic harness promises that everything in a report except
    wall-clock latency is a pure function of the request sequence —
    byte-identical across machines for a fixed seed.  That promise only
    holds if no handler, stats aggregator or parser under
    ``repro.serving.http`` reads a clock: one stray ``perf_counter()``
    folded into a response body silently poisons the deterministic
    section.  All timing therefore lives in exactly one module, the
    middleware, which measures each request once and hands finished
    durations to the clock-free collector.
    """

    code = "RPR009"
    name = "http-timing-boundary"
    summary = ("clock reads (time.time/perf_counter/monotonic/...) are "
               "forbidden under repro.serving.http outside the timing "
               "middleware; measure once in the middleware and pass "
               "durations down")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if not ctx.in_package(HTTP_PACKAGE):
            return
        if ctx.module == HTTP_TIMING_MODULE:
            return
        time_aliases: Set[str] = set()
        func_aliases: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in CLOCK_FUNCTIONS:
                            func_aliases.add(alias.asname or alias.name)
        if not time_aliases and not func_aliases:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            flagged = False
            clock = None
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in CLOCK_FUNCTIONS:
                receiver = _dotted(node.func.value)
                if receiver in time_aliases:
                    flagged = True
                    clock = f"time.{node.func.attr}"
            elif isinstance(node.func, ast.Name) and \
                    node.func.id in func_aliases:
                flagged = True
                clock = node.func.id
            if flagged:
                yield ctx.diagnostic(
                    self, node,
                    f"{clock}() inside repro.serving.http but outside "
                    f"the timing middleware; the front-end's "
                    f"deterministic-report promise requires all clock "
                    f"reads to live in {HTTP_TIMING_MODULE}")
