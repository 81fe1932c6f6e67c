"""The rule tuple, and the rules that are not name boundaries.

Each rule encodes an invariant that a past bug (PR 1's I/O-accounting
fixes) or a structural decision (the observability layer) established,
so the next change cannot silently reintroduce the bug class.  DESIGN.md
§8 holds the audit behind every rule — what it has caught, the seeded
defects only it catches; this module and :mod:`~repro.analysis.boundary`
are the executable form.

All rules are heuristic AST checks, not type-resolved analyses: they
name-match methods and identifiers.  When a rule misfires on legitimate
code, suppress that line with ``# repro: ignore[RPR###]`` and say why in
the adjacent comment — the pragma is part of the audit trail.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.boundary import BOUNDARIES
from repro.analysis.context import ModuleContext, Rule, dotted, unquoted
from repro.analysis.diagnostics import Diagnostic

#: Packages held to the strict typing bar: RPR006 here, the strict
#: ``[[tool.mypy.overrides]]`` of ``pyproject.toml`` in CI (a test holds
#: the two lists equal).
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

#: The module that defines the registry: it passes names through.
REGISTRY_MODULE = "repro.obs.metrics"

#: Modules whose *job* is absorbing and transmuting failures (RPR008).
#: Only here may an exception be caught and deliberately dropped.
FAULT_BOUNDARY_MODULES = frozenset({
    "repro.storage.faults",
    "repro.storage.retry",
})

#: Modules whose reports promise byte-determinism (RPR013).  A module
#: outside this set can opt in with a top-level ``DETERMINISTIC_REPORT =
#: True`` marker.
DETERMINISTIC_MODULES = frozenset({
    "repro.obs.chaos",
    "repro.obs.profile",
    "repro.serving.service",
    "repro.visibility.dov",
})

#: Marker name for per-module RPR013 opt-in.
DETERMINISTIC_MARKER = "DETERMINISTIC_REPORT"

#: Filesystem enumerators whose order is OS-dependent (RPR013).
_FS_ENUMERATORS = frozenset({"os.listdir", "os.scandir", "glob.glob",
                             "glob.iglob"})

#: Registry methods that take a metric name as first argument.
METRIC_METHODS = frozenset({"counter", "gauge", "histogram", "value",
                            "total", "series"})


class MetricHygieneRule(Rule):
    """RPR002: metric names are constants from ``repro.obs.names``.

    A typo'd literal at a ``counter()`` call does not fail — it creates
    a silent new series and the dashboards read zero.  Forcing every
    name through the registry module makes the typo an undefined-name
    error instead.
    """

    code = "RPR002"
    name = "metric-hygiene"
    summary = ("metric names passed to counter()/gauge()/histogram()/"
               "value()/total()/series() must be constants imported from "
               "repro.obs.names")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.module in (NAMES_MODULE, REGISTRY_MODULE):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in METRIC_METHODS:
                continue
            if not node.args:
                continue
            arg = node.args[0]
            origin = ctx.imports.resolve(arg)
            if origin is not None and origin.startswith(NAMES_MODULE + "."):
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


class UnusedMetricNameRule(Rule):
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
            for node in ctx.nodes:
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


class FloatEqualityRule(Rule):
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
        for node in ctx.nodes:
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


class SilentExceptionRule(Rule):
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
        for node in ctx.nodes:
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


class TypingRatchetRule(Rule):
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
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_def(ctx, node)
            elif isinstance(node, ast.AnnAssign):
                for bare in self._bare_generics(ctx, node.annotation):
                    yield ctx.diagnostic(
                        self, bare,
                        f"bare generic {ast.unparse(bare)!r} in variable "
                        f"annotation; parameterize it "
                        f"(disallow_any_generics)")

    def _check_def(self, ctx: ModuleContext, func: ast.AST
                   ) -> Iterator[Diagnostic]:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = func.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a is not None)]
        is_method = isinstance(ctx.parents.get(func), ast.ClassDef) and \
            not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in func.decorator_list)
        receiver = (args.posonlyargs + args.args)[:1] if is_method else []
        for arg in params:
            if arg.annotation is None and arg not in receiver:
                yield ctx.diagnostic(
                    self, arg,
                    f"parameter {arg.arg!r} of {func.name}() is "
                    f"unannotated (strict-typed package)")
        if func.returns is None:
            yield ctx.diagnostic(
                self, func,
                f"{func.name}() has no return annotation "
                f"(strict-typed package)")
        for annotation in [*(arg.annotation for arg in params),
                           func.returns]:
            if annotation is None:
                continue
            for bare in self._bare_generics(ctx, annotation):
                yield ctx.diagnostic(
                    self, bare,
                    f"bare generic {ast.unparse(bare)!r} in annotation "
                    f"of {func.name}(); parameterize it "
                    f"(disallow_any_generics)")

    def _bare_generics(self, ctx: ModuleContext, annotation: ast.expr
                       ) -> Iterator[ast.expr]:
        # A Name is "bare" when it is not the value side of a Subscript
        # (``List`` alone vs ``List[int]``); a string annotation is read
        # as what it spells.
        spelled = unquoted(annotation)
        if spelled is None:
            return
        nodes = list(ast.walk(spelled))
        subscripted = {id(node.value) for node in nodes
                       if isinstance(node, ast.Subscript)}
        for node in nodes:
            if id(node) in subscripted:
                continue
            if isinstance(node, ast.Name) and node.id in _BARE_GENERICS:
                yield node
            elif isinstance(node, ast.Attribute) and \
                    node.attr in _BARE_GENERICS and \
                    ctx.imports.resolve(node) == "typing." + node.attr:
                yield node


def _annotation_names(annotation: ast.expr) -> Set[str]:
    """Every identifier mentioned in an annotation (``Dict[int, PagedFile]``
    yields ``{"Dict", "int", "PagedFile"}``), string annotations included."""
    names: Set[str] = set()
    spelled = unquoted(annotation)
    for node in ast.walk(spelled) if spelled is not None else ():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


class DeterminismHygieneRule(Rule):
    """RPR013: no unordered iteration feeding byte-deterministic reports.

    The repo's reports are diffed byte-for-byte in CI (chaos, serve,
    precompute), which a single unsorted ``set`` iteration or
    ``os.listdir`` breaks only *sometimes* — the worst kind of flake.
    In modules declared byte-deterministic (``DETERMINISTIC_MODULES`` or
    a ``DETERMINISTIC_REPORT = True`` marker), iterating a set-typed
    value or an OS directory enumeration without ``sorted()`` is a
    violation.  Plain dict iteration is allowed: insertion order is a
    language guarantee the reports already rely on.
    """

    code = "RPR013"
    name = "determinism-hygiene"
    summary = ("in byte-deterministic modules, set iteration and "
               "filesystem enumeration (os.listdir/glob/scandir/iterdir) "
               "must go through sorted()")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if not self._applies(ctx):
            return
        set_names = self._set_names(ctx)
        for node in ctx.nodes:
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                iters.extend(self._consumed_iterables(node))
            for candidate in iters:
                reason = self._unordered(ctx, candidate, set_names)
                if reason is not None:
                    yield ctx.diagnostic(
                        self, candidate,
                        f"iteration over {reason} in a byte-deterministic "
                        f"module; wrap it in sorted(...) so report bytes "
                        f"cannot depend on hash or filesystem order")

    @staticmethod
    def _applies(ctx: ModuleContext) -> bool:
        if ctx.module in DETERMINISTIC_MODULES:
            return True
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and \
                            target.id == DETERMINISTIC_MARKER:
                        return True
        return False

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            return name in ("set", "frozenset")
        return False

    def _set_names(self, ctx: ModuleContext) -> Set[str]:
        """Names and attribute chains (``seen``, ``self.routes``) bound to
        a set expression or annotated as sets, module wide
        (flow-insensitive on purpose: cheap and good enough).  A set
        annotated in a class body is a field: it is read as ``self.x``."""
        names: Set[str] = set()
        set_markers = {"Set", "FrozenSet", "set", "frozenset",
                       "MutableSet", "AbstractSet"}
        for node in ctx.nodes:
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value):
                names.update(filter(None, map(dotted, node.targets)))
            elif isinstance(node, ast.AnnAssign):
                written = dotted(node.target)
                if written is not None and \
                        _annotation_names(node.annotation) & set_markers:
                    names.add(written)
                    if isinstance(ctx.parents.get(node), ast.ClassDef):
                        names.add("self." + written)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in (list(node.args.posonlyargs)
                            + list(node.args.args)
                            + list(node.args.kwonlyargs)):
                    if arg.annotation is not None and \
                            _annotation_names(arg.annotation) & set_markers:
                        names.add(arg.arg)
        return names

    def _consumed_iterables(self, call: ast.Call) -> List[ast.expr]:
        """Arguments whose iteration order flows into the output:
        ``list(x)``, ``tuple(x)``, ``sep.join(x)``."""
        func = call.func
        if isinstance(func, ast.Name) and func.id in ("list", "tuple") \
                and call.args:
            return [call.args[0]]
        if isinstance(func, ast.Attribute) and func.attr == "join" and \
                call.args:
            return [call.args[0]]
        return []

    def _unordered(self, ctx: ModuleContext, node: ast.expr,
                   set_names: Set[str]) -> Optional[str]:
        if self._is_set_expr(node):
            return "a set expression"
        written = dotted(node)
        if written in set_names:
            return f"set-typed name {written!r}"
        if isinstance(node, ast.Call):
            origin = ctx.imports.resolve(node.func)
            if origin in _FS_ENUMERATORS:
                return f"{origin}() (filesystem order)"
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "iterdir":
                return "Path.iterdir() (filesystem order)"
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "scandir":
                return "os.scandir() (filesystem order)"
        return None


#: Every rule ``repro lint`` runs, sorted by code.  Adding one is a row
#: in ``BOUNDARIES`` or a class here, plus three seeds in
#: ``tests/test_analysis_rules.py`` that only it catches.
RULES: Tuple[Rule, ...] = tuple(sorted(
    (*BOUNDARIES, MetricHygieneRule(), FloatEqualityRule(),
     TypingRatchetRule(), UnusedMetricNameRule(), SilentExceptionRule(),
     DeterminismHygieneRule()),
    key=lambda rule: rule.code))
