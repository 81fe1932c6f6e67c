"""Lock-discipline and determinism lint rules (``RPR011``, ``RPR013``).

RPR011 rests on a per-class *lock model*: which attributes are locks
(created in ``__init__`` from ``threading.Lock`` / ``RLock``), which
statements run under ``with self._lock:``, and — through an intra-class
fixpoint — which private helper methods execute *only* from locked
contexts (``_evict_one`` has no ``with`` of its own, but every caller
holds the pool lock, so its body is lock-held code).

Like the PR-2 rules these are heuristic AST analyses, not a type
checker.  Misfires are suppressed with ``# repro: ignore[RPR###]`` plus
a one-line justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import ModuleContext, ModuleRule, register
from repro.analysis.rules import _dotted, _parent_map

#: ``threading`` factories whose result makes an ``__init__``-assigned
#: attribute a lock.
LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: Modules whose reports promise byte-determinism (RPR013).  A module
#: outside this set can opt in with a top-level ``DETERMINISTIC_REPORT =
#: True`` marker.
DETERMINISTIC_MODULES = frozenset({
    "repro.analysis.baseline",
    "repro.obs.chaos",
    "repro.obs.profile",
    "repro.serving.http.stats",
    "repro.serving.loadgen",
    "repro.serving.service",
    "repro.visibility.cache",
    "repro.visibility.persist",
})

#: Marker name for per-module RPR013 opt-in.
DETERMINISTIC_MARKER = "DETERMINISTIC_REPORT"

#: Filesystem enumerators whose order is OS-dependent (RPR013).
_FS_ENUMERATORS = frozenset({"os.listdir", "os.scandir", "glob.glob",
                             "glob.iglob"})


# ---------------------------------------------------------------------------
# The lock model: per-class extraction behind RPR011
# ---------------------------------------------------------------------------

@dataclass
class _CallSite:
    """One ``self.<method>()`` call inside a method body."""

    method: str
    under_lock: bool                 #: lexically inside ``with self._lock:``


@dataclass
class _Mutation:
    """An assignment whose target is rooted at a ``self`` attribute."""

    node: ast.AST
    attr: str                        #: the ``self.<attr>`` being mutated
    rebinding: bool                  #: ``self.attr = ...`` vs ``self.attr[k] = ...``
    under_lock: bool


@dataclass
class _MethodModel:
    """Lock-relevant facts about one method."""

    name: str
    calls: List[_CallSite] = field(default_factory=list)
    mutations: List[_Mutation] = field(default_factory=list)


@dataclass
class _ClassModel:
    """Lock-relevant facts about one class."""

    name: str
    lock_attrs: Set[str] = field(default_factory=set)
    methods: Dict[str, _MethodModel] = field(default_factory=dict)
    #: methods whose bodies execute only from lock-held call sites
    locked_context: Set[str] = field(default_factory=set)


def _annotation_names(annotation: ast.expr) -> Set[str]:
    """Every identifier mentioned in an annotation (``Dict[int, PagedFile]``
    yields ``{"Dict", "int", "PagedFile"}``); string annotations are
    parsed and recursed into."""
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        try:
            parsed = ast.parse(annotation.value, mode="eval")
        except SyntaxError:
            return set()
        return _annotation_names(parsed.body)
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _is_lock_factory_call(node: ast.expr) -> bool:
    """Does this expression (transitively) call ``threading.Lock()`` &co?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name in LOCK_FACTORIES:
                return True
    return False


def _self_attr(node: ast.expr) -> Optional[str]:
    """``attr`` when *node* is exactly ``self.<attr>``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _target_base_attr(target: ast.expr) -> Optional[Tuple[str, bool]]:
    """Resolve an assignment target rooted at ``self``.

    Returns ``(attr, rebinding)``: ``self.x = ...`` is a rebinding of
    ``x``; ``self.x[k] = ...`` / ``self.x.y = ...`` mutate the object
    held in ``x``.
    """
    rebinding = True
    node = target
    while True:
        attr = _self_attr(node)
        if attr is not None:
            return attr, rebinding
        if isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
            rebinding = False
            continue
        return None


def _build_class_model(class_node: ast.ClassDef) -> Optional[_ClassModel]:
    """Extract the lock model; None when the class owns no locks."""
    model = _ClassModel(name=class_node.name)

    init = next((stmt for stmt in class_node.body
                 if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and stmt.name == "__init__"), None)
    if init is not None:
        for node in ast.walk(init):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None and _is_lock_factory_call(node.value):
                        model.lock_attrs.add(attr)
            elif isinstance(node, ast.AnnAssign):
                attr = _self_attr(node.target)
                if attr is not None and node.value is not None and \
                        _is_lock_factory_call(node.value):
                    model.lock_attrs.add(attr)

    if not model.lock_attrs:
        return None

    for stmt in class_node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.methods[stmt.name] = _build_method_model(model, stmt)

    _compute_locked_context(model)
    return model


def _build_method_model(model: _ClassModel, func: ast.AST) -> _MethodModel:
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    method = _MethodModel(name=func.name)

    lock_withs: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _self_attr(item.context_expr) in model.lock_attrs:
                    lock_withs.add(id(node))

    parents = _parent_map(func)

    def under_lock(node: ast.AST) -> bool:
        current: Optional[ast.AST] = node
        while current is not None and current is not func:
            parent = parents.get(current)
            if isinstance(parent, (ast.With, ast.AsyncWith)) and \
                    id(parent) in lock_withs and \
                    not isinstance(current, ast.withitem):
                return True
            current = parent
        return False

    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = _self_attr(node.func)
            if callee is not None:
                method.calls.append(_CallSite(
                    method=callee, under_lock=under_lock(node)))

    targets: List[Tuple[ast.AST, ast.expr]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets.extend((node, t) for t in node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if not (isinstance(node, ast.AnnAssign) and node.value is None):
                targets.append((node, node.target))
        elif isinstance(node, ast.Delete):
            targets.extend((node, t) for t in node.targets)
    for stmt_node, target in targets:
        resolved = _target_base_attr(target)
        if resolved is None:
            continue
        attr, rebinding = resolved
        if attr in model.lock_attrs:
            continue
        method.mutations.append(_Mutation(
            node=stmt_node, attr=attr, rebinding=rebinding,
            under_lock=under_lock(stmt_node)))
    return method


def _compute_locked_context(model: _ClassModel) -> None:
    """Fixpoint: a private helper called *only* from lock-held sites is
    itself lock-held code (``_evict_one`` has no ``with`` of its own)."""
    callers: Dict[str, List[Tuple[str, _CallSite]]] = {}
    for method in model.methods.values():
        for site in method.calls:
            if site.method in model.methods:
                callers.setdefault(site.method, []).append(
                    (method.name, site))

    changed = True
    while changed:
        changed = False
        for name, method in model.methods.items():
            if name in model.locked_context:
                continue
            if not name.startswith("_") or name.startswith("__"):
                continue
            sites = callers.get(name)
            if not sites:
                continue
            if all(site.under_lock or caller in model.locked_context
                   for caller, site in sites):
                model.locked_context.add(name)
                changed = True


def _effectively_locked(model: _ClassModel, method: _MethodModel,
                        site_under_lock: bool) -> bool:
    return site_under_lock or method.name in model.locked_context


def _lock_models(ctx: ModuleContext) -> List[_ClassModel]:
    models = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            model = _build_class_model(node)
            if model is not None:
                models.append(model)
    return models


# ---------------------------------------------------------------------------
# RPR011: guarded state is guarded everywhere
# ---------------------------------------------------------------------------

@register
class GuardedStateRule(ModuleRule):
    """RPR011: a field mutated under the class lock is never mutated
    outside it.

    If any method writes ``self.x`` inside ``with self._lock:`` (or from
    a helper that only runs under it), the lock is *the* guard for
    ``x`` — an unlocked write elsewhere is a data race even when it
    "only" resets state (the seed violation: ``PagedFile.reset_head``
    cleared ``_last_accessed`` without the I/O lock).  ``__init__`` is
    exempt: construction happens before the object is shared.
    """

    code = "RPR011"
    name = "guarded-state"
    summary = ("a self attribute mutated under 'with self._lock:' in any "
               "method must never be mutated without the lock elsewhere "
               "(construction in __init__ exempt)")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for model in _lock_models(ctx):
            guarded: Dict[str, str] = {}
            for method in model.methods.values():
                if method.name == "__init__":
                    continue
                for mutation in method.mutations:
                    if _effectively_locked(model, method,
                                           mutation.under_lock):
                        guarded.setdefault(mutation.attr, method.name)
            if not guarded:
                continue
            for method in model.methods.values():
                if method.name == "__init__":
                    continue
                for mutation in method.mutations:
                    if mutation.attr not in guarded:
                        continue
                    if _effectively_locked(model, method,
                                           mutation.under_lock):
                        continue
                    yield ctx.diagnostic(
                        self, mutation.node,
                        f"'self.{mutation.attr}' is lock-guarded state "
                        f"({model.name}.{guarded[mutation.attr]}() mutates "
                        f"it under the class lock) but is mutated here "
                        f"without holding the lock")


# ---------------------------------------------------------------------------
# RPR013: determinism hygiene in byte-deterministic report modules
# ---------------------------------------------------------------------------

@register
class DeterminismHygieneRule(ModuleRule):
    """RPR013: no unordered iteration feeding byte-deterministic reports.

    The repo's reports are diffed byte-for-byte in CI (chaos, serve,
    traffic, precompute), which a single unsorted ``set`` iteration or
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
        set_names = self._set_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                iters.extend(self._consumed_iterables(node))
            for candidate in iters:
                reason = self._unordered(candidate, set_names)
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

    def _set_names(self, tree: ast.Module) -> Set[str]:
        """Names bound to a set expression or annotated as sets, module
        wide (flow-insensitive on purpose: cheap and good enough)."""
        names: Set[str] = set()
        set_markers = {"Set", "FrozenSet", "set", "frozenset",
                       "MutableSet", "AbstractSet"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                if _annotation_names(node.annotation) & set_markers:
                    names.add(node.target.id)
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

    def _unordered(self, node: ast.expr,
                   set_names: Set[str]) -> Optional[str]:
        if self._is_set_expr(node):
            return "a set expression"
        if isinstance(node, ast.Name) and node.id in set_names:
            return f"set-typed name {node.id!r}"
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in _FS_ENUMERATORS:
                return f"{dotted}() (filesystem order)"
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "iterdir":
                return "Path.iterdir() (filesystem order)"
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "scandir":
                return "os.scandir() (filesystem order)"
        return None
