"""Lock-discipline and determinism lint rules (``RPR011``, ``RPR013``).

RPR011 rests on a per-class *lock model*: which attributes are locks
(created in ``__init__`` from ``threading.Lock`` / ``RLock``), which
statements run under ``with self._lock:``, and — through an intra-class
fixpoint — which private helper methods execute *only* from locked
contexts (``_evict_one`` has no ``with`` of its own, but every caller
holds the pool lock, so its body is lock-held code).

Like the other rules these are heuristic AST analyses, not a type
checker.  Misfires are suppressed with ``# repro: ignore[RPR###]`` plus
a one-line justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.context import (ModuleContext, Rule, dotted,
                                    unquoted)
from repro.analysis.diagnostics import Diagnostic

#: Factories whose result makes an ``__init__``-assigned attribute a
#: lock, by final name (``threading.RLock``, ``asyncio.Lock``).
LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: Container methods that change the object they are called on: calling
#: one on a guarded attribute is a mutation of it (RPR011).
MUTATING_METHODS = frozenset({
    "clear", "pop", "popitem", "append", "extend", "insert", "remove",
    "update", "add", "discard", "setdefault", "move_to_end",
})

#: Modules whose reports promise byte-determinism (RPR013).  A module
#: outside this set can opt in with a top-level ``DETERMINISTIC_REPORT =
#: True`` marker.
DETERMINISTIC_MODULES = frozenset({
    "repro.obs.chaos",
    "repro.obs.profile",
    "repro.serving.http.stats",
    "repro.serving.loadgen",
    "repro.serving.service",
    "repro.visibility.dov",
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
class _Mutation:
    """A statement or call that changes the object held in ``self.<attr>``:
    an assignment or ``del`` rooted there, or a mutating method call."""

    node: ast.AST
    method: str                      #: the method it happens in
    attr: str
    under_lock: bool                 #: lexically inside ``with self._lock:``


@dataclass
class _ClassModel:
    """Lock-relevant facts about one class."""

    name: str
    lock_attrs: Set[str] = field(default_factory=set)
    methods: Set[str] = field(default_factory=set)
    mutations: List[_Mutation] = field(default_factory=list)
    #: ``(caller, callee, under_lock)`` per ``self.<callee>()`` call
    calls: List[Tuple[str, str, bool]] = field(default_factory=list)
    #: methods whose bodies execute only from lock-held call sites
    locked_context: Set[str] = field(default_factory=set)

    def locked(self, mutation: _Mutation) -> bool:
        return mutation.under_lock or \
            mutation.method in self.locked_context


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


def _base_attr(target: ast.expr) -> Optional[str]:
    """The ``self`` attribute an expression is rooted at: ``x`` for
    ``self.x``, ``self.x[k]`` and ``self.x.y``; else ``None``."""
    node = target
    while True:
        attr = _self_attr(node)
        if attr is not None:
            return attr
        if not isinstance(node, (ast.Subscript, ast.Attribute)):
            return None
        node = node.value


def _build_class_model(class_node: ast.ClassDef) -> Optional[_ClassModel]:
    """Extract the lock model; None when the class owns no locks."""
    model = _ClassModel(name=class_node.name)
    functions = [stmt for stmt in class_node.body
                 if isinstance(stmt, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))]
    for init in functions:
        if init.name != "__init__":
            continue
        for node in ast.walk(init):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    node.value is not None and \
                    _is_lock_factory_call(node.value):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                model.lock_attrs.update(
                    attr for attr in map(_self_attr, targets)
                    if attr is not None)
    if not model.lock_attrs:
        return None
    for func in functions:
        model.methods.add(func.name)
        _scan_method(model, func)
    _compute_locked_context(model)
    return model


def _scan_method(model: _ClassModel, func: ast.AST) -> None:
    """Record ``func``'s ``self.<method>()`` calls and its mutations of
    ``self`` attributes, each with whether it sits under a class lock."""
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))

    def visit(node: ast.AST, under_lock: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                _self_attr(item.context_expr) in model.lock_attrs
                for item in node.items):
            for item in node.items:
                visit(item, under_lock)
            for stmt in node.body:
                visit(stmt, True)
            return
        mutated: List[ast.expr] = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            mutated = list(node.targets)
        elif isinstance(node, ast.AugAssign) or (
                isinstance(node, ast.AnnAssign) and node.value is not None):
            mutated = [node.target]
        elif isinstance(node, ast.Call):
            callee = _self_attr(node.func)
            if callee is not None:
                model.calls.append((func.name, callee, under_lock))
            elif isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATING_METHODS:
                mutated = [node.func.value]
        for target in mutated:
            attr = _base_attr(target)
            if attr is not None and attr not in model.lock_attrs:
                model.mutations.append(
                    _Mutation(node, func.name, attr, under_lock))
        for child in ast.iter_child_nodes(node):
            visit(child, under_lock)

    visit(func, False)


def _compute_locked_context(model: _ClassModel) -> None:
    """Fixpoint: a private helper called *only* from lock-held sites is
    itself lock-held code (``_evict_one`` has no ``with`` of its own)."""
    callers: Dict[str, List[Tuple[str, bool]]] = {}
    for caller, callee, under_lock in model.calls:
        if callee in model.methods:
            callers.setdefault(callee, []).append((caller, under_lock))

    changed = True
    while changed:
        changed = False
        for name, sites in callers.items():
            if name in model.locked_context:
                continue
            if not name.startswith("_") or name.startswith("__"):
                continue
            if all(under_lock or caller in model.locked_context
                   for caller, under_lock in sites):
                model.locked_context.add(name)
                changed = True


# ---------------------------------------------------------------------------
# RPR011: guarded state is guarded everywhere
# ---------------------------------------------------------------------------

class GuardedStateRule(Rule):
    """RPR011: a field mutated under the class lock is never mutated
    outside it.

    If any method writes ``self.x`` — assigns it, deletes from it, or
    calls one of ``MUTATING_METHODS`` on it — inside ``with
    self._lock:`` (or from a helper that only runs under it), the lock
    is *the* guard for ``x`` — an unlocked write elsewhere is a data
    race even when it "only" resets state (the seed violation:
    ``PagedFile.reset_head`` cleared ``_last_accessed`` without the I/O
    lock).  ``__init__`` is exempt: construction happens before the
    object is shared.
    """

    code = "RPR011"
    name = "guarded-state"
    summary = ("a self attribute mutated under 'with self._lock:' in any "
               "method must never be mutated without the lock elsewhere "
               "(construction in __init__ exempt)")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            model = _build_class_model(node) \
                if isinstance(node, ast.ClassDef) else None
            if model is None:
                continue
            mutations = [m for m in model.mutations
                         if m.method != "__init__"]
            guarded: Dict[str, str] = {}
            for mutation in mutations:
                if model.locked(mutation):
                    guarded.setdefault(mutation.attr, mutation.method)
            for mutation in mutations:
                if mutation.attr in guarded and not model.locked(mutation):
                    yield ctx.diagnostic(
                        self, mutation.node,
                        f"'self.{mutation.attr}' is lock-guarded state "
                        f"({model.name}.{guarded[mutation.attr]}() mutates "
                        f"it under the class lock) but is mutated here "
                        f"without holding the lock")


# ---------------------------------------------------------------------------
# RPR013: determinism hygiene in byte-deterministic report modules
# ---------------------------------------------------------------------------

class DeterminismHygieneRule(Rule):
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
