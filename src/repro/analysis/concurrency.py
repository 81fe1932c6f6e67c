"""Concurrency lint rules (``RPR010``–``RPR013``) and the lock-graph model.

PR 5/6 made the serving stack genuinely concurrent and wrote the locking
rules into docstrings; these rules make them machine-checked.  The
declared lock lattice lives in :mod:`repro.concurrency.order` — the same
constant the runtime :class:`~repro.concurrency.witness.LockOrderWitness`
enforces — so the static and dynamic checkers cannot drift apart.

The shared infrastructure here is a per-class *lock model*: which
attributes are locks (created in ``__init__`` from ``threading.Lock`` /
``RLock``, possibly via :func:`repro.concurrency.witness.wrap_lock`),
which statements run under ``with self._lock:``, and — through an
intra-class fixpoint — which private helper methods execute *only* from
locked contexts (``_evict_one`` has no ``with`` of its own, but every
caller holds the pool lock, so its body is lock-held code).

Like the PR-2 rules these are heuristic AST analyses, not a type
checker.  Cross-class call resolution is annotation-first: a receiver
whose annotation names a lock-owning class resolves to that class; an
unannotated receiver falls back to name matching, but only for method
names that are *distinctive* (not ``get``/``pop``/``items``/... — the
builtin-container vocabulary would otherwise make ``self._mem.get()``
look like ``BufferPool.get()``).  Misfires are suppressed with
``# repro: ignore[RPR###]`` plus a one-line justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import (ModuleContext, ModuleRule, ProjectRule,
                                     register)
from repro.analysis.rules import _dotted, _parent_map
from repro.concurrency.order import BLOCKING_ALLOWED, LATTICE

#: Class attribute declaring a lock's lattice level (``LOCK_LEVEL = ...``).
LOCK_LEVEL_ATTR = "LOCK_LEVEL"

#: ``threading`` factories whose result (possibly wrapped) makes an
#: ``__init__``-assigned attribute a lock.
LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: Method names too generic for name-match call resolution: they are the
#: builtin container/IO vocabulary, so an unannotated ``x.get()`` must
#: not resolve to ``BufferPool.get()``.  Annotation-driven resolution is
#: unaffected — an annotated receiver resolves regardless of the name.
GENERIC_METHOD_NAMES = frozenset({
    "acquire", "add", "append", "clear", "close", "copy", "count", "dec",
    "discard", "extend", "flush", "get", "inc", "index", "insert", "items",
    "join", "keys", "notify", "notify_all", "observe", "open", "pop",
    "popitem", "popleft", "put", "read", "release", "remove", "reset",
    "reverse", "seek", "set", "setdefault", "sort", "split", "strip",
    "update", "values", "wait", "write",
})

#: Calls that block (physical page I/O, fsync, sockets, sleeps) and are
#: therefore forbidden while holding a lock — except at lattice levels in
#: :data:`~repro.concurrency.order.BLOCKING_ALLOWED`, whose locks exist
#: precisely to serialize that blocking work (RPR012).
BLOCKING_CALL_NAMES = frozenset({
    "read_page", "write_page", "append_page", "read_run",
    "fsync", "fdatasync", "sleep",
    "recv", "recvfrom", "recv_into", "send", "sendall", "sendto",
    "accept", "connect", "select", "wait",
})

#: Modules whose reports promise byte-determinism (RPR013).  A module
#: outside this set can opt in with a top-level ``DETERMINISTIC_REPORT =
#: True`` marker.
DETERMINISTIC_MODULES = frozenset({
    "repro.analysis.baseline",
    "repro.concurrency.witness",
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
# The lock model: per-class extraction shared by RPR010/011/012
# ---------------------------------------------------------------------------

@dataclass
class _CallSite:
    """One call expression inside a method body."""

    node: ast.Call
    method: str                      #: called attribute/function name
    receiver: Optional[ast.expr]     #: ``x`` in ``x.f()``; None for ``f()``
    is_self_call: bool               #: ``self.f()``
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
    node: ast.AST
    acquires: bool = False           #: contains ``with self.<lock_attr>:``
    calls: List[_CallSite] = field(default_factory=list)
    mutations: List[_Mutation] = field(default_factory=list)
    #: parameter/local name -> identifier names in its annotation
    annotations: Dict[str, Set[str]] = field(default_factory=dict)


@dataclass
class _ClassModel:
    """Lock-relevant facts about one class."""

    ctx: ModuleContext
    node: ast.ClassDef
    name: str
    level: Optional[str] = None
    level_node: Optional[ast.AST] = None
    lock_attrs: Set[str] = field(default_factory=set)
    methods: Dict[str, _MethodModel] = field(default_factory=dict)
    #: ``self.<attr>`` -> identifier names in its declared annotation
    attr_annotations: Dict[str, Set[str]] = field(default_factory=dict)
    #: methods whose bodies execute only from lock-held call sites
    locked_context: Set[str] = field(default_factory=set)

    @property
    def qualname(self) -> str:
        module = self.ctx.module or self.ctx.path
        return f"{module}.{self.name}"


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
    """Does this expression (transitively) call ``threading.Lock()`` &co?

    Wrapping counts: ``wrap_lock(threading.RLock(), ...)`` assigns a
    lock.
    """
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


def _build_class_model(ctx: ModuleContext,
                       class_node: ast.ClassDef) -> Optional[_ClassModel]:
    """Extract the lock model; None when the class owns no locks."""
    model = _ClassModel(ctx=ctx, node=class_node, name=class_node.name)

    for stmt in class_node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and \
                        target.id == LOCK_LEVEL_ATTR and \
                        isinstance(stmt.value, ast.Constant) and \
                        isinstance(stmt.value.value, str):
                    model.level = stmt.value.value
                    model.level_node = stmt
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name) and \
                stmt.target.id == LOCK_LEVEL_ATTR and \
                stmt.value is not None and \
                isinstance(stmt.value, ast.Constant) and \
                isinstance(stmt.value.value, str):
            model.level = stmt.value.value
            model.level_node = stmt
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            model.attr_annotations[stmt.target.id] = \
                _annotation_names(stmt.annotation)

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
                if attr is not None:
                    model.attr_annotations[attr] = \
                        _annotation_names(node.annotation)
                    if node.value is not None and \
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
    method = _MethodModel(name=func.name, node=func)
    for arg in (list(func.args.posonlyargs) + list(func.args.args)
                + list(func.args.kwonlyargs)):
        if arg.annotation is not None:
            method.annotations[arg.arg] = _annotation_names(arg.annotation)

    lock_withs: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr in model.lock_attrs:
                    lock_withs.add(id(node))
                    method.acquires = True

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
            func_expr = node.func
            if isinstance(func_expr, ast.Attribute):
                receiver = func_expr.value
                is_self = isinstance(receiver, ast.Name) and \
                    receiver.id == "self"
                method.calls.append(_CallSite(
                    node=node, method=func_expr.attr, receiver=receiver,
                    is_self_call=is_self, under_lock=under_lock(node)))
            elif isinstance(func_expr, ast.Name):
                method.calls.append(_CallSite(
                    node=node, method=func_expr.id, receiver=None,
                    is_self_call=False, under_lock=under_lock(node)))
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            method.annotations[node.target.id] = \
                _annotation_names(node.annotation)

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
            if site.is_self_call and site.method in model.methods:
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
            model = _build_class_model(ctx, node)
            if model is not None:
                models.append(model)
    return models


# ---------------------------------------------------------------------------
# RPR010: interprocedural lock order against the declared lattice
# ---------------------------------------------------------------------------

@dataclass
class LockEdge:
    """One witnessed-by-the-AST acquisition: holder's lock -> target's."""

    holder: _ClassModel
    target: _ClassModel
    via: str                         #: ``holder_method -> callee`` path
    site: ast.AST
    ctx: ModuleContext


@dataclass
class LockGraph:
    """The statically inferred cross-class lock-acquisition graph."""

    classes: List[_ClassModel]
    edges: List[LockEdge]
    diagnostics: List[Diagnostic]

    def summary(self) -> Dict[str, object]:
        """Deterministic JSON-ready description (``repro locks``)."""
        by_level: Dict[str, List[str]] = {}
        for model in self.classes:
            by_level.setdefault(model.level or "(unleveled)",
                                []).append(model.qualname)
        edge_keys: Dict[Tuple[str, str, str], int] = {}
        for edge in self.edges:
            key = (edge.holder.qualname, edge.target.qualname, edge.via)
            edge_keys[key] = edge_keys.get(key, 0) + 1
        return {
            "lattice": list(LATTICE),
            "classes": {level: sorted(names)
                        for level, names in sorted(by_level.items())},
            "edges": [
                {"from": holder, "to": target, "via": via,
                 "sites": edge_keys[(holder, target, via)],
                 "from_level": self._level_of(holder),
                 "to_level": self._level_of(target)}
                for holder, target, via in sorted(edge_keys)
            ],
            "violations": sorted(
                f"{d.path}:{d.line}: {d.message}" for d in self.diagnostics),
        }

    def _level_of(self, qualname: str) -> Optional[str]:
        for model in self.classes:
            if model.qualname == qualname:
                return model.level
        return None


class _LockGraphBuilder:
    """Builds the acquisition graph from per-class models."""

    def __init__(self, rule: "LockOrderRule",
                 modules: Sequence[ModuleContext]) -> None:
        self.rule = rule
        self.models: List[_ClassModel] = []
        for ctx in modules:
            self.models.extend(_lock_models(ctx))
        self.by_name: Dict[str, List[_ClassModel]] = {}
        for model in self.models:
            self.by_name.setdefault(model.name, []).append(model)

    def _resolve(self, model: _ClassModel, method: _MethodModel,
                 site: _CallSite) -> List[_ClassModel]:
        """Lock classes a non-self call may dispatch to."""
        candidates = [m for m in self.models
                      if site.method in m.methods and m is not model]
        if not candidates:
            return []
        names = self._receiver_annotation(model, method, site.receiver)
        if names is not None:
            return [m for m in candidates if m.name in names]
        if site.method in GENERIC_METHOD_NAMES:
            return []
        return candidates

    def _receiver_annotation(self, model: _ClassModel, method: _MethodModel,
                             receiver: Optional[ast.expr]
                             ) -> Optional[Set[str]]:
        """Identifier names in the receiver's annotation, if declared."""
        node = receiver
        while isinstance(node, ast.Subscript):
            node = node.value
        if node is None:
            return None
        attr = _self_attr(node)
        if attr is not None:
            return model.attr_annotations.get(attr)
        if isinstance(node, ast.Name):
            return method.annotations.get(node.id)
        return None

    def _acquire_closure(self) -> Dict[Tuple[int, str], Set[int]]:
        """``(class, method) -> lock classes whose lock the call may take``,
        propagated to a fixpoint through self- and cross-class calls."""
        ids = {id(m): m for m in self.models}
        acq: Dict[Tuple[int, str], Set[int]] = {}
        for model in self.models:
            for method in model.methods.values():
                initial: Set[int] = {id(model)} if method.acquires else set()
                acq[(id(model), method.name)] = initial
        changed = True
        while changed:
            changed = False
            for model in self.models:
                for method in model.methods.values():
                    current = acq[(id(model), method.name)]
                    for site in method.calls:
                        if site.is_self_call:
                            extra = acq.get((id(model), site.method))
                        else:
                            extra = set()
                            for target in self._resolve(model, method, site):
                                extra |= acq.get(
                                    (id(target), site.method), set())
                        if extra and not extra <= current:
                            current |= extra
                            changed = True
        # Resolve ids back to models for the caller.
        return {key: {i for i in value if i in ids}
                for key, value in acq.items()}

    def build(self) -> LockGraph:
        ids = {id(m): m for m in self.models}
        acq = self._acquire_closure()
        edges: List[LockEdge] = []
        diagnostics: List[Diagnostic] = []

        for model in self.models:
            if model.level is not None and model.level not in LATTICE:
                diagnostics.append(model.ctx.diagnostic(
                    self.rule, model.level_node or model.node,
                    f"{model.name}.{LOCK_LEVEL_ATTR} is {model.level!r}, "
                    f"which is not a declared lattice level "
                    f"{' -> '.join(LATTICE)} (repro.concurrency.order)"))

        for model in self.models:
            for method in model.methods.values():
                for site in method.calls:
                    if not _effectively_locked(model, method,
                                               site.under_lock):
                        continue
                    acquired: Set[int] = set()
                    if site.is_self_call:
                        acquired |= {t for t in acq.get(
                            (id(model), site.method), set())
                            if t != id(model)}
                    else:
                        for target in self._resolve(model, method, site):
                            acquired |= {t for t in acq.get(
                                (id(target), site.method), set())
                                if t != id(model)}
                    for target_id in acquired:
                        target = ids[target_id]
                        edges.append(LockEdge(
                            holder=model, target=target,
                            via=f"{method.name} -> {site.method}",
                            site=site.node, ctx=model.ctx))

        diagnostics.extend(self._lattice_violations(edges))
        diagnostics.extend(self._cycles(edges))
        return LockGraph(classes=sorted(self.models,
                                        key=lambda m: m.qualname),
                         edges=edges, diagnostics=diagnostics)

    def _lattice_violations(self, edges: List[LockEdge]
                            ) -> Iterator[Diagnostic]:
        for edge in edges:
            holder, target = edge.holder, edge.target
            if holder.level in LATTICE and target.level in LATTICE:
                if LATTICE.index(target.level or "") <= \
                        LATTICE.index(holder.level or ""):
                    yield edge.ctx.diagnostic(
                        self.rule, edge.site,
                        f"lock-order violation: {holder.name} (level "
                        f"{holder.level!r}) may acquire the "
                        f"{target.level!r} lock via {edge.via} while "
                        f"holding its own; the lattice "
                        f"{' -> '.join(LATTICE)} permits only strictly "
                        f"lower acquisitions")

    def _cycles(self, edges: List[LockEdge]) -> Iterator[Diagnostic]:
        """Flag strongly connected components in the acquisition graph.

        A cycle between fully leveled classes already produced per-edge
        lattice diagnostics above, so only SCCs touching an unleveled
        class are reported here — those are invisible to the lattice
        check but still deadlock-capable.
        """
        adjacency: Dict[int, Set[int]] = {}
        edge_for: Dict[Tuple[int, int], LockEdge] = {}
        for edge in edges:
            source, target = id(edge.holder), id(edge.target)
            adjacency.setdefault(source, set()).add(target)
            key = (source, target)
            if key not in edge_for or \
                    getattr(edge_for[key].site, "lineno", 1) > \
                    getattr(edge.site, "lineno", 1):
                edge_for[key] = edge

        index_of: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        counter = [0]
        sccs: List[List[int]] = []

        def strongconnect(node: int) -> None:
            index_of[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for neighbour in sorted(adjacency.get(node, ())):
                if neighbour not in index_of:
                    strongconnect(neighbour)
                    low[node] = min(low[node], low[neighbour])
                elif neighbour in on_stack:
                    low[node] = min(low[node], index_of[neighbour])
            if low[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)

        nodes = sorted(set(adjacency)
                       | {t for targets in adjacency.values()
                          for t in targets})
        for node in nodes:
            if node not in index_of:
                strongconnect(node)

        ids = {id(m): m for m in self.models}
        for component in sccs:
            if len(component) < 2:
                continue
            members = sorted((ids[n] for n in component if n in ids),
                             key=lambda m: m.qualname)
            if all(m.level in LATTICE for m in members):
                continue
            internal = [edge_for[(s, t)] for s in component for t in component
                        if (s, t) in edge_for]
            anchor = min(internal,
                         key=lambda e: (e.ctx.path,
                                        getattr(e.site, "lineno", 1)))
            cycle = " <-> ".join(m.name for m in members)
            yield anchor.ctx.diagnostic(
                self.rule, anchor.site,
                f"lock-acquisition cycle between {cycle}: these classes "
                f"can each acquire the other's lock while holding their "
                f"own, which deadlocks under contention; declare "
                f"{LOCK_LEVEL_ATTR}s and break the cycle")


@register
class LockOrderRule(ProjectRule):
    """RPR010: the cross-class lock graph obeys the declared lattice.

    Infers lock attributes from ``__init__``, maps ``with self._lock:``
    regions through the intra-class call graph (so helpers that run only
    under the lock carry it), resolves cross-class calls by annotation
    (name-match fallback for distinctive names only), and checks every
    resulting acquisition edge against
    :data:`repro.concurrency.order.LATTICE` — plus a cycle check for
    locks that never declared a level.  The runtime twin is
    :class:`repro.concurrency.witness.LockOrderWitness`.
    """

    code = "RPR010"
    name = "lock-order"
    summary = ("cross-class lock acquisitions must follow the declared "
               "lattice (repro.concurrency.order.LATTICE) and the "
               "acquisition graph must be acyclic")

    def check_project(self, modules: Sequence[ModuleContext]
                      ) -> Iterator[Diagnostic]:
        builder = _LockGraphBuilder(self, modules)
        yield from builder.build().diagnostics


def build_lock_graph(modules: Sequence[ModuleContext]) -> LockGraph:
    """The statically inferred lock graph for ``repro locks``."""
    return _LockGraphBuilder(LockOrderRule(), modules).build()


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
# RPR012: no blocking work while holding a lock
# ---------------------------------------------------------------------------

@register
class BlockingUnderLockRule(ModuleRule):
    """RPR012: no page I/O, fsync, socket or sleep under a held lock.

    Blocking while holding a lock serializes every other thread behind
    physical I/O — the exact failure mode the single-flight latch design
    exists to prevent (readers wait on a per-page latch, never on the
    pool lock, while the owner does the disk read *outside* the lock).
    Levels in :data:`repro.concurrency.order.BLOCKING_ALLOWED` are
    exempt: the PagedFile I/O lock *is* the sanctioned serialization
    point for physical access.
    """

    code = "RPR012"
    name = "blocking-under-lock"
    summary = ("blocking calls (page I/O, fsync, sockets, sleep) are "
               "forbidden inside 'with self._lock:' regions except at "
               "BLOCKING_ALLOWED lattice levels")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for model in _lock_models(ctx):
            if model.level in BLOCKING_ALLOWED:
                continue
            for method in model.methods.values():
                for site in method.calls:
                    if site.is_self_call or \
                            site.method not in BLOCKING_CALL_NAMES:
                        continue
                    if not _effectively_locked(model, method,
                                               site.under_lock):
                        continue
                    holder = model.level or model.name
                    yield ctx.diagnostic(
                        self, site.node,
                        f"blocking call {site.method}() while holding the "
                        f"{holder!r} lock; move the blocking work outside "
                        f"the lock (single-flight latch pattern) or give "
                        f"this level a BLOCKING_ALLOWED exemption in "
                        f"repro.concurrency.order")


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
