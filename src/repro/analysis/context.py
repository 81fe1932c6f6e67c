"""What a rule sees of one module, and the one name resolver.

Every rule that asks "is this expression X" asks :class:`Imports`, the
only code in the package that understands ``import x as y`` and
``from x import y as z``.  :class:`ModuleContext` parses nothing twice:
the node list, the parent map and the resolver are each computed once
per module, on first use, and shared by every rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as written for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def unquoted(annotation: ast.expr) -> Optional[ast.expr]:
    """The expression an annotation spells: itself, or what a string
    annotation parses to (``None`` when it does not parse)."""
    while isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    return annotation


class Imports:
    """Local name -> dotted origin, for every import in a module.

    ``import a.b`` binds ``a`` to ``a``; ``import a.b as c`` binds ``c``
    to ``a.b``; ``from a import b as c`` binds ``c`` to ``a.b``.
    Flow-insensitive on purpose: an import inside a function counts for
    the whole module.  Relative imports keep their leading dots, so they
    never equal an absolute name.
    """

    def __init__(self, nodes: Sequence[ast.AST]) -> None:
        self.origins: Dict[str, str] = {}
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.origins[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.origins[root] = root
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                for alias in node.names:
                    self.origins[alias.asname or alias.name] = \
                        f"{module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain rooted at an imported
        name (``clock.monotonic`` -> ``time.monotonic`` under ``import
        time as clock``); ``None`` for anything else."""
        written = dotted(node)
        if written is None:
            return None
        root, _, rest = written.partition(".")
        origin = self.origins.get(root)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module."""

    #: Path as reported in diagnostics (repo-relative when possible).
    path: str
    #: Dotted module name (``repro.core.search``) or ``None`` when the
    #: file is not importable from a package root (scripts, fixtures).
    module: Optional[str]
    tree: ast.Module

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree, in ``ast.walk`` order."""
        return list(ast.walk(self.tree))

    @cached_property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        return {child: parent for parent in self.nodes
                for child in ast.iter_child_nodes(parent)}

    @cached_property
    def imports(self) -> Imports:
        return Imports(self.nodes)

    @cached_property
    def uses(self) -> List[Tuple[ast.AST, Optional[str], str]]:
        """``(node, receiver, name)`` for every use of a name — read,
        called, handed on as a value or assigned to.

        ``receiver`` is the dotted expression the name hangs off —
        resolved through the imports where its root is imported, as
        written otherwise, ``None`` when it is not a plain dotted chain.
        A bare name is a use only when an import bound it; a ``from m
        import x`` is listed too, as ``(node, "m", "x")``.
        """
        found: List[Tuple[ast.AST, Optional[str], str]] = []
        for node in self.nodes:
            if isinstance(node, ast.Attribute):
                found.append((node, self.imports.resolve(node.value)
                              or dotted(node.value), node.attr))
            elif isinstance(node, ast.Name):
                origin = self.imports.resolve(node)
                if origin is not None and "." in origin:
                    receiver, _, name = origin.rpartition(".")
                    found.append((node, receiver, name))
            elif isinstance(node, ast.ImportFrom) and node.module:
                found.extend((node, node.module, alias.name)
                             for alias in node.names)
        return found

    def in_package(self, package: str) -> bool:
        """True when this module is ``package`` or inside it."""
        if self.module is None:
            return False
        return self.module == package or \
            self.module.startswith(package + ".")

    def diagnostic(self, rule: "Rule", node: ast.AST,
                   message: str) -> Diagnostic:
        return Diagnostic(
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=rule.code,
            message=message,
        )


class Rule:
    """One ``RPR###`` check.  A rule overrides ``check_module`` (called
    once per parsed file) or ``check_project`` (called once, with every
    parsed file, for cross-file invariants); the other stays empty."""

    #: Stable diagnostic code (``RPR###``); never renumbered.
    code: str
    #: Short kebab-case name used in docs and ``repro lint --rules``.
    name: str
    #: One-line description of the invariant the rule protects.
    summary: str

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        """Yield diagnostics for ``ctx``."""
        return iter(())

    def check_project(self, modules: Sequence[ModuleContext]
                      ) -> Iterator[Diagnostic]:
        """Yield diagnostics across ``modules``."""
        return iter(())
