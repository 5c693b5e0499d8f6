"""Small AST utilities shared by the rule families."""

from __future__ import annotations

import ast
from typing import Optional


def collect_imports(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted path they import.

    ``import time`` -> ``{"time": "time"}``; ``import os.path`` ->
    ``{"os": "os"}``; ``from time import monotonic as mono`` ->
    ``{"mono": "time.monotonic"}``.  Star imports are ignored (no rule
    in this analyzer needs them, and the scanned tree has none).
    """
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                names[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as ``"a.b.c"`` when the chain is plain names, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call(node: ast.Call, imports: dict[str, str]) -> Optional[str]:
    """The fully qualified dotted name a call resolves to, if derivable.

    Local aliases are unfolded through the import table, so ``mono()``
    after ``from time import monotonic as mono`` resolves to
    ``"time.monotonic"``.
    """
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    target = imports.get(head)
    if target is None:
        return name
    return f"{target}.{rest}" if rest else target


def is_self_attr(node: ast.AST, self_name: str = "self") -> Optional[str]:
    """The attribute name when ``node`` is ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None
