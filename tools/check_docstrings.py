#!/usr/bin/env python
"""Docstring-coverage lint for the core public API.

Walks the checked packages with :mod:`ast` and fails (exit 1) when a
public module, class, function or method lacks a docstring.  "Public"
means the name has no leading underscore and is reachable through public
containers only; dunder methods are exempt except ``__init__`` on public
classes, which is covered by the class docstring requirement instead.

Run directly or via ``make lint`` (CI runs both)::

    python tools/check_docstrings.py [root ...]

Defaults to the packages the repository promises coverage for:
``src/repro/graph``, ``src/repro/core``, ``src/repro/simmpi`` and
``src/repro/instrument``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Packages whose public API must be fully docstringed.
DEFAULT_ROOTS = (
    "src/repro/graph",
    "src/repro/core",
    "src/repro/simmpi",
    "src/repro/instrument",
)

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _missing_in_class(node: ast.ClassDef, path: Path) -> list[str]:
    out = []
    for item in node.body:
        if isinstance(item, _DEF_NODES) and _public(item.name):
            if ast.get_docstring(item) is None:
                out.append(
                    f"{path}:{item.lineno}: public method "
                    f"{node.name}.{item.name} lacks a docstring"
                )
    return out


def check_file(path: Path) -> list[str]:
    """All docstring-coverage problems in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}:1: module lacks a docstring")
    for node in tree.body:
        if isinstance(node, _DEF_NODES) and _public(node.name):
            if ast.get_docstring(node) is None:
                problems.append(
                    f"{path}:{node.lineno}: public function "
                    f"{node.name} lacks a docstring"
                )
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            if ast.get_docstring(node) is None:
                problems.append(
                    f"{path}:{node.lineno}: public class "
                    f"{node.name} lacks a docstring"
                )
            problems.extend(_missing_in_class(node, path))
    return problems


def main(argv: list[str]) -> int:
    """Check every ``*.py`` under the given (or default) roots."""
    repo = Path(__file__).resolve().parent.parent
    roots = [Path(a) for a in argv] or [repo / r for r in DEFAULT_ROOTS]
    problems: list[str] = []
    n_files = 0
    for root in roots:
        if not root.exists():
            print(f"error: no such path {root}", file=sys.stderr)
            return 2
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for f in files:
            n_files += 1
            problems.extend(check_file(f))
    for p in problems:
        print(p)
    label = ", ".join(str(r) for r in roots)
    if problems:
        print(
            f"docstring lint: {len(problems)} problems in {label}",
            file=sys.stderr,
        )
        return 1
    print(f"docstring lint: {n_files} files OK in {label}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
