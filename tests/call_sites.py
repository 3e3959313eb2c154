"""The calls in Python source files, for the tests that pin where the
package makes a kind of call."""

import ast
from pathlib import Path
from typing import NamedTuple, Optional

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "queuerl").glob("*.py"))

SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


class Call(NamedTuple):
    file: str  # the file's name
    scope: Optional[str]  # the enclosing classes and functions, dotted; None at module level
    name: Optional[str]  # the callee's last name: f for f(...) and x.f(...)
    dotted: Optional[str]  # the callee's dotted name: "x.f" for x.f(...); None for x().f(...)
    node: ast.Call


def _dotted(node):
    """'a.b.c' for a Name or Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def calls(paths):
    """Yield a Call for each call in the files at paths, file by file, each
    call before the calls in its callee and arguments."""

    def visit(node, file, scope):
        if isinstance(node, SCOPES):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            yield Call(file, ".".join(scope) or None, name, _dotted(callee), node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, file, scope)

    for path in paths:
        yield from visit(ast.parse(path.read_text(), str(path)), path.name, ())
