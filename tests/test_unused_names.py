"""Every function, method, class and module-level constant in the package
has a user outside tests.

A name counts as used when something in src/queuerl/ or perfbench/ names it
(a Name, an Attribute, an import alias or an __all__ string) outside its own
definition. A package __init__.py only re-exports names, so what it names
does not count: a function that the package exports and only tests call is
still unused. Code that only tests call belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "queuerl").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ASSIGNMENTS = (ast.Assign, ast.AnnAssign)


def references(tree):
    """Counter of the names a syntax tree refers to."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(elt.value for elt in ast.walk(node.value)
                         if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return names


def definitions(tree):
    """(name, node) of each function, method and class in a module's syntax
    tree, and of each name a module-level assignment binds, the assignment
    as its node."""
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, ASSIGNMENTS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def unused_names(package, others):
    """(file, name) of each non-dunder definition in package that nothing in
    package, apart from its __init__.py, or others refers to, apart from its
    own definition."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in package}
    used = Counter()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            used.update(references(tree))
    for path in others:
        used.update(references(ast.parse(path.read_text(), str(path))))
    unused = []
    for path in package:
        for name, node in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] == references(node)[name]:
                unused.append((path.name, name))
    return unused


def test_unused_names_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "LIMIT = 3\n"
        "STEP: int = LIMIT\n"
        "def used(): pass\n"
        "def recursive(): return recursive()\n"
        "class Box:\n"
        "    def method(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def __len__(self): return 0\n"
        "__all__ = ['Box']\n"
        "used()\n"
    )
    init = tmp_path / "__init__.py"
    init.write_text("from .module import recursive, used\n__all__ = ['recursive', 'used']\n")
    user = tmp_path / "user.py"
    user.write_text("from module import STEP, recursive as alias\nprint(Box().size)\n")
    assert unused_names([module], []) == [
        ("module.py", "recursive"), ("module.py", "method"), ("module.py", "size"),
        ("module.py", "STEP")]
    assert unused_names([init, module], []) == unused_names([module], [])
    assert unused_names([module], [user]) == [("module.py", "method")]


def test_package_has_no_unused_names():
    assert PACKAGE and BENCHMARK
    assert unused_names(PACKAGE, BENCHMARK) == []
