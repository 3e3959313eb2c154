"""The agent log1p-compresses states in two places only.

DdpgAgent.select_action compresses the state it acts on, and
DdpgAgent.train each state the environment returns (the replay buffer
stores the result). Those are the only places a raw environment state
enters the agent. Every other reader, plan's next-state predictor among
them, works on compressed rows as they are, so compressing one again would
be a second, silent compression.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "queuerl").glob("*.py"))
ALLOWED = {("agent.py", "DdpgAgent.select_action"), ("agent.py", "DdpgAgent.train")}

SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def phi_callers(paths):
    """Set of (file, dotted path of the enclosing classes and functions, or
    None at module level) of each _phi(...) or x._phi(...) call in paths."""
    found = set()

    def visit(node, path, scope):
        if isinstance(node, SCOPES):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "_phi":
                found.add((path.name, ".".join(scope) or None))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), path, ())
    return found


def test_phi_callers_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "rows = _phi(states)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return Agent._phi(states)\n"
        "    return _phi\n"
        "class Agent:\n"
        "    def method(self):\n"
        "        return self._phi(self.state)\n"
    )
    assert phi_callers([module]) == {("module.py", None), ("module.py", "outer.inner"),
                                     ("module.py", "Agent.method")}


def test_package_compresses_states_only_where_they_enter_the_agent():
    assert PACKAGE
    assert phi_callers(PACKAGE) == ALLOWED
