"""The package builds an RlEnv in two places only.

exploration.rollout_env is the environment an agent trains or is evaluated
in, stepped and rewarded by its own params; evaluation.evaluate_policy
takes explicit step settings, for policies whose params do not hold them.
Every other rollout goes through rollout_env.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "queuerl").glob("*.py"))
ALLOWED = {("evaluation.py", "evaluate_policy"), ("exploration.py", "rollout_env")}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def env_builders(paths):
    """Set of (file, innermost enclosing function or None) of each
    RlEnv(...) or x.RlEnv(...) call in paths."""
    found = set()

    def visit(node, path, function):
        if isinstance(node, FUNCTIONS):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "RlEnv":
                found.add((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), path, None)
    return found


def test_env_builders_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "env = RlEnv(cfg)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return rl_env.RlEnv(cfg)\n"
        "    return RlEnv\n"
        "class Box:\n"
        "    def method(self):\n"
        "        return RlEnv(cfg, seed=1)\n"
    )
    assert env_builders([module]) == {("module.py", None), ("module.py", "inner"),
                                      ("module.py", "method")}


def test_package_builds_rl_env_only_in_the_rollout_recipes():
    assert PACKAGE
    assert env_builders(PACKAGE) == ALLOWED
