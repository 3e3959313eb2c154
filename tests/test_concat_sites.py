"""The agent joins states and actions in three places only.

The replay buffer stores each transition as one row whose first columns
are already the critic's and predictors' input [phi(s), a], so nothing that
reads stored transitions joins them again. The joins left pair a state with
a fresh action: DdpgAgent.update_critic_network's target input
[phi(s'), a'], DdpgAgent.update_actor_network's [phi(s), actor(s)], and
DdpgAgent.plan's hallucinated experiences.
"""

import ast
from pathlib import Path

AGENT = Path(__file__).resolve().parent.parent / "src" / "queuerl" / "agent.py"
ALLOWED = {"DdpgAgent.update_critic_network", "DdpgAgent.update_actor_network",
           "DdpgAgent.plan"}

SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def concatenate_sites(path):
    """Set of the dotted paths of the enclosing classes and functions (None
    at module level) of each np.concatenate(...) or concatenate(...) call in
    the module at path."""
    found = set()

    def visit(node, scope):
        if isinstance(node, SCOPES):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "concatenate":
                found.add(".".join(scope) or None)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), ())
    return found


def test_concatenate_sites_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "rows = np.concatenate([a, b])\n"
        "def outer():\n"
        "    def inner():\n"
        "        return concatenate([a, b], axis=1)\n"
        "    return np.concatenate\n"
        "class Agent:\n"
        "    def method(self):\n"
        "        return numpy.concatenate((self.s, self.a), axis=1)\n"
    )
    assert concatenate_sites(module) == {None, "outer.inner", "Agent.method"}


def test_agent_joins_states_and_actions_only_where_an_action_is_fresh():
    assert concatenate_sites(AGENT) == ALLOWED
