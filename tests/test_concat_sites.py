"""The agent joins states and actions in three places only.

The replay buffer stores each transition as one row whose first columns
are already the critic's and predictors' input [phi(s), a], so nothing that
reads stored transitions joins them again. The joins left pair a state with
a fresh action: DdpgAgent.update_critic_network's target input
[phi(s'), a'], DdpgAgent.update_actor_network's [phi(s), actor(s)], and
DdpgAgent.plan's hallucinated experiences.
"""

from call_sites import PACKAGE, calls

AGENT = [path for path in PACKAGE if path.name == "agent.py"]
ALLOWED = {"DdpgAgent.update_critic_network", "DdpgAgent.update_actor_network",
           "DdpgAgent.plan"}


def concatenate_sites(paths):
    """Set of the dotted paths of the enclosing classes and functions (None
    at module level) of each np.concatenate(...) or concatenate(...) call in
    the files at paths."""
    return {call.scope for call in calls(paths) if call.name == "concatenate"}


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
    assert concatenate_sites([module]) == {None, "outer.inner", "Agent.method"}


def test_agent_joins_states_and_actions_only_where_an_action_is_fresh():
    assert AGENT
    assert concatenate_sites(AGENT) == ALLOWED
