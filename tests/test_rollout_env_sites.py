"""The package builds an RlEnv in two places only.

exploration.rollout_env is the environment an agent trains or is evaluated
in, stepped and rewarded by its own params; evaluation.evaluate_policy
takes explicit step settings, for policies whose params do not hold them.
Every other rollout goes through rollout_env.
"""

from call_sites import PACKAGE, calls

ALLOWED = {("evaluation.py", "evaluate_policy"), ("exploration.py", "rollout_env")}


def env_builders(paths):
    """Set of (file, dotted path of the enclosing classes and functions, or
    None at module level) of each RlEnv(...) or x.RlEnv(...) call in paths."""
    return {(call.file, call.scope) for call in calls(paths) if call.name == "RlEnv"}


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
    assert env_builders([module]) == {("module.py", None), ("module.py", "outer.inner"),
                                      ("module.py", "Box.method")}


def test_package_builds_rl_env_only_in_the_rollout_recipes():
    assert PACKAGE
    assert env_builders(PACKAGE) == ALLOWED
