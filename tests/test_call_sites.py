"""call_sites.calls, which the call-site guards build on, names the site of
every call in a file."""

from call_sites import calls


def test_calls_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "rng = random.Random(1)\n"
        "def outer():\n"
        "    def inner(seed):\n"
        "        return np.random.default_rng(seed, 2)\n"
        "    return make().concatenate(a, b), default_rng\n"
        "class Agent:\n"
        "    def method(self):\n"
        "        return numpy.random.rand(self._phi(random.random()), size=3)\n"
        "env = RlEnv(cfg, seed=1)\n"
    )
    assert [(c.file, c.scope, c.name, c.dotted, len(c.node.args), len(c.node.keywords))
            for c in calls([module])] == [
        ("module.py", None, "Random", "random.Random", 1, 0),
        ("module.py", "outer.inner", "default_rng", "np.random.default_rng", 2, 0),
        ("module.py", "outer", "concatenate", None, 2, 0),
        ("module.py", "outer", "make", "make", 0, 0),
        ("module.py", "Agent.method", "rand", "numpy.random.rand", 1, 1),
        ("module.py", "Agent.method", "_phi", "self._phi", 1, 0),
        ("module.py", "Agent.method", "random", "random.random", 0, 0),
        ("module.py", None, "RlEnv", "RlEnv", 1, 1),
    ]
