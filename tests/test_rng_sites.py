"""The package builds its random streams in four places only.

DdpgAgent.__init__ builds the agent's streams (network init and updates,
episode seeds, start modes), so training in chunks continues one run;
QueueNetwork.__init__ builds the simulator's; make_noise_hook builds the
interarrival noise's and random_search the tuner's. Each is seeded by its
one argument, and no code draws from the global numpy or random generator.
"""

from call_sites import PACKAGE, calls

ALLOWED = {("agent.py", "DdpgAgent.__init__"), ("netsim.py", "QueueNetwork.__init__"),
           ("evaluation.py", "make_noise_hook"), ("tuning.py", "random_search")}
BUILDERS = {"default_rng", "Random"}
GLOBAL_GENERATORS = ("random.", "np.random.", "numpy.random.")


def rng_calls(paths):
    """(builders, globals): builders maps (file, dotted path of the enclosing
    classes and functions, or None at module level) to the positional and
    keyword argument counts of each default_rng(...) or Random(...) call
    there, however it is reached; globals is the set of (file, dotted callee)
    of every other call to a random.* or np.random.* (numpy.random.*)
    function."""
    builders, global_draws = {}, set()
    for call in calls(paths):
        if call.name in BUILDERS:
            builders.setdefault((call.file, call.scope), []).append(
                (len(call.node.args), len(call.node.keywords)))
        elif (call.dotted or "").startswith(GLOBAL_GENERATORS):
            global_draws.add((call.file, call.dotted))
    return builders, global_draws


def test_rng_calls_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "rng = random.Random(1)\n"
        "def outer():\n"
        "    def inner(seed):\n"
        "        return np.random.default_rng(seed, 2)\n"
        "    return default_rng\n"
        "class Box:\n"
        "    def method(self):\n"
        "        self.rng = Random(seed=3)\n"
        "        self.rng.random()\n"
        "        return random.random() + np.random.normal() + numpy.random.rand(2)\n"
    )
    builders, global_draws = rng_calls([module])
    assert builders == {("module.py", None): [(1, 0)], ("module.py", "outer.inner"): [(2, 0)],
                        ("module.py", "Box.method"): [(0, 1)]}
    assert global_draws == {("module.py", "random.random"), ("module.py", "np.random.normal"),
                            ("module.py", "numpy.random.rand")}


def test_package_builds_streams_only_at_the_allowed_sites():
    assert PACKAGE
    builders, _ = rng_calls(PACKAGE)
    assert set(builders) == ALLOWED


def test_every_stream_takes_exactly_its_seed():
    builders, _ = rng_calls(PACKAGE)
    assert {site: counts for site, counts in builders.items()
            if any(c != (1, 0) for c in counts)} == {}


def test_package_draws_from_no_global_generator():
    _, global_draws = rng_calls(PACKAGE)
    assert global_draws == set()
