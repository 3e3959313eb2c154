"""The package builds its random streams in four places only.

DdpgAgent.__init__ builds the agent's streams (network init and updates,
episode seeds, start modes), so training in chunks continues one run;
QueueNetwork.__init__ builds the simulator's; make_noise_hook builds the
interarrival noise's and random_search the tuner's. Each is seeded by its
one argument, and no code draws from the global numpy or random generator.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "queuerl").glob("*.py"))
ALLOWED = {("agent.py", "__init__"), ("netsim.py", "__init__"),
           ("evaluation.py", "make_noise_hook"), ("tuning.py", "random_search")}
BUILDERS = {"default_rng", "Random"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dotted(node):
    """'a.b.c' for a Name or Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def rng_calls(paths):
    """(builders, globals): builders maps (file, innermost enclosing function
    or None) to the positional and keyword argument counts of each
    default_rng(...) or Random(...) call there, however it is reached;
    globals is the set of (file, dotted callee) of every other call to a
    random.* or np.random.* (numpy.random.*) function."""
    builders, global_draws = {}, set()

    def visit(node, path, function):
        if isinstance(node, FUNCTIONS):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            dotted = _dotted(callee) or ""
            if name in BUILDERS:
                builders.setdefault((path.name, function), []).append(
                    (len(node.args), len(node.keywords)))
            elif dotted.startswith(("random.", "np.random.", "numpy.random.")):
                global_draws.add((path.name, dotted))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), path, None)
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
    assert builders == {("module.py", None): [(1, 0)], ("module.py", "inner"): [(2, 0)],
                        ("module.py", "method"): [(0, 1)]}
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
