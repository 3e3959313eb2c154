"""Span recorder for the traced run, and the step clock every run uses.

Both work from outside the package: they replace public functions and
methods of the ``queuerl`` modules with timing wrappers and put the
originals back afterwards. Nothing under ``src/`` knows about them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from time import perf_counter

# The layers, by module name. Every public function and every public method
# of a class defined in one of these modules is wrapped in the traced run.
LAYER_MODULES = (
    "netsim", "rl_env", "agent", "model", "buffer", "exploration",
    "evaluation", "config", "reporting", "cli",
)

# Counts taken at a span's entry, from its arguments: (counter name, probe).
_PROBES = {
    # rows the predictors are refitted over: buffer size at each call
    "agent.DdpgAgent.fit_model": ("rows", lambda agent, *a, **k: agent.buffer.size),
    "netsim.QueueNetwork.simulate": (
        "events", lambda net, num_events=None, *a, **k: num_events or 0),
}


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class SpanRecorder:
    """Records one span per wrapped call: id, name, start, end, parent id.

    Spans stay in memory until ``take_spans``; ``layer_stats`` turns them
    into per-name call counts and self times. The run is single-threaded,
    so one stack of open span ids gives each span its parent.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._patches = _Patches()

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = _PROBES.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                key = f"{name}.{probe[0]}"
                counters[key] = counters.get(key, 0) + probe[1](*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent))

        return traced

    def install(self) -> list[str]:
        """Wrap every public function and method of the layer modules.

        A module-level function is replaced under every name that any loaded
        ``queuerl`` module binds it to, so ``from .x import f`` callers are
        traced too. Returns the wrapped names.
        """
        modules = {m: importlib.import_module(f"queuerl.{m}") for m in LAYER_MODULES}
        loaded = [mod for key, mod in list(sys.modules.items())
                  if mod is not None and (key == "queuerl" or key.startswith("queuerl."))]
        wrapped: list[str] = []
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = f"{short}.{attr}"
                    wrapper = self._wrap(name, obj)
                    for other in loaded:
                        for alias, value in list(vars(other).items()):
                            if value is obj:
                                self._patches.set(other, alias, wrapper)
                    wrapped.append(name)
                elif inspect.isclass(obj):
                    wrapped += self._wrap_class(f"{short}.{attr}", obj)
        return wrapped

    def _wrap_class(self, prefix: str, cls) -> list[str]:
        wrapped = []
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                value = staticmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, classmethod):
                value = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, types.FunctionType):
                value = self._wrap(name, raw)
            else:
                continue  # properties and class attributes are not calls
            self._patches.set(cls, attr, value)
            wrapped.append(name)
        return wrapped

    def uninstall(self) -> None:
        self._patches.undo()

    # -- results ---------------------------------------------------------------

    def take_spans(self) -> tuple[list[tuple[int, str, float, float, int]], dict[str, float]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def layer_stats(spans, counters) -> dict[str, float]:
    """Per wrapped name: ``.calls``, ``.self_s`` and ``.total_s``; plus counters.

    A span's self time is its duration minus the durations of its direct
    children. Calls nest without overlap in one thread, so that difference
    is the part of the span no child covers.
    """
    duration = {sid: end - start for sid, _, start, end, _ in spans}
    child_time: dict[int, float] = {}
    for sid, _, _, _, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + duration[sid]
    out: dict[str, float] = dict(counters)
    for sid, name, _, _, _ in spans:
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + duration[sid] - child_time.get(sid, 0.0)
        out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + duration[sid]
    return out


class StepClock:
    """Times ``RlEnv.get_next_state`` at its boundary, as a client would.

    It records the interval between consecutive returns within an episode,
    the entry time of the first step of a repetition, and the steps taken.
    At the end of each episode (a ``reset``, a new environment object or
    ``end_episode``) it checks that jobs are conserved in that episode's network:
    arrivals == exits + jobs in queues. With ``sample_queues`` it also keeps
    the largest number of jobs in queues seen at a step boundary.
    """

    def __init__(self, rl_env_module, sample_queues: bool = False, on_first_step=None):
        self._cls = rl_env_module.RlEnv
        self._sample_queues = sample_queues
        self._on_first_step = on_first_step
        self._patches = _Patches()
        self.intervals_ms: list[float] = []
        self.begin_rep()

    def begin_rep(self) -> None:
        self.first_step_at: float | None = None
        self.steps = 0
        self.failed_steps = 0
        self.conservation_failures = 0
        self.queue_max = 0
        self.env = None
        self._episode_steps = 0
        self._last_return: float | None = None

    def install(self) -> None:
        clock = self
        get_next_state = self._cls.get_next_state
        reset = self._cls.reset

        @functools.wraps(get_next_state)
        def timed_step(env, action):
            if clock.first_step_at is None:
                clock.first_step_at = perf_counter()
                if clock._on_first_step is not None:
                    clock._on_first_step()
            if env is not clock.env:
                clock.end_episode()
                clock.env = env
            out = get_next_state(env, action)
            now = perf_counter()
            if clock._last_return is not None:
                clock.intervals_ms.append((now - clock._last_return) * 1000.0)
            clock._last_return = now
            clock.steps += 1
            clock._episode_steps += 1
            if clock._sample_queues:
                clock.queue_max = max(clock.queue_max, jobs_in_queues(env.net))
            return out

        @functools.wraps(reset)
        def timed_reset(env, *args, **kwargs):
            if env is clock.env:
                clock.end_episode()
            return reset(env, *args, **kwargs)

        self._patches.set(self._cls, "get_next_state", timed_step)
        self._patches.set(self._cls, "reset", timed_reset)

    def uninstall(self) -> None:
        self._patches.undo()

    def end_episode(self) -> None:
        if self.env is not None and self._episode_steps:
            if not jobs_conserved(self.env.net):
                self.conservation_failures += 1
                self.failed_steps += self._episode_steps
        self._episode_steps = 0
        self._last_return = None



def jobs_in_queues(net) -> int:
    return sum(len(q) for q in net.queues.values())


def jobs_conserved(net) -> bool:
    return sum(net.arrivals_total.values()) == sum(net.exits_total.values()) + jobs_in_queues(net)

