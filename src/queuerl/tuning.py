"""Seeded random search over agent hyperparameters.

A SearchSpace names a subset of AgentParams fields and gives each either a
finite choice list or a (low, high) range with linear or log scaling.
Each trial trains one agent and scores the frozen policy over a fixed
evaluation rollout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace
from typing import Union

from .agent import FLOAT_PARAM_FIELDS, INT_PARAM_FIELDS, AgentParams, make_agent
from .errors import ConfigError
from .evaluation import evaluate_policy
from .exploration import train_with_blockage_exploration
from .netsim import TopologyConfig

EVAL_TIMESTEPS = 100


@dataclass
class RangeSpec:
    low: float
    high: float
    scale: str = "linear"  # or "log"


@dataclass
class ChoiceSpec:
    choices: list


@dataclass
class SearchSpace:
    specs: dict[str, Union[RangeSpec, ChoiceSpec]]
    trials: int = 10
    objective: str = "final_eval_reward"

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.objective != "final_eval_reward":
            raise ConfigError(f"unknown objective {self.objective!r}")
        known = {f.name for f in fields(AgentParams)}
        for name, spec in self.specs.items():
            if name not in known:
                raise ConfigError(f"{name} is not an agent hyperparameter")
            if isinstance(spec, ChoiceSpec):
                if not spec.choices:
                    raise ConfigError(f"{name}: empty choice list")
            elif isinstance(spec, RangeSpec):
                if name not in INT_PARAM_FIELDS | FLOAT_PARAM_FIELDS:
                    raise ConfigError(f"{name}: a range needs a numeric field")
                if not math.isfinite(spec.high - spec.low):
                    raise ConfigError(f"{name}: low, high and their distance must be finite")
                if spec.scale not in ("linear", "log"):
                    raise ConfigError(f"{name}: scale must be linear or log")
                if not spec.low < spec.high:
                    raise ConfigError(f"{name}: low must be < high")
                if spec.scale == "log" and spec.low <= 0:
                    raise ConfigError(f"{name}: log scale requires low > 0")
            else:
                raise ConfigError(f"{name}: unknown spec type {type(spec).__name__}")


def sample_params(space: SearchSpace, base: AgentParams, rng: random.Random) -> AgentParams:
    """Draw one parameter set from the space on top of the base params."""
    overrides = {}
    for name, spec in space.specs.items():
        if isinstance(spec, ChoiceSpec):
            value = spec.choices[rng.randrange(len(spec.choices))]
        elif spec.scale == "log":
            value = math.exp(rng.uniform(math.log(spec.low), math.log(spec.high)))
        else:
            value = rng.uniform(spec.low, spec.high)
        overrides[name] = _field_value(name, value)
    return replace(base, **overrides)


def _field_value(name: str, value):
    """A drawn value as its field holds it: integer fields rounded,
    hidden_sizes a tuple."""
    if name in INT_PARAM_FIELDS:
        return int(round(value))
    if name == "hidden_sizes":
        return tuple(value)
    return value


def _check_sampleable(space: SearchSpace, base: AgentParams) -> None:
    """Raise ConfigError unless each value sample_params can draw passes
    AgentParams.validate on top of base: each choice, and each end of each
    range, rounded for an integer field. A float range's high end is checked
    as the float just below it, so discount: {low: 0.5, high: 1.0} passes.
    Fields are checked one at a time, so a rule that joins two sampled
    fields, such as w1 + w2 > 0, is left to each trial's own validate, as is
    a float draw that rounds up to high itself."""
    for name, spec in space.specs.items():
        if isinstance(spec, ChoiceSpec):
            values = spec.choices
        elif name in FLOAT_PARAM_FIELDS:
            values = [spec.low, math.nextafter(spec.high, -math.inf)]
        else:
            values = [spec.low, spec.high]
        for value in values:
            replace(base, **{name: _field_value(name, value)}).validate()


@dataclass
class TrialResult:
    params: AgentParams
    objective: float
    trial_index: int = 0


def random_search(
    space: SearchSpace,
    env_config: TopologyConfig,
    base_params: AgentParams,
    seed: int = 0,
) -> list[TrialResult]:
    """Run `space.trials` training runs with sampled params; results come
    back sorted by objective, best first. Each trial gets its own training
    seed derived from `seed`, so the search is reproducible end to end."""
    space.validate()
    _check_sampleable(space, base_params)
    rng = random.Random(seed)
    results = []
    for trial in range(space.trials):
        trial_seed = rng.randrange(2**31)
        params = replace(sample_params(space, base_params, rng), seed=trial_seed)
        params.validate()

        agent = make_agent(env_config, params)
        train_with_blockage_exploration(agent, env_config, params)
        score = evaluate_policy(
            agent,
            env_config,
            timesteps=EVAL_TIMESTEPS,
            seed=params.seed,
            events_per_step=params.events_per_step,
            reward_skip=params.reward_skip,
        )
        results.append(TrialResult(params=params, objective=score, trial_index=trial))
    results.sort(key=lambda r: r.objective, reverse=True)
    return results
