"""Blockage-exploration training regime.

Each episode starts either under normal conditions or with one interior
node's server blocked; the w1/w2 weights of the agent's params set the
split. A StateTracker keeps the highest-reward-impact states and visit
counts of coarse state signatures as training telemetry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .agent import AgentParams, DdpgAgent, TrainingTrace
from .errors import ConfigError, NoBlockableNodes
from .netsim import TopologyConfig
from .rl_env import RlEnv


@dataclass(frozen=True)
class StartMode:
    node: Optional[int] = None  # None means a normal start

    def __str__(self) -> str:
        return "normal" if self.node is None else f"blocked:{self.node}"


class StateTracker:
    """Bounded record of key states (by |reward|) and visit counts."""

    def __init__(self, key_capacity: int = 32, peripheral_capacity: int = 1024):
        if key_capacity < 1:
            raise ConfigError(f"key_capacity must be >= 1, got {key_capacity}")
        self.key_capacity = key_capacity
        self.peripheral_capacity = peripheral_capacity
        self.key_states: list[tuple[np.ndarray, float]] = []  # sorted by |reward| desc
        self.peripheral_states: dict[tuple[float, ...], int] = {}

    @staticmethod
    def signature(state: np.ndarray) -> tuple[float, ...]:
        return tuple(round(float(v), 1) for v in state)

    def record_visit(self, state: np.ndarray, reward: float) -> None:
        sig = self.signature(state)
        if sig in self.peripheral_states:
            self.peripheral_states[sig] += 1
        elif len(self.peripheral_states) < self.peripheral_capacity:
            self.peripheral_states[sig] = 1

        entry = (np.array(state, dtype=float), float(reward))
        if len(self.key_states) < self.key_capacity:
            self.key_states.append(entry)
        elif abs(reward) > abs(self.key_states[-1][1]):
            self.key_states[-1] = entry
        else:
            return
        self.key_states.sort(key=lambda e: abs(e[1]), reverse=True)


def choose_start_mode(
    w1: float, w2: float, topology: TopologyConfig, rng: random.Random
) -> StartMode:
    """Normal with probability w1/(w1+w2); otherwise block a uniformly
    drawn interior node."""
    if not (math.isfinite(w1) and math.isfinite(w2) and w1 >= 0 and w2 >= 0 and w1 + w2 > 0):
        raise ConfigError("w1 and w2 must be finite and nonnegative with a positive sum")
    blockable = topology.blockable_nodes()
    if w2 > 0 and not blockable:
        raise NoBlockableNodes("topology has no interior node to block")
    if rng.random() < w1 / (w1 + w2):
        return StartMode()
    return StartMode(node=blockable[rng.randrange(len(blockable))])


def rollout_env(env_config: TopologyConfig, params: AgentParams, seed: int,
                interarrival_noise: Optional[Callable[[float], float]] = None) -> RlEnv:
    """The environment an agent under params trains or is evaluated in:
    seeded with seed, stepped at params.events_per_step and rewarded with
    params.reward_skip."""
    return RlEnv(env_config, seed=seed, events_per_step=params.events_per_step,
                 reward_skip=params.reward_skip, interarrival_noise=interarrival_noise)


def train_with_blockage_exploration(
    agent: DdpgAgent,
    env_config: TopologyConfig,
    tracker: Optional[StateTracker] = None,
) -> TrainingTrace:
    """agent.train with per-episode start modes drawn from the w1/w2 of
    agent.params.

    Blocked episodes apply the blockage right after the reset and feed
    (state, reward) visits into the tracker. With w2 = 0 every episode
    starts normal, so this reduces to plain training.
    """
    p = agent.params
    mode_rng = random.Random(p.seed ^ 0x5EED)
    return agent.train(
        rollout_env(env_config, p, p.seed),
        start_mode_chooser=lambda: choose_start_mode(p.w1, p.w2, env_config, mode_rng),
        tracker=tracker,
    )
