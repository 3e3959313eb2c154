"""Blockage-exploration training regime.

Each episode starts either under normal conditions or with one interior
node's server blocked; the w1/w2 weights of the agent's params set the
split. A StateTracker keeps the highest-reward-impact states and visit
counts of coarse state signatures as training telemetry.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional

import numpy as np

from .agent import AgentParams, DdpgAgent, TrainingTrace
from .errors import ConfigError, NoBlockableNodes
from .netsim import TopologyConfig
from .rl_env import RlEnv


KEY_CAPACITY = 32
PERIPHERAL_CAPACITY = 1024


class StateTracker:
    """Bounded record of the KEY_CAPACITY visited states with the largest
    |reward| and of visit counts for up to PERIPHERAL_CAPACITY coarse state
    signatures; a signature first seen once that many are held is not
    counted."""

    def __init__(self):
        self.key_states: list[tuple[np.ndarray, float]] = []  # sorted by |reward| desc
        self.peripheral_states: dict[tuple[float, ...], int] = {}

    @staticmethod
    def signature(state: np.ndarray) -> tuple[float, ...]:
        return tuple(round(float(v), 1) for v in state)

    def record_visit(self, state: np.ndarray, reward: float) -> None:
        sig = self.signature(state)
        if sig in self.peripheral_states:
            self.peripheral_states[sig] += 1
        elif len(self.peripheral_states) < PERIPHERAL_CAPACITY:
            self.peripheral_states[sig] = 1

        entry = (np.array(state, dtype=float), float(reward))
        if len(self.key_states) < KEY_CAPACITY:
            self.key_states.append(entry)
        elif abs(reward) > abs(self.key_states[-1][1]):
            self.key_states[-1] = entry
        else:
            return
        self.key_states.sort(key=lambda e: abs(e[1]), reverse=True)


def choose_start_mode(
    w1: float, w2: float, topology: TopologyConfig, rng: random.Random
) -> Optional[int]:
    """The node an episode starts with blocked: None (a normal start) with
    probability w1/(w1+w2), otherwise a uniformly drawn interior node."""
    if not (math.isfinite(w1) and math.isfinite(w2) and w1 >= 0 and w2 >= 0 and w1 + w2 > 0):
        raise ConfigError("w1 and w2 must be finite and nonnegative with a positive sum")
    blockable = topology.blockable_nodes()
    if w2 > 0 and not blockable:
        raise NoBlockableNodes("topology has no interior node to block")
    if rng.random() < w1 / (w1 + w2):
        return None
    return blockable[rng.randrange(len(blockable))]


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
    """agent.train with each episode's blocked node, or none, drawn by
    choose_start_mode from the w1/w2 of agent.params.

    Blocked episodes apply the blockage right after the reset and feed
    (state, reward) visits into the tracker. With w2 = 0 every episode
    starts normal, so this reduces to plain training.
    """
    p = agent.params
    mode_rng = random.Random(p.seed ^ 0x5EED)
    return agent.train(
        rollout_env(env_config, p, p.seed),
        choose_blocked_node=lambda: choose_start_mode(p.w1, p.w2, env_config, mode_rng),
        tracker=tracker,
    )
