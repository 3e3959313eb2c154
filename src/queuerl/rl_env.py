"""RL view of a queueing network; the network owns the traversal aggregates.

State: the network's mean_delays, one mean end-to-end delay per serviced
edge (ascending edge type). Action: one weight in [0, 1] per serviced edge,
in the same order, which set_routing checks and normalises per node. Reward:
-(mean of the per-edge serviced delays from counted_means) divided by the
network throughput ratio. counted_means gives each counted edge's
sum / count of serviced_stats in one pass, the same floats in the same order
as dividing serviced_stats' pairs here. RlEnv keeps only that formula, the
step and reset.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NoArrivals
from .netsim import QueueNetwork, TopologyConfig

R_FLOOR = 1e-3  # throughput-ratio clamp so the reward stays finite


class RlEnv:
    """Wraps QueueNetwork as a stepped environment for agents."""

    def __init__(
        self,
        config: TopologyConfig,
        seed: int = 0,
        events_per_step: int = 100,
        reward_skip: int = 0,
        interarrival_noise: Optional[Callable[[float], float]] = None,
    ):
        if events_per_step < 1:
            raise ConfigError("events_per_step must be >= 1")
        self.config = config
        self.events_per_step = events_per_step
        self.reward_skip = reward_skip
        self.interarrival_noise = interarrival_noise
        self.net = QueueNetwork(config, seed, interarrival_noise, reward_skip)
        self.serviced_edges = self.net.serviced_edge_types

    @property
    def state_dim(self) -> int:
        return len(self.serviced_edges)

    @property
    def action_dim(self) -> int:
        return len(self.serviced_edges)

    def reset(self, seed: int) -> np.ndarray:
        """Rebuild the network from its config; returns the all-zero state."""
        self.net = QueueNetwork(self.config, seed, self.interarrival_noise, self.reward_skip)
        return self.get_state()

    def get_state(self) -> np.ndarray:
        return np.array(self.net.mean_delays(), dtype=float)

    def get_next_state(self, action: np.ndarray) -> np.ndarray:
        """Install the action's routing, advance the simulation one step."""
        self.net.set_routing(action)
        self.net.simulate(self.events_per_step)
        return self.get_state()

    def get_reward(self) -> float:
        """-(mean serviced delay) / throughput ratio, over the whole run so far.

        An edge's serviced delay is the mean over its exited traversals at
        arrival index reward_skip or above, so each edge's first reward_skip
        jobs are left out. Edges with no such traversal are left out of the
        delay average; the throughput ratio is clamped below at R_FLOOR.
        """
        arrivals = sum(self.net.arrivals_total.values())
        if arrivals == 0:
            raise NoArrivals("no external arrival has occurred yet")
        exits = sum(self.net.exits_total.values())

        edge_means = self.net.counted_means()
        mean_delay = sum(edge_means) / len(edge_means) if edge_means else 0.0
        ratio = max(exits / arrivals, R_FLOOR)
        return -mean_delay / ratio
