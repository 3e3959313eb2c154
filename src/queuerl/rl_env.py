"""RL view of a queueing network.

State: mean end-to-end delay per serviced edge (ascending edge-type order),
with the current clock standing in for jobs still on an edge. Action: one
weight in [0, 1] per serviced edge, in the same order; the network's
set_routing normalises them per node into its transition map. Reward:
-(mean of per-edge serviced delays) divided by the network throughput ratio.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch, NoArrivals
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
        if reward_skip < 0:
            raise ConfigError("reward_skip must be >= 0")
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
        return np.array(
            [self.net.edge_mean_delay(e) for e in self.serviced_edges], dtype=float
        )

    def get_next_state(self, action: np.ndarray) -> np.ndarray:
        """Install the action's routing, advance the simulation one step."""
        action = np.asarray(action, dtype=float)
        if action.shape != (self.action_dim,):
            raise DimensionMismatch(
                f"action has shape {action.shape}, expected ({self.action_dim},)"
            )
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

        edge_means = []
        for etype in self.serviced_edges:
            count, delay_sum = self.net.edge_serviced_stats(etype)
            if count > 0:
                edge_means.append(delay_sum / count)

        mean_delay = sum(edge_means) / len(edge_means) if edge_means else 0.0
        ratio = max(exits / arrivals, R_FLOOR)
        return -mean_delay / ratio
