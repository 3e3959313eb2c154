"""RL view of a queueing network; the network owns the traversal aggregates.

State: the network's mean_delays, one mean end-to-end delay per serviced
edge (ascending edge type). Action: one weight in [0, 1] per serviced edge,
in the same order, which set_routing checks and normalises per node. Reward:
the pure function reward of the network's arrival and exit counts and its
counted_means, the mean serviced delay of each counted edge. The network's
simulate is the only writer of those aggregates; RlEnv only reads them,
steps and resets.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NoArrivals
from .netsim import QueueNetwork, TopologyConfig

R_FLOOR = 1e-3  # throughput-ratio clamp so the reward stays finite


def reward(arrivals: int, exits: int, edge_means: Sequence[float]) -> float:
    """-(mean of edge_means) / throughput ratio exits / arrivals, the ratio
    clamped below at R_FLOOR; 0.0 delay when edge_means is empty.
    NoArrivals when arrivals is 0."""
    if arrivals == 0:
        raise NoArrivals("no external arrival has occurred yet")
    mean_delay = sum(edge_means) / len(edge_means) if edge_means else 0.0
    ratio = max(exits / arrivals, R_FLOOR)
    return -mean_delay / ratio


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
        self.net = QueueNetwork(config, seed, interarrival_noise, reward_skip)
        self.serviced_edges = self.net.serviced_edge_types

    @property
    def state_dim(self) -> int:
        return len(self.serviced_edges)

    @property
    def action_dim(self) -> int:
        return len(self.serviced_edges)

    def reset(self, seed: int) -> np.ndarray:
        """Rebuild the network from its config, noise hook and reward skip;
        returns the all-zero state."""
        self.net = QueueNetwork(self.config, seed, self.net.interarrival_noise, self.net.skip)
        return self.get_state()

    def get_state(self) -> np.ndarray:
        return np.array(self.net.mean_delays(), dtype=float)

    def get_next_state(self, action: np.ndarray) -> np.ndarray:
        """Install the action's routing, advance the simulation one step."""
        self.net.set_routing(action)
        self.net.simulate(self.events_per_step)
        return self.get_state()

    def get_reward(self) -> float:
        """The reward over the whole run so far. An edge's serviced delay is
        the mean over its exited traversals at arrival index reward_skip or
        above, so each edge's first reward_skip jobs are left out, and edges
        with no such traversal are left out of the delay average. The delay
        average, divided by a throughput ratio down to R_FLOOR, can overflow
        where the delays do not; that raises ConfigError."""
        net = self.net
        value = reward(sum(net.arrivals_total.values()), sum(net.exits_total.values()),
                       net.counted_means())
        if not math.isfinite(value):
            raise ConfigError(
                f"the reward overflowed float range after {net.events} events (clock "
                f"{net.clock}): interarrival gaps and service times must add up to a shorter time")
        return value
