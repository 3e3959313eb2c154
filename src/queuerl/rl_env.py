"""RL view of a queueing network.

State: mean end-to-end delay per serviced edge (ascending edge-type order),
with the current clock standing in for jobs still on an edge. Action: one
weight in [0, 1] per serviced edge; a masking step turns the weights into
per-node routing distributions. Reward: -(mean of per-edge serviced delays)
divided by the network throughput ratio.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NoArrivals
from .netsim import QueueNetwork, TopologyConfig, build_network

R_FLOOR = 1e-3  # throughput-ratio clamp so the reward stays finite
UNIFORM_FALLBACK_EPS = 1e-6


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
            raise ValueError("events_per_step must be >= 1")
        if reward_skip < 0:
            raise ValueError("reward_skip must be >= 0")
        self.config = config
        self.events_per_step = events_per_step
        self.reward_skip = reward_skip
        self.interarrival_noise = interarrival_noise
        self.step_count = 0
        self.net: QueueNetwork = build_network(config, seed, interarrival_noise, reward_skip)

        self.serviced_edges = self.net.serviced_edge_types
        self._edge_index = {e: i for i, e in enumerate(self.serviced_edges)}

    @property
    def state_dim(self) -> int:
        return len(self.serviced_edges)

    @property
    def action_dim(self) -> int:
        return len(self.serviced_edges)

    def reset(self, seed: int) -> np.ndarray:
        """Rebuild the network from its config; returns the all-zero state."""
        self.net = build_network(self.config, seed, self.interarrival_noise, self.reward_skip)
        self.step_count = 0
        return self.get_state()

    def get_state(self) -> np.ndarray:
        return np.array(
            [self.net.edge_mean_delay(e) for e in self.serviced_edges], dtype=float
        )

    def action_to_transition_probas(self, action: np.ndarray) -> dict[int, dict[int, float]]:
        """Mask the action through the edge list and normalize per node.

        For each node the weights of its outgoing serviced edges are pulled
        out of the action by edge-type position and rescaled to sum to one;
        an all-zero extraction falls back to the uniform distribution.
        """
        action = np.asarray(action, dtype=float)
        if action.shape != (self.action_dim,):
            raise DimensionMismatch(
                f"action has shape {action.shape}, expected ({self.action_dim},)"
            )
        tmap: dict[int, dict[int, float]] = {}
        for node, succs in self.config.edge_list.items():
            ordered = sorted(succs)
            weights = []
            for succ in ordered:
                etype = succs[succ]
                weights.append(action[self._edge_index[etype]] if etype in self._edge_index else 0.0)
            total = float(sum(weights))
            if total < UNIFORM_FALLBACK_EPS:
                row = {succ: 1.0 / len(ordered) for succ in ordered}
            else:
                row = {succ: w / total for succ, w in zip(ordered, weights)}
            tmap[node] = row
        return tmap

    def get_next_state(self, action: np.ndarray) -> np.ndarray:
        """Install the action's routing, advance the simulation one step."""
        self.net.set_transition_map(self.action_to_transition_probas(action))
        self.net.simulate(self.events_per_step)
        self.step_count += 1
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
