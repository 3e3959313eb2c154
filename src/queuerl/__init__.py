"""Simulation-driven reinforcement learning for queueing-network routing."""

from .netsim import (
    QueueNetwork,
    TopologyConfig,
    feed_forward_topology,
    figure_topology,
)
from .rl_env import RlEnv
from .buffer import ReplayBuffer
from .model import Adam, Mlp
from .agent import AgentParams, DdpgAgent, TrainingTrace, load_agent, save_agent
from .exploration import StateTracker, choose_start_mode, train_with_blockage_exploration

__all__ = [
    "Adam",
    "AgentParams",
    "DdpgAgent",
    "Mlp",
    "QueueNetwork",
    "ReplayBuffer",
    "RlEnv",
    "StateTracker",
    "TopologyConfig",
    "TrainingTrace",
    "choose_start_mode",
    "feed_forward_topology",
    "figure_topology",
    "load_agent",
    "save_agent",
    "train_with_blockage_exploration",
]
