"""Golden trace: a short seeded training run must reproduce bit for bit.

The run is `train_with_blockage_exploration` for 3 episodes of 30 steps on
the figure topology with default AgentParams and a fixed seed. Its episode
rewards, its losses and its checkpoint bytes are pinned by sha256 digest, so
a refactor of the learner either reproduces them exactly or shows up here.
The digests depend on float64 arithmetic only; a BLAS build whose matrix
kernels round differently would change them.
"""

import hashlib

import numpy as np

from queuerl.agent import AgentParams, DdpgAgent, save_agent
from queuerl.exploration import train_with_blockage_exploration
from queuerl.netsim import figure_topology

SEED = 0  # episodes start normal, blocked at node 4, blocked at node 7
REWARDS_SHA256 = "3fde5d1af0a34c13085cc5870cf0cb8fc4e88352879600415cce81521bce0e5e"
LOSSES_SHA256 = "cc4f4f97ac6d1de510e29684a883ea0c602c04e9ad278eb6f4656b9d7d4d6b92"
CHECKPOINT_SHA256 = "669595c61f8fe8104f0565e7612388048e4a1346f67c744dd84cd21a4f063ed3"


def _sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def test_golden_training_trace(tmp_path):
    cfg = figure_topology()
    params = AgentParams(seed=SEED, num_episodes=3, num_timesteps=30)
    dim = len(cfg.serviced_edges())
    agent = DdpgAgent(dim, dim, params)
    trace = train_with_blockage_exploration(agent, cfg, params)
    path = tmp_path / "golden.agent"
    save_agent(agent, str(path))

    rewards = [r for episode in trace.episode_rewards for r in episode]
    losses = np.concatenate([np.asarray(trace.step_losses, dtype="<f8").ravel(),
                             trace.actor_losses, trace.critic_losses])
    assert len(rewards) == 90
    assert len(trace.step_losses) > 0
    assert _sha256(rewards) == REWARDS_SHA256
    assert _sha256(losses) == LOSSES_SHA256
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256
