"""Golden trace: a short seeded training run must reproduce bit for bit.

The run is `train_with_blockage_exploration` for 3 episodes of 30 steps on
the figure topology with default AgentParams and a fixed seed. Its episode
rewards, its losses and its checkpoint bytes are pinned by sha256 digest, so
a refactor of the learner either reproduces them exactly or shows up here.
The reports of the frozen-policy evaluators run on the trained agent are
pinned the same way, so a refactor of the simulator, the reward or the
rollout loops does too.
The networks compute in float32 and everything else in float64, so the
digests depend on both; a BLAS build whose float32 matrix kernels round
differently would change them.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from queuerl.agent import AgentParams, DdpgAgent, save_agent
from queuerl.evaluation import NoiseConfig, evaluate_disruption, evaluate_noise, evaluate_policy
from queuerl.exploration import train_with_blockage_exploration
from queuerl.netsim import figure_topology

SEED = 0  # episodes start normal, blocked at node 4, blocked at node 7
REWARDS_SHA256 = "3fde5d1af0a34c13085cc5870cf0cb8fc4e88352879600415cce81521bce0e5e"
LOSSES_SHA256 = "3da9a5d2155deec663ec39fa6a011034b2a1ba7cbf624451acf2d30b7498f28a"
CHECKPOINT_SHA256 = "8e2039e5024c0834969f3014f7514a4d63bebba1513a4d47491b0592efca78f4"
EVALUATOR_SHA256 = {
    "policy_skip0": "a5db213529fecf3e7ffd5a6cc8eb6d0867a32eafe453651ed0b39cc7f46b273e",
    "policy_skip10": "aad1e521bc35d33d929e9eeff675b984b31045649818bd206808a3648a26018f",
    "noise": "c277d68053bd09f759cec9c50c8ae841826cfa132bac2f3c608e89574bafeb95",
    "disruption": "24108ca4f183ced02ba4a685c60ee1e637e81602d52bebc56109a67d70e95c1f",
}


def _sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def _report_sha256(report) -> str:
    # json writes floats by repr, which round-trips float64 exactly
    if dataclasses.is_dataclass(report):
        report = dataclasses.asdict(report)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_run():
    cfg = figure_topology()
    params = AgentParams(seed=SEED, num_episodes=3, num_timesteps=30)
    dim = len(cfg.serviced_edges())
    agent = DdpgAgent(dim, dim, params)
    trace = train_with_blockage_exploration(agent, cfg)
    return cfg, agent, trace


def test_golden_training_trace(golden_run, tmp_path):
    cfg, agent, trace = golden_run
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


def test_golden_evaluator_reports(golden_run):
    # the evaluators only read the agent's frozen policy
    cfg, agent, _ = golden_run
    reports = {
        "policy_skip0": evaluate_policy(agent, cfg, timesteps=60, seed=1),
        "policy_skip10": evaluate_policy(agent, cfg, timesteps=60, seed=1, reward_skip=10),
        "noise": evaluate_noise(agent, cfg, NoiseConfig(variance=0.5), timesteps=40, seed=2),
        "disruption": evaluate_disruption(agent, cfg, node=3, steps=30, seed=3),
    }
    assert {name: _report_sha256(r) for name, r in reports.items()} == EVALUATOR_SHA256
