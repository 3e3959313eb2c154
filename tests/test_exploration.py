import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from queuerl.agent import AgentParams, DdpgAgent
from queuerl.errors import ConfigError, NoBlockableNodes
from queuerl.exploration import (
    KEY_CAPACITY,
    PERIPHERAL_CAPACITY,
    StateTracker,
    choose_start_mode,
    train_with_blockage_exploration,
)
from queuerl.netsim import TopologyConfig, figure_topology
from queuerl.rl_env import RlEnv
from topologies import mm1_topology


def tiny_params(**overrides) -> AgentParams:
    base = dict(
        hidden_sizes=(8, 8),
        batch_size=4,
        num_samples=4,
        planning_steps=0,
        buffer_capacity=64,
        num_episodes=4,
        num_timesteps=3,
        events_per_step=40,
        seed=0,
    )
    base.update(overrides)
    return AgentParams(**base)


# -- start mode choice ---------------------------------------------------------


def test_all_weight_on_normal_never_blocks():
    cfg = figure_topology()
    rng = random.Random(0)
    modes = [choose_start_mode(1.0, 0.0, cfg, rng) for _ in range(200)]
    assert all(m is None for m in modes)


def test_all_weight_on_blockage_never_normal():
    cfg = figure_topology()
    rng = random.Random(1)
    modes = [choose_start_mode(0.0, 1.0, cfg, rng) for _ in range(200)]
    assert all(m is not None for m in modes)


def test_equal_weights_split_half_and_half():
    cfg = figure_topology()
    rng = random.Random(2)
    draws = [choose_start_mode(0.5, 0.5, cfg, rng) is None for _ in range(10_000)]
    assert abs(sum(draws) / len(draws) - 0.5) < 0.01


def test_blocked_node_uniform_over_interior():
    cfg = figure_topology()
    assert cfg.blockable_nodes() == list(range(1, 10))
    rng = random.Random(3)
    counts = Counter(choose_start_mode(0.0, 1.0, cfg, rng) for _ in range(10_000))
    observed = [counts[n] for n in cfg.blockable_nodes()]
    assert stats.chisquare(observed).pvalue > 0.01


def test_no_blockable_nodes_raises():
    cfg = TopologyConfig(
        num_nodes=4,
        edge_list={0: {1: 1}, 1: {2: 0}, 3: {1: 2}},
        entry_edges={1},
        exit_edges={0, 2},
        arrival_rate=0.5,
        service_rates={1: 2.0},
    )
    assert cfg.blockable_nodes() == []
    with pytest.raises(NoBlockableNodes):
        choose_start_mode(0.5, 0.5, cfg, random.Random(0))


def test_weight_validation():
    for w1, w2 in [(0.0, 0.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)]:
        with pytest.raises(ConfigError, match="w1 and w2"):
            choose_start_mode(w1, w2, figure_topology(), random.Random(0))


# -- state tracker ---------------------------------------------------------------


def test_tracker_first_insertion():
    tracker = StateTracker()
    state = np.array([1.23, 4.56])
    tracker.record_visit(state, -2.0)
    assert len(tracker.key_states) == 1
    assert tracker.peripheral_states[(1.2, 4.6)] == 1


def test_tracker_keeps_highest_impact_states():
    tracker = StateTracker()
    rewards = [-float(r) for r in np.random.default_rng(0).permutation(KEY_CAPACITY + 10)]
    for reward in rewards:
        tracker.record_visit(np.array([reward]), reward)
    kept = sorted(r for _, r in tracker.key_states)
    assert kept == sorted(rewards)[:KEY_CAPACITY]
    impacts = [abs(r) for _, r in tracker.key_states]
    assert impacts == sorted(impacts, reverse=True)


def test_tracker_counts_repeat_visits():
    tracker = StateTracker()
    state = np.array([0.71, 0.33])
    for _ in range(3):
        tracker.record_visit(state, -1.0)
    assert tracker.peripheral_states[tracker.signature(state)] == 3


def test_tracker_capacities_never_exceeded():
    tracker = StateTracker()
    rng = np.random.default_rng(0)
    for i in range(PERIPHERAL_CAPACITY + 50):
        tracker.record_visit(rng.uniform(0, 100, 2), float(rng.normal()))
        assert len(tracker.key_states) <= KEY_CAPACITY
        assert len(tracker.peripheral_states) <= PERIPHERAL_CAPACITY
    assert len(tracker.key_states) == KEY_CAPACITY
    assert len(tracker.peripheral_states) == PERIPHERAL_CAPACITY


# -- blockage exploration training --------------------------------------------------


def test_w2_zero_reduces_to_plain_training():
    cfg = mm1_topology(0.5, 1.0)
    params = tiny_params(w1=1.0, w2=0.0)

    agent_a = DdpgAgent(1, 1, params)
    trace_a = train_with_blockage_exploration(agent_a, cfg)

    env = RlEnv(cfg, seed=params.seed, events_per_step=params.events_per_step)
    agent_b = DdpgAgent(1, 1, params)
    trace_b = agent_b.train(env)

    assert trace_a.episode_rewards == trace_b.episode_rewards
    assert trace_a.episode_modes == trace_b.episode_modes == ["normal"] * 4
    assert len(trace_a.step_losses) > 0
    assert trace_a.step_losses == trace_b.step_losses
    nets_b = agent_b.named_networks()
    for name, net in agent_a.named_networks().items():
        assert np.array_equal(net.params, nets_b[name].params), name


def test_blockage_exploration_in_chunks_is_one_run():
    # the start-mode and episode-seed streams live on the agent, so four
    # one-episode calls make the run that one four-episode call makes
    cfg = figure_topology()
    dim = len(cfg.serviced_edges())
    whole = DdpgAgent(dim, dim, tiny_params(w1=0.5, w2=0.5, num_episodes=4))
    straight = train_with_blockage_exploration(whole, cfg)
    chunked = DdpgAgent(dim, dim, tiny_params(w1=0.5, w2=0.5, num_episodes=1))
    chunks = [train_with_blockage_exploration(chunked, cfg) for _ in range(4)]
    assert len(set(straight.episode_modes)) > 1
    assert straight.episode_modes == [m for t in chunks for m in t.episode_modes]
    assert straight.episode_rewards == [r for t in chunks for r in t.episode_rewards]
    nets = chunked.named_networks()
    for name, net in whole.named_networks().items():
        assert net.params.tobytes() == nets[name].params.tobytes(), name


def test_train_blocks_the_chosen_node_and_labels_it():
    cfg = figure_topology()
    params = tiny_params(num_episodes=3)
    env = RlEnv(cfg, seed=0, events_per_step=params.events_per_step)
    agent = DdpgAgent(env.state_dim, env.action_dim, params)
    trace = agent.train(env, choose_blocked_node=lambda: 4)
    assert trace.episode_modes == ["blocked:4"] * 3
    assert env.net.blocked_nodes == {4}


@pytest.mark.parametrize("chooser", [None, lambda: None], ids=["no_chooser", "returns_none"])
def test_train_without_a_blocked_node_labels_every_episode_normal(chooser):
    cfg = figure_topology()
    params = tiny_params(num_episodes=3)
    env = RlEnv(cfg, seed=0, events_per_step=params.events_per_step)
    agent = DdpgAgent(env.state_dim, env.action_dim, params)
    tracker = StateTracker()
    trace = agent.train(env, choose_blocked_node=chooser, tracker=tracker)
    assert trace.episode_modes == ["normal"] * 3
    assert env.net.blocked_nodes == set()
    assert tracker.key_states == []


def test_blocked_episodes_apply_blockage_and_track_visits():
    cfg = figure_topology()
    params = tiny_params(w1=0.0, w2=1.0, num_episodes=3)
    env = RlEnv(cfg, seed=0, events_per_step=params.events_per_step)
    agent = DdpgAgent(env.state_dim, env.action_dim, params)
    tracker = StateTracker()
    trace = train_with_blockage_exploration(agent, cfg, tracker=tracker)
    assert all(m.startswith("blocked:") for m in trace.episode_modes)
    assert len(tracker.key_states) > 0
    # the last episode's blockage is still installed on the env the run used
    blocked = {int(m.split(":")[1]) for m in trace.episode_modes}
    assert blocked <= set(cfg.blockable_nodes())


def test_episode_label_frequency_tracks_weights():
    cfg = figure_topology()
    params = tiny_params(w1=0.5, w2=0.5, num_episodes=200, num_timesteps=1,
                         batch_size=10_000, buffer_capacity=10_000)  # no updates, just labels
    env = RlEnv(cfg, seed=0, events_per_step=10)
    agent = DdpgAgent(env.state_dim, env.action_dim, params)
    trace = train_with_blockage_exploration(agent, cfg)
    normal_frac = trace.episode_modes.count("normal") / len(trace.episode_modes)
    assert abs(normal_frac - 0.5) < 0.05
