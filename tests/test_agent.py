import copy
import json
import struct

import numpy as np
import pytest

from queuerl import agent as agent_module
from queuerl.agent import AgentParams, DdpgAgent, load_agent, save_agent
from queuerl.errors import (
    CheckpointError,
    ConfigError,
    DimensionMismatch,
    EmptyBuffer,
    InsufficientBuffer,
)
from queuerl.model import Mlp
from queuerl.netsim import figure_topology, mm1_topology
from queuerl.rl_env import RlEnv


def small_params(**overrides) -> AgentParams:
    base = dict(
        hidden_sizes=(16, 16),
        batch_size=4,
        num_samples=4,
        planning_steps=1,
        buffer_capacity=64,
        num_episodes=2,
        num_timesteps=5,
        seed=0,
    )
    base.update(overrides)
    return AgentParams(**base)


def make_agent(state_dim=4, action_dim=4, **overrides) -> DdpgAgent:
    return DdpgAgent(state_dim, action_dim, small_params(**overrides))


def random_transition(rng, ds=4, da=4):
    """One (state, action, reward, next_state) transition."""
    return (rng.uniform(0, 10, ds), rng.uniform(0, 1, da), float(rng.normal()),
            rng.uniform(0, 10, ds))


def stack(transitions):
    """Transitions as the (s, a, r, s2) arrays the agent's updates take."""
    s, a, r, s2 = zip(*transitions)
    return np.stack(s), np.stack(a), np.array(r, dtype=float), np.stack(s2)


def random_batch(rng, n):
    return stack([random_transition(rng) for _ in range(n)])


def network_params_snapshot(agent):
    return {name: net.params.copy() for name, net in agent.named_networks().items()}


def params_equal(a, b):
    return all(np.array_equal(a[name], b[name]) for name in a)


# -- action selection ---------------------------------------------------------


def test_zero_initialized_actor_outputs_half():
    agent = make_agent()
    for w in agent.actor.weights:
        w[:] = 0.0
    for b in agent.actor.biases:
        b[:] = 0.0
    action = agent.select_action(np.array([5.0, 0.0, 123.4, 2.2]))
    assert np.all(action == 0.5)


def test_select_action_shape_range_and_purity():
    agent = make_agent()
    state = np.array([1.0, 2.0, 0.0, 40.0])
    a1 = agent.select_action(state)
    a2 = agent.select_action(state)
    assert a1.shape == (4,)
    assert np.all((a1 > 0) & (a1 < 1))
    assert np.array_equal(a1, a2)


def test_select_action_dimension_mismatch():
    agent = make_agent()
    with pytest.raises(DimensionMismatch):
        agent.select_action(np.zeros(3))


def test_explore_action_zero_noise_equals_select():
    agent = make_agent()
    state = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(agent.explore_action(state, 0.0), agent.select_action(state))


def test_explore_action_clamps_to_unit_interval():
    agent = make_agent()
    rng = np.random.default_rng(0)
    state = np.array([1.0, 2.0, 3.0, 4.0])
    at_bounds = 0
    total = 0
    for _ in range(1000):
        a = agent.explore_action(state, 10.0, rng)
        assert np.all((a >= 0.0) & (a <= 1.0))
        at_bounds += int(np.sum((a == 0.0) | (a == 1.0)))
        total += a.size
    assert at_bounds / total > 0.8  # sigma 10 noise saturates the clamp


# -- critic update ---------------------------------------------------------------


def test_critic_loss_hand_computed_with_zero_discount():
    agent = make_agent(discount=0.0)
    rng = np.random.default_rng(1)
    batch = random_batch(rng, 2)
    s, a, r, _ = batch
    q = agent.critic.forward(np.concatenate([agent._phi(s), a], axis=1))[:, 0]
    expected = float(np.mean((q - r) ** 2))
    assert agent.update_critic_network(batch) == pytest.approx(expected, rel=1e-12)


def test_critic_loss_of_identical_experiences_matches_single():
    rng = np.random.default_rng(2)
    e = random_transition(rng)
    a = make_agent(discount=0.0, seed=5)
    b = make_agent(discount=0.0, seed=5)
    loss_many = a.update_critic_network(stack([e] * 6))
    loss_one = b.update_critic_network(stack([e]))
    assert loss_many == pytest.approx(loss_one, rel=1e-12)


def test_critic_descends_on_fixed_batch():
    agent = make_agent(discount=0.0, learning_rate=1e-4)
    rng = np.random.default_rng(3)
    batch = random_batch(rng, 4)
    losses = [agent.update_critic_network(batch) for _ in range(50)]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_critic_update_rejects_malformed_experience():
    agent = make_agent()
    bad = stack([(np.zeros(3), np.zeros(4), 0.0, np.zeros(3))])
    with pytest.raises(DimensionMismatch):
        agent.update_critic_network(bad)


# -- actor update ----------------------------------------------------------------


def linear_probe_critic(ds, da):
    """Critic with Q(s, a) = sum(a), built as a single linear layer."""
    probe = Mlp([ds + da, 1], "identity", np.random.default_rng(0))
    probe.weights[0][:, 0] = np.concatenate([np.zeros(ds), np.ones(da)])
    probe.biases[0][:] = 0.0
    return probe


def test_actor_update_increases_actions_under_sum_critic():
    agent = make_agent(learning_rate=1e-2)
    agent.critic = linear_probe_critic(4, 4)
    rng = np.random.default_rng(4)
    batch = random_batch(rng, 4)
    before = np.mean([agent.select_action(s).mean() for s in batch[0]])
    agent.update_actor_network(batch)
    after = np.mean([agent.select_action(s).mean() for s in batch[0]])
    assert after > before


def test_actor_loss_is_negative_q_for_single_sample():
    agent = make_agent()
    rng = np.random.default_rng(5)
    e = random_transition(rng)
    phi = agent._phi(e[0][None, :])
    a = agent.actor.forward(phi)
    q = float(agent.critic.forward(np.concatenate([phi, a], axis=1))[0, 0])
    assert agent.update_actor_network(stack([e])) == pytest.approx(-q, rel=1e-12)


def test_actor_update_leaves_critic_untouched():
    agent = make_agent()
    rng = np.random.default_rng(6)
    batch = random_batch(rng, 4)
    before = agent.critic.params.copy()
    agent.update_actor_network(batch)
    assert np.array_equal(before, agent.critic.params)
    assert not agent.critic.grads.any()


# -- targets ----------------------------------------------------------------------


def test_targets_start_equal_and_lag_after_updates():
    agent = make_agent()
    assert np.array_equal(agent.critic.params, agent.target_critic.params)
    rng = np.random.default_rng(7)
    agent.update_critic_network(random_batch(rng, 4))
    assert not np.array_equal(agent.critic.params, agent.target_critic.params)


def test_soft_update_full_copy_with_tau_one():
    agent = make_agent(tau=1.0)
    rng = np.random.default_rng(8)
    agent.update_critic_network(random_batch(rng, 4))
    agent.update_actor_network(random_batch(rng, 4))
    agent.soft_update_targets()
    assert np.array_equal(agent.critic.params, agent.target_critic.params)
    assert np.array_equal(agent.actor.params, agent.target_actor.params)


def test_soft_update_halfway_scalar_probe():
    agent = make_agent(tau=0.5)
    agent.actor.weights[0][:] = 2.0
    agent.target_actor.weights[0][:] = 1.0
    agent.soft_update_targets()
    assert np.all(agent.target_actor.weights[0] == 1.5)


# -- model fitting -----------------------------------------------------------------


def test_fit_model_empty_buffer_raises():
    with pytest.raises(EmptyBuffer):
        make_agent().fit_model()


def test_fit_model_memorizes_single_experience():
    agent = make_agent(learning_rate=1e-2, num_epochs=50)
    rng = np.random.default_rng(9)
    agent.buffer.push(*random_transition(rng))
    for _ in range(12):
        ns_loss, r_loss = agent.fit_model()
    assert ns_loss < 1e-4
    assert r_loss < 1e-4


def test_fit_model_learns_identity_environment():
    agent = make_agent(learning_rate=1e-2, num_epochs=20)
    rng = np.random.default_rng(10)
    for _ in range(6):
        s = rng.uniform(0, 5, 4)
        agent.buffer.push(s, rng.uniform(0, 1, 4), 0.0, s.copy())
    for _ in range(25):
        ns_loss, r_loss = agent.fit_model()
    assert ns_loss < 1e-3
    assert r_loss < 1e-3


def test_fit_model_losses_finite_on_random_buffer():
    agent = make_agent()
    rng = np.random.default_rng(11)
    for _ in range(20):
        agent.buffer.push(*random_transition(rng))
    ns_loss, r_loss = agent.fit_model()
    assert np.isfinite(ns_loss) and ns_loss >= 0
    assert np.isfinite(r_loss) and r_loss >= 0


# -- planning ----------------------------------------------------------------------


def test_plan_requires_warm_buffer():
    agent = make_agent()
    with pytest.raises(InsufficientBuffer):
        agent.plan()


def test_plan_zero_steps_changes_nothing():
    agent = make_agent(planning_steps=0)
    rng = np.random.default_rng(12)
    for _ in range(6):
        agent.buffer.push(*random_transition(rng))
    before = network_params_snapshot(agent)
    assert agent.plan() == []
    assert params_equal(before, network_params_snapshot(agent))


def test_plan_performs_exactly_planning_steps_updates():
    agent = make_agent(planning_steps=3)
    rng = np.random.default_rng(13)
    for _ in range(6):
        agent.buffer.push(*random_transition(rng))
    losses = agent.plan()
    assert len(losses) == 3  # one (critic, actor) update pair per step
    assert all(len(pair) == 2 for pair in losses)
    assert agent.buffer.size == 6  # hallucinations never stored


def test_plan_with_fitted_models_moves_like_real_updates():
    # single stored experience whose action is the actor's own choice
    agent = make_agent(learning_rate=1e-3, num_epochs=40, planning_steps=1, epsilon=0.0,
                       batch_size=1, num_samples=4)
    s = np.array([1.0, 2.0, 3.0, 4.0])
    a = agent.select_action(s)
    exp = (s, a, -2.0, s * 1.5)
    agent.buffer.push(*exp)
    for _ in range(20):
        agent.fit_model()

    real = copy.deepcopy(agent)
    dreamed = copy.deepcopy(agent)
    real.update_critic_network(stack([exp] * 4))
    real.update_actor_network(stack([exp] * 4))
    dreamed.plan()

    def delta(after, before, net):
        return after.named_networks()[net].params - before.named_networks()[net].params

    for net in ("actor", "critic"):
        dr = delta(real, agent, net)
        dp = delta(dreamed, agent, net)
        cosine = float(dr @ dp / (np.linalg.norm(dr) * np.linalg.norm(dp)))
        assert cosine > 0.0


# -- training loop ------------------------------------------------------------------


def test_train_accounting_without_updates():
    cfg = mm1_topology(0.5, 1.0)
    env = RlEnv(cfg, seed=0, events_per_step=50)
    agent = DdpgAgent(env.state_dim, env.action_dim,
                      small_params(num_episodes=1, num_timesteps=5, planning_steps=0,
                                   batch_size=100))
    trace = agent.train(env)
    assert len(trace.episode_rewards) == 1
    assert len(trace.episode_rewards[0]) == 5
    assert agent.buffer.size == 5
    assert trace.step_losses == []
    assert trace.episode_modes == ["normal"]


def test_train_runs_updates_and_records_losses():
    cfg = mm1_topology(0.5, 1.0)
    env = RlEnv(cfg, seed=0, events_per_step=50)
    agent = DdpgAgent(env.state_dim, env.action_dim,
                      small_params(num_episodes=2, num_timesteps=4, batch_size=2,
                                   planning_steps=2, target_update_frequency=2))
    trace = agent.train(env)
    n_updating_steps = len(trace.step_losses)
    assert n_updating_steps > 0
    # each updating step adds one real + planning_steps extra actor/critic entries
    assert len(trace.actor_losses) == n_updating_steps * 3
    assert len(trace.critic_losses) == n_updating_steps * 3
    assert all(np.isfinite(v) for v in trace.actor_losses + trace.critic_losses)
    assert len(trace.flat_tmaps()) == 8


def test_train_is_reproducible():
    cfg = mm1_topology(0.5, 1.0)

    def run():
        env = RlEnv(cfg, seed=0, events_per_step=50)
        agent = DdpgAgent(env.state_dim, env.action_dim,
                          small_params(num_episodes=2, num_timesteps=4, batch_size=2))
        return agent.train(env)

    t1, t2 = run(), run()
    assert t1.episode_rewards == t2.episode_rewards
    assert t1.actor_losses == t2.actor_losses


def test_losses_stay_finite_under_fuzzing():
    agent = make_agent(batch_size=8, learning_rate=1e-2)
    rng = np.random.default_rng(14)
    for _ in range(64):
        agent.buffer.push(*random_transition(rng))
    for i in range(1000):
        batch = agent.buffer.sample(8, agent.rng)
        closs = agent.update_critic_network(batch)
        aloss = agent.update_actor_network(batch)
        assert np.isfinite(closs) and np.isfinite(aloss)
        if i % 10 == 0:
            agent.soft_update_targets()


def test_make_agent_is_sized_like_the_environment():
    for cfg in (mm1_topology(0.5, 1.0), figure_topology()):
        env = RlEnv(cfg)
        agent = agent_module.make_agent(cfg, small_params())
        assert (agent.state_dim, agent.action_dim) == (env.state_dim, env.action_dim)


# -- params validation ----------------------------------------------------------------


def test_agent_params_domain_checks():
    with pytest.raises(ConfigError):
        small_params(tau=1.5).validate()
    with pytest.raises(ConfigError):
        small_params(tau=0.0).validate()
    with pytest.raises(ConfigError):
        small_params(discount=1.0).validate()
    with pytest.raises(ConfigError):
        small_params(learning_rate=-1.0).validate()
    with pytest.raises(ConfigError):
        small_params(w1=0.0, w2=0.0).validate()


# -- checkpointing -----------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    agent = make_agent(seed=21)
    rng = np.random.default_rng(15)
    for _ in range(8):
        agent.buffer.push(*random_transition(rng))
    batch = agent.buffer.sample(4, agent.rng)
    agent.update_critic_network(batch)
    agent.update_actor_network(batch)
    agent.soft_update_targets()

    path = tmp_path / "agent.agent"
    save_agent(agent, str(path))
    loaded = load_agent(str(path))
    assert loaded.params == agent.params
    for name, net in agent.named_networks().items():
        assert np.array_equal(net.params, loaded.named_networks()[name].params)
    state = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(agent.select_action(state), loaded.select_action(state))
    resaved = tmp_path / "resaved.agent"
    save_agent(loaded, str(resaved))
    assert resaved.read_bytes() == path.read_bytes()


def test_checkpoint_rejects_garbage_and_truncation(tmp_path):
    bad = tmp_path / "bad.agent"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_agent(str(bad))

    agent = make_agent()
    path = tmp_path / "ok.agent"
    save_agent(agent, str(path))
    data = path.read_bytes()
    truncated = tmp_path / "trunc.agent"
    truncated.write_bytes(data[: len(data) - 64])
    with pytest.raises(CheckpointError):
        load_agent(str(truncated))
    padded = tmp_path / "padded.agent"
    padded.write_bytes(data + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        load_agent(str(padded))

    # shorter than the magic and the two-word preamble
    short = tmp_path / "short.agent"
    short.write_bytes(data[:12])
    with pytest.raises(CheckpointError):
        load_agent(str(short))

    (header_len,) = struct.unpack_from("<I", data, 12)
    header = json.loads(data[16 : 16 + header_len])
    weights = data[16 + header_len :]

    def with_header(name, edit):
        doc = copy.deepcopy(header)
        edit(doc)
        blob = json.dumps(doc, sort_keys=True).encode()
        out = tmp_path / name
        out.write_bytes(data[:8] + struct.pack("<II", 1, len(blob)) + blob + weights)
        return str(out)

    with pytest.raises(CheckpointError):
        load_agent(with_header("no_params.agent", lambda doc: doc.pop("params")))
    with pytest.raises(CheckpointError):
        load_agent(with_header("unknown_field.agent",
                               lambda doc: doc["params"].update(not_a_field=1)))
    for dim in ("state_dim", "action_dim"):
        with pytest.raises(CheckpointError):
            load_agent(with_header(f"zero_{dim}.agent", lambda doc: doc.update({dim: 0})))
