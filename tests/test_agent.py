import copy
import json
import math
import numbers
import re
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuerl import agent as agent_module
from queuerl.agent import AgentParams, DdpgAgent, load_agent, save_agent
from queuerl.errors import (
    CheckpointError,
    ConfigError,
    DimensionMismatch,
    InsufficientBuffer,
)
from queuerl.evaluation import evaluate_policy
from queuerl.model import Mlp
from queuerl.netsim import figure_topology
from queuerl.rl_env import RlEnv
from topologies import mm1_topology


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
    """One raw (state, action, reward, next_state) transition."""
    return (rng.uniform(0, 10, ds), rng.uniform(0, 1, da), float(rng.normal()),
            rng.uniform(0, 10, ds))


def stack(transitions):
    """Raw transitions as the float32 batch (x = [phi(s), a], r, phi(s2))
    that ReplayBuffer.columns splits stored rows into and the critic
    update takes."""
    s, a, r, s2 = zip(*transitions)
    x = np.concatenate([DdpgAgent._phi(np.stack(s)), np.stack(a).astype(np.float32)], axis=1)
    return x, np.array(r, dtype=np.float32), DdpgAgent._phi(np.stack(s2))


def random_batch(rng, n):
    return stack([random_transition(rng) for _ in range(n)])


def batch_states(batch, state_dim=4):
    """The phi(s) rows of a batch: the first state_dim columns of its x."""
    return batch[0][:, :state_dim]


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


def recording_env(cfg, **kwargs):
    """An RlEnv that keeps, per episode, a copy of every state it returns
    (reset's, then each step's), in env.episodes."""
    env = RlEnv(cfg, **kwargs)
    env.episodes = []
    reset, step = env.reset, env.get_next_state

    def recorded_reset(seed):
        state = reset(seed)
        env.episodes.append([state.copy()])
        return state

    def recorded_step(action):
        state = step(action)
        env.episodes[-1].append(state.copy())
        return state

    env.reset, env.get_next_state = recorded_reset, recorded_step
    return env


def non_updating_train(epsilon, num_timesteps):
    """Train one episode that never updates (the batch outsizes the run);
    returns the agent, its installed routing weights and the states acted on."""
    env = recording_env(figure_topology(), seed=0, events_per_step=20)
    agent = DdpgAgent(env.state_dim, env.action_dim, small_params(
        epsilon=epsilon, num_episodes=1, num_timesteps=num_timesteps,
        batch_size=num_timesteps + 1, buffer_capacity=num_timesteps + 1))
    trace = agent.train(env)
    assert trace.actor_losses == []
    return agent, trace.episode_weights[0], env.episodes[0][:-1]


def test_explore_action_zero_noise_equals_select():
    agent, weights, states = non_updating_train(epsilon=0.0, num_timesteps=5)
    for row, state in zip(weights, states, strict=True):
        assert np.array_equal(row, agent.select_action(state))


def test_explore_action_clamps_to_unit_interval():
    agent, weights, _ = non_updating_train(epsilon=10.0, num_timesteps=100)
    assert np.all((weights >= 0.0) & (weights <= 1.0))
    at_bounds = np.mean((weights == 0.0) | (weights == 1.0))
    assert at_bounds > 0.8  # sigma 10 noise saturates the clamp
    x = agent.buffer.columns(agent.buffer.stored())[0]
    assert x[:, agent.state_dim :].tobytes() == weights.astype(np.float32).tobytes()


# -- critic update ---------------------------------------------------------------


def test_critic_loss_hand_computed_with_zero_discount():
    agent = make_agent(discount=0.0)
    rng = np.random.default_rng(1)
    batch = random_batch(rng, 2)
    x, r, _ = batch
    q = agent.critic.forward(x)[:, 0]
    expected = float(np.mean((q - r) ** 2))  # in float32, as the update
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
    phi_s = batch_states(random_batch(rng, 4))
    before = agent.actor.forward(phi_s).mean()
    agent.update_actor_network(phi_s, actions=agent.actor.forward(phi_s))
    after = agent.actor.forward(phi_s).mean()
    assert after > before


def test_actor_loss_is_negative_q_for_single_sample():
    agent = make_agent()
    rng = np.random.default_rng(5)
    phi = batch_states(random_batch(rng, 1))
    a = agent.actor.forward(phi)
    q = float(agent.critic.forward(np.concatenate([phi, a], axis=1))[0, 0])
    assert agent.update_actor_network(phi, actions=agent.actor.forward(phi)) == pytest.approx(
        -q, rel=1e-12)


def test_actor_update_leaves_critic_untouched():
    agent = make_agent()
    rng = np.random.default_rng(6)
    batch = random_batch(rng, 4)
    agent.update_critic_network(batch)  # leaves gradients in the critic
    before, grads = agent.critic.params.copy(), agent.critic.grads.copy()
    assert grads.any()
    phi_s = batch_states(batch)
    agent.update_actor_network(phi_s, actions=agent.actor.forward(phi_s))
    assert np.array_equal(before, agent.critic.params)
    assert np.array_equal(grads, agent.critic.grads)


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
    phi_s = batch_states(random_batch(rng, 4))
    agent.update_actor_network(phi_s, actions=agent.actor.forward(phi_s))
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
    with pytest.raises(InsufficientBuffer):
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


def test_saturated_actor_update_stays_finite():
    # output pre-activations of +-1e4 saturate the sigmoid; its clip keeps
    # the actions inside (0, 1), so the update's log(a / (1 - a)) is finite
    agent = make_agent()
    agent.actor.weights[-1][...] = 0.0
    agent.actor.biases[-1][...] = [1e4, -1e4, 1e4, -1e4]
    phi_s = batch_states(random_batch(np.random.default_rng(19), 4))
    actions = agent.actor.forward(phi_s)
    assert np.all((actions > 0.0) & (actions < 1.0))
    assert math.isfinite(agent.update_actor_network(phi_s, actions=actions))
    assert np.all(np.isfinite(agent.actor.params))


def reference_fit_model(agent):
    """fit_model with a fancy-index gather per minibatch and np.mean losses,
    on the stored float32 rows."""
    x, r, y_next = agent.buffer.columns(agent.buffer.stored())
    y_reward = r[:, None]
    n = len(r)
    bs = min(agent.params.batch_size, n)
    for _ in range(agent.params.num_epochs):
        perm = agent.rng.permutation(n)
        ns_batch, r_batch = [], []
        for start in range(0, n, bs):
            idx = perm[start : start + bs]
            xb = x[idx]
            err = agent.next_state_model.forward(xb) - y_next[idx]
            ns_batch.append(float(np.mean(err**2)))
            agent.next_state_model.backward((2.0 / err.size) * err)
            agent.next_state_opt.step()
            err_r = agent.reward_model.forward(xb) - y_reward[idx]
            r_batch.append(float(np.mean(err_r**2)))
            agent.reward_model.backward((2.0 / err_r.size) * err_r)
            agent.reward_opt.step()
    return sum(ns_batch) / len(ns_batch), sum(r_batch) / len(r_batch)


@pytest.mark.parametrize("state_dim", [11, 40])
def test_updates_on_column_views_match_contiguous_copies(state_dim, monkeypatch):
    # the buffer hands the networks strided column views of its rows; on
    # matmuls of a full buffer's size (256 rows, inputs up to 80 wide) the
    # results must not depend on the row stride
    agent = DdpgAgent(state_dim, state_dim, AgentParams(seed=3, buffer_capacity=256))
    rng = np.random.default_rng(20)
    for _ in range(256):
        agent.buffer.push(*random_transition(rng, state_dim, state_dim))
    copied = copy.deepcopy(agent)
    columns = copied.buffer.columns
    monkeypatch.setattr(copied.buffer, "columns",
                        lambda rows: tuple(map(np.ascontiguousarray, columns(rows))))
    views = agent.buffer.columns(agent.buffer.stored())
    assert not any(part.flags.c_contiguous for part in views)
    got = [agent.update_critic_network(views), agent.fit_model()]
    want = [copied.update_critic_network(copied.buffer.columns(copied.buffer.stored())),
            copied.fit_model()]
    assert got == want
    ours, theirs = network_params_snapshot(agent), network_params_snapshot(copied)
    assert all(ours[name].tobytes() == theirs[name].tobytes() for name in ours)


@pytest.mark.parametrize("num_epochs", [1, 3])
def test_fit_model_matches_per_batch_gather(num_epochs):
    agent = make_agent(num_epochs=num_epochs)
    rng = np.random.default_rng(16)
    for _ in range(11):  # the last minibatch is short
        agent.buffer.push(*random_transition(rng))
    reference = copy.deepcopy(agent)
    for _ in range(2):
        got = agent.fit_model()
        want = reference_fit_model(reference)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    for name in ("next_state_model", "reward_model"):
        assert (agent.named_networks()[name].params.tobytes()
                == reference.named_networks()[name].params.tobytes())
    assert agent.rng.random() == reference.rng.random()


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


def reference_plan(agent):
    """plan's loop with an actor update that runs its own forward; the
    clipped predictions are the critic's next-state rows as they are."""
    p = agent.params
    losses = []
    for _ in range(p.planning_steps):
        phi_s = agent.buffer.sample_states(p.num_samples, agent.rng)
        actions = agent.actor.forward(phi_s)
        if p.epsilon > 0:
            actions = actions + agent.rng.normal(0.0, p.epsilon, size=actions.shape)
        actions = np.clip(actions, 0.0, 1.0).astype(np.float32)
        x = np.concatenate([phi_s, actions], axis=1)
        rewards = agent.reward_model.forward(x)[:, 0]
        phi_next = np.clip(agent.next_state_model.forward(x), 0.0, agent_module._PHI_CLIP)
        closs = agent.update_critic_network((x, rewards, phi_next))
        aloss = agent.update_actor_network(phi_s, actions=agent.actor.forward(phi_s))
        losses.append((closs, aloss))
    return losses


@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_plan_matches_reference_loop(epsilon):
    agent = make_agent(planning_steps=3, epsilon=epsilon, num_samples=16)
    rng = np.random.default_rng(17)
    for _ in range(32):
        agent.buffer.push(*random_transition(rng))
    agent.fit_model()
    # three columns inside (0, _PHI_CLIP), where float32 log1p(expm1(x)) is
    # not always x, so a loop that round-trips its rows through expm1 and
    # back differs; the fourth column lies above the clip
    clip = agent_module._PHI_CLIP
    agent.next_state_model.biases[-1][:] += [0.5, 0.5, 0.5, 2 * clip]
    pred = agent.next_state_model.forward(agent.buffer.columns(agent.buffer.stored())[0])
    inside, above = pred[:, :3], pred[:, 3]
    assert (inside > 0).all() and (inside < clip).all() and (above > clip).all()
    assert not np.array_equal(np.log1p(np.expm1(inside)), inside)
    reference = copy.deepcopy(agent)
    for _ in range(2):
        got, want = agent.plan(), reference_plan(reference)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    ours, theirs = network_params_snapshot(agent), network_params_snapshot(reference)
    assert len(ours) == 6
    assert all(ours[name].tobytes() == theirs[name].tobytes() for name in ours)


def test_actor_update_rejects_actions_not_from_the_last_forward():
    agent = make_agent()
    batch = random_batch(np.random.default_rng(18), 4)
    phi_s = batch_states(batch)
    actions = agent.actor.forward(phi_s)
    before = network_params_snapshot(agent)
    with pytest.raises(RuntimeError, match="last forward"):
        agent.update_actor_network(phi_s, actions=actions.copy())
    assert params_equal(before, network_params_snapshot(agent))
    agent.update_critic_network(batch)  # the critic forward leaves the actor's cache
    agent.update_actor_network(phi_s, actions=actions)
    agent.actor.forward(phi_s)
    with pytest.raises(RuntimeError, match="last forward"):
        agent.update_actor_network(phi_s, actions=actions)


def test_real_update_reads_the_same_actor_forward_before_or_after_the_critic_step():
    # train makes the actor's forward before the critic step, as plan does
    before = make_agent()
    rng = np.random.default_rng(20)
    for _ in range(8):
        before.buffer.push(*random_transition(rng))
    batch = before.buffer.sample(4, before.rng)
    phi_s = batch_states(batch)
    after = copy.deepcopy(before)
    actions = before.actor.forward(phi_s)
    losses_before = (before.update_critic_network(batch),
                     before.update_actor_network(phi_s, actions=actions))
    closs = after.update_critic_network(batch)
    losses_after = (closs, after.update_actor_network(phi_s, actions=after.actor.forward(phi_s)))
    assert np.array(losses_before).tobytes() == np.array(losses_after).tobytes()
    ours, theirs = network_params_snapshot(before), network_params_snapshot(after)
    assert len(ours) == 6
    assert all(ours[name].tobytes() == theirs[name].tobytes() for name in ours)


def test_plan_with_fitted_models_moves_like_real_updates():
    # single stored experience whose action is the actor's own choice
    agent = make_agent(learning_rate=1e-3, num_epochs=40, planning_steps=1, epsilon=0.0,
                       batch_size=1, num_samples=4)
    s = np.array([1.0, 2.0, 3.0, 4.0])
    batch = stack([(s, agent.select_action(s), -2.0, s * 1.5)] * 4)
    x, r, phi_s2 = batch
    agent.buffer.push(x[0, :4], x[0, 4:], r[0], phi_s2[0])
    for _ in range(20):
        agent.fit_model()

    real = copy.deepcopy(agent)
    dreamed = copy.deepcopy(agent)
    real.update_critic_network(batch)
    phi_s = batch_states(batch)
    real.update_actor_network(phi_s, actions=real.actor.forward(phi_s))
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
                                   batch_size=64))
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
    # one installed routing row per step: 2 episodes x 4 timesteps
    assert len(np.concatenate(trace.episode_weights)) == 8


def test_updating_train_step_runs_four_actor_forwards():
    # one for the acted step, one for the real actor update, and one per
    # planning step, whose actor update reuses it
    cfg = mm1_topology(0.5, 1.0)
    env = RlEnv(cfg, seed=0, events_per_step=50)
    agent = DdpgAgent(env.state_dim, env.action_dim,
                      small_params(num_episodes=1, num_timesteps=1, batch_size=1,
                                   planning_steps=2))
    calls = []
    forward = agent.actor.forward
    agent.actor.forward = lambda x: calls.append(1) or forward(x)
    trace = agent.train(env)
    assert len(trace.step_losses) == 1  # the one step updated
    assert len(calls) == 4


def optimizers(agent):
    return (agent.actor_opt, agent.critic_opt, agent.next_state_opt, agent.reward_opt)


def test_optimizer_state_waits_for_the_first_update(tmp_path):
    # a policy that is only rolled out holds no Adam moments; the first
    # updating step gives every optimizer moments shaped like its parameters,
    # and nothing ever writes the target networks' gradients
    cfg = mm1_topology(0.5, 1.0)
    env = RlEnv(cfg, seed=0, events_per_step=50)
    fresh = DdpgAgent(env.state_dim, env.action_dim,
                      small_params(num_episodes=1, num_timesteps=4, batch_size=4,
                                   target_update_frequency=1))
    path = tmp_path / "fresh.agent"
    save_agent(fresh, str(path))
    loaded = load_agent(str(path))
    for agent in (fresh, loaded):
        agent.select_action(np.ones(env.state_dim))
        evaluate_policy(agent, cfg, timesteps=3, events_per_step=20)
        assert all(opt.m is None and opt.v is None for opt in optimizers(agent))

    targets = (fresh.target_actor, fresh.target_critic)
    before = [t.params.copy() for t in targets]
    trace = fresh.train(env)
    assert len(trace.step_losses) == 1  # only the last step updated
    for opt in optimizers(fresh):
        assert opt.t >= 1
        assert opt.m.shape == opt.v.shape == opt.net.params.shape
    fresh.train(env, num_episodes=2)  # eight more updating steps
    for target, start in zip(targets, before):
        assert not np.array_equal(target.params, start)  # a soft update ran
        assert not target.grads.any()


def test_training_keeps_every_network_array_float32(monkeypatch):
    # under numpy 2's promotion rules one float64 operand, a target or a
    # numpy float64 scalar param, silently makes a whole update float64
    seen = []
    for name in ("forward", "backward", "input_gradient"):
        def recorded(net, *args, _method=getattr(Mlp, name), _name=name, **kwargs):
            seen.extend((_name, a) for a in (*args, *kwargs.values()) if a is not None)
            return _method(net, *args, **kwargs)
        monkeypatch.setattr(Mlp, name, recorded)
    env = RlEnv(figure_topology(), seed=0, events_per_step=50)
    agent = DdpgAgent(env.state_dim, env.action_dim, small_params(
        num_episodes=1, num_timesteps=8, planning_steps=2, target_update_frequency=2,
        learning_rate=np.float64(1e-3), tau=np.float64(0.5), discount=np.float64(0.9)))
    trace = agent.train(env)
    assert len(trace.step_losses) == 5
    for name, net in agent.named_networks().items():
        assert net.params.dtype == net.grads.dtype == np.float32, name
    for opt in optimizers(agent):
        assert opt.m.dtype == opt.v.dtype == np.float32
    assert {name for name, _ in seen} == {"forward", "backward", "input_gradient"}
    assert [(name, np.asarray(a).dtype) for name, a in seen
            if np.asarray(a).dtype != np.float32] == []


def test_buffer_rows_are_phi_of_the_environment_states():
    # train compresses each state once; the buffer keeps the rows the
    # networks read, in float32, with no second compression
    env = recording_env(figure_topology(), seed=0, events_per_step=50)
    agent = DdpgAgent(env.state_dim, env.action_dim,
                      small_params(num_episodes=2, num_timesteps=6, batch_size=4))
    trace = agent.train(env)
    assert len(trace.step_losses) == 9
    stored = agent.buffer.stored()
    assert stored.dtype == np.float32
    x, r, phi_s2 = agent.buffer.columns(stored)
    phi_s, a = x[:, : agent.state_dim], x[:, agent.state_dim :]
    s = np.stack([state for states in env.episodes for state in states[:-1]])
    s2 = np.stack([state for states in env.episodes for state in states[1:]])
    assert phi_s.tobytes() == DdpgAgent._phi(s).tobytes()
    assert phi_s2.tobytes() == DdpgAgent._phi(s2).tobytes()
    assert a.tobytes() == np.concatenate(trace.episode_weights).astype(np.float32).tobytes()
    assert r.tobytes() == np.float32(sum(trace.episode_rewards, [])).tobytes()


def test_train_without_planning_fits_no_predictor():
    # with planning_steps 0 nothing reads the predictors, so they take no
    # Adam step and their losses are NaN
    env = RlEnv(mm1_topology(0.5, 1.0), seed=0, events_per_step=50)
    agent = DdpgAgent(env.state_dim, env.action_dim,
                      small_params(num_episodes=1, num_timesteps=6, batch_size=2,
                                   planning_steps=0))
    before = network_params_snapshot(agent)
    trace = agent.train(env)
    assert len(trace.step_losses) == 5
    assert agent.actor_opt.t == agent.critic_opt.t == 5
    assert agent.next_state_opt.t == agent.reward_opt.t == 0
    assert agent.next_state_opt.m is None and agent.reward_opt.m is None
    after = network_params_snapshot(agent)
    for name in ("next_state_model", "reward_model"):
        assert np.array_equal(before[name], after[name])
    assert all(math.isnan(ns) and math.isnan(r) and math.isfinite(a) and math.isfinite(c)
               for a, c, ns, r in trace.step_losses)


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


def test_training_in_chunks_is_training_straight_through():
    # the agent owns its episode-seed stream, so a second train call
    # continues the first call's run instead of replaying its episodes
    def agent_and_env():
        env = RlEnv(figure_topology(), seed=0, events_per_step=20)
        return DdpgAgent(env.state_dim, env.action_dim, small_params(num_timesteps=5)), env

    whole, env = agent_and_env()
    straight = whole.train(env, num_episodes=4)
    chunked, env = agent_and_env()
    chunks = [chunked.train(env, num_episodes=n) for n in (1, 3)]
    assert straight.episode_rewards == [r for t in chunks for r in t.episode_rewards]
    assert straight.step_losses == [s for t in chunks for s in t.step_losses]
    nets = chunked.named_networks()
    for name, net in whole.named_networks().items():
        assert net.params.tobytes() == nets[name].params.tobytes(), name


def test_losses_stay_finite_under_fuzzing():
    agent = make_agent(batch_size=8, learning_rate=1e-2)
    rng = np.random.default_rng(14)
    for _ in range(64):
        agent.buffer.push(*random_transition(rng))
    for i in range(1000):
        batch = agent.buffer.sample(8, agent.rng)
        closs = agent.update_critic_network(batch)
        phi_s = batch_states(batch)
        aloss = agent.update_actor_network(phi_s, actions=agent.actor.forward(phi_s))
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
    with pytest.raises(ConfigError, match="batch_size must be <= buffer_capacity"):
        small_params(batch_size=65).validate()
    small_params(batch_size=64).validate()  # a full buffer holds a batch

    # integer fields and hidden_sizes take integers, float fields real
    # numbers; no field takes a bool, and numpy numbers pass
    for overrides, message in [
        ({"num_timesteps": 2.5}, "num_timesteps must be an integer, got 2.5"),
        ({"num_timesteps": 3.0}, "num_timesteps must be an integer, got 3.0"),
        ({"batch_size": True}, "batch_size must be an integer, got True"),
        ({"seed": "1"}, "seed must be an integer, got '1'"),
        ({"hidden_sizes": (8, True)}, "hidden_sizes must be integers"),
        ({"hidden_sizes": (2.5,)}, "hidden_sizes must be integers"),
        ({"hidden_sizes": 8}, "hidden_sizes must be integers"),
        ({"tau": True}, "tau must be a real number, got True"),
        ({"learning_rate": "1e-3"}, "learning_rate must be a real number"),
        ({"learning_rate": 10**400}, "learning_rate must be finite"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_params(**overrides).validate()
    small_params(num_timesteps=np.int64(3), hidden_sizes=(np.int32(4),),
                 tau=np.float64(0.5), discount=np.float32(0.5), w1=1).validate()


# -- checkpointing -----------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    agent = make_agent(seed=21)
    rng = np.random.default_rng(15)
    for _ in range(8):
        agent.buffer.push(*random_transition(rng))
    batch = agent.buffer.sample(4, agent.rng)
    agent.update_critic_network(batch)
    phi_s = batch_states(batch)
    agent.update_actor_network(phi_s, actions=agent.actor.forward(phi_s))
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


def checkpoint_weights(path):
    """The checkpoint's bytes up to its weights, and the weights as float64."""
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, 12)
    start = 16 + header_len
    return data[:start], np.frombuffer(data, dtype="<f8", offset=start)


def test_checkpoint_of_float64_weights_loads_rounded_to_float32(tmp_path):
    # a file written when the networks were float64 holds weights that
    # float32 cannot; each loads as its nearest float32
    path = tmp_path / "old.agent"
    save_agent(make_agent(), str(path))
    head, weights = checkpoint_weights(path)
    old = np.random.default_rng(20).uniform(-1.0, 1.0, weights.size)
    path.write_bytes(head + old.astype("<f8").tobytes())
    loaded = np.concatenate([net.params for net in load_agent(str(path)).named_networks().values()])
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded, old.astype(np.float32))
    assert not np.array_equal(loaded, old)


def test_checkpoint_weight_beyond_float32_range_raises(tmp_path):
    path = tmp_path / "huge.agent"
    save_agent(make_agent(), str(path))
    head, weights = checkpoint_weights(path)
    for value in (1e300, -3.5e38):
        huge = weights.copy()
        huge[-1] = value  # the reward model's output bias
        path.write_bytes(head + huge.tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from a cast either
            with pytest.raises(CheckpointError, match="reward_model holds a weight beyond"):
                load_agent(str(path))
    # inf and NaN have float32 forms and load as they are
    huge[-2:] = [np.inf, np.nan]
    path.write_bytes(head + huge.tobytes())
    bias = load_agent(str(path)).reward_model.params[-2:]
    assert bias[0] == np.inf and np.isnan(bias[1])


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
    for field, value in (("num_timesteps", 2.5), ("batch_size", True), ("tau", True)):
        with pytest.raises(CheckpointError, match=f"{field} must be"):
            load_agent(with_header(f"{field}.agent",
                                   lambda doc: doc["params"].update({field: value})))

    # a version this loader does not read
    future = tmp_path / "v2.agent"
    future.write_bytes(data[:8] + struct.pack("<II", 2, header_len) + data[16:])
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
        load_agent(str(future))
    # a network whose header disagrees with the one the params build
    with pytest.raises(CheckpointError, match=r"actor layer sizes \[4, 9, 4\] do not match"):
        load_agent(with_header("layers.agent", lambda doc: doc["networks"]["actor"].update(
            layer_sizes=[4, 9, 4])))
    with pytest.raises(CheckpointError, match="critic output activation mismatch"):
        load_agent(with_header("activation.agent", lambda doc: doc["networks"]["critic"].update(
            output_activation="sigmoid")))

    # paths that cannot be opened as a file
    for path in (tmp_path / "missing.agent", tmp_path):
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_agent(str(path))


def test_checkpoint_size_is_checked_before_any_network_is_built(tmp_path, monkeypatch):
    # headers that imply terabytes of weights, on a payload of a few
    # kilobytes, are rejected without allocating a network
    path = tmp_path / "ok.agent"
    save_agent(make_agent(), str(path))
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, 12)
    header = json.loads(data[16 : 16 + header_len])
    monkeypatch.setattr(DdpgAgent, "__init__", lambda *a, **kw: pytest.fail("agent built"))
    for edit in ({"state_dim": 10**12}, {"action_dim": 10**12},
                 {"params": {**header["params"], "hidden_sizes": [10**11]}}):
        blob = json.dumps({**header, **edit}, sort_keys=True).encode()
        huge = tmp_path / "huge.agent"
        huge.write_bytes(data[:8] + struct.pack("<II", 1, len(blob)) + blob
                         + data[16 + header_len :])
        with pytest.raises(CheckpointError, match="bytes of weights; its header implies"):
            load_agent(str(huge))


# hidden_sizes entries stay small: the loader builds every network before it
# compares layer sizes with the header's
_HEADER_ENTRIES = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 64),
    st.sampled_from([2.5, math.inf, -math.inf, math.nan]), st.text(max_size=4),
)
_HEADER_VALUES = st.one_of(_HEADER_ENTRIES, st.just(10**400),
                           st.lists(_HEADER_ENTRIES, max_size=3))


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(sorted(f.name for f in fields(AgentParams))),
       value=_HEADER_VALUES)
def test_any_checkpoint_param_loads_typed_or_raises_checkpoint_error(tmp_path_factory, field,
                                                                      value):
    # one generated value in a params field of a valid v1 header either loads
    # into params of their declared types or raises CheckpointError
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzzed_header.agent"
    save_agent(make_agent(), str(path))
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, 12)
    header = json.loads(data[16 : 16 + header_len])
    header["params"][field] = value
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(data[:8] + struct.pack("<II", 1, len(blob)) + blob
                     + data[16 + header_len :])
    try:
        params = load_agent(str(path)).params
    except CheckpointError:
        return

    def integer(v):
        return isinstance(v, numbers.Integral) and not isinstance(v, bool)

    assert all(integer(getattr(params, name)) for name in agent_module.INT_PARAM_FIELDS)
    assert all(isinstance(getattr(params, name), numbers.Real)
               and not isinstance(getattr(params, name), bool)
               for name in agent_module.FLOAT_PARAM_FIELDS)
    assert isinstance(params.hidden_sizes, tuple) and all(map(integer, params.hidden_sizes))
