import math
import random

import numpy as np
import pytest

from queuerl.agent import AgentParams, DdpgAgent, make_agent
from queuerl.errors import ConfigError, InsufficientData, UnknownNode
from queuerl.evaluation import (
    NoiseConfig,
    _tail_stop,
    convergence_train,
    detect_burn_in,
    evaluate_disruption,
    evaluate_noise,
    evaluate_policy,
    make_noise_hook,
    noisy_interarrival,
    required_runs,
    robustness_evaluate,
)
from queuerl.netsim import figure_topology, mm1_topology
from queuerl.rl_env import RlEnv


def tiny_params(**overrides) -> AgentParams:
    base = dict(
        hidden_sizes=(8, 8),
        batch_size=4,
        num_samples=4,
        planning_steps=0,
        buffer_capacity=64,
        num_episodes=3,
        num_timesteps=4,
        events_per_step=40,
        w1=1.0,
        w2=0.0,
        seed=0,
    )
    base.update(overrides)
    return AgentParams(**base)


# -- burn-in -----------------------------------------------------------------------


def burn_in_oracle(rewards, window, threshold, consecutive):
    """Independent scan: smooth, difference, find the first qualifying run."""
    smoothed = [
        sum(rewards[k - window + 1 : k + 1]) / window for k in range(window - 1, len(rewards))
    ]
    deriv = [smoothed[i + 1] - smoothed[i] for i in range(len(smoothed) - 1)]
    for start in range(len(deriv) - consecutive + 1):
        if all(abs(deriv[start + j]) < threshold for j in range(consecutive)):
            return start + window - 1
    return None


def test_burn_in_constant_curve_stabilizes_immediately():
    report = detect_burn_in([5.0] * 20, window_size=4, threshold=0.01, consecutive_points=3)
    assert report.stabilization_index == 3  # window_size - 1, the first eligible spot


def test_burn_in_geometric_decay_matches_oracle():
    rewards = [-10.0 * 0.8**t for t in range(50)]
    report = detect_burn_in(rewards, window_size=5, threshold=0.05, consecutive_points=3)
    expected = burn_in_oracle(rewards, 5, 0.05, 3)
    assert report.stabilization_index == expected
    assert expected is not None


def test_burn_in_linear_slope_never_stabilizes():
    rewards = [float(t) for t in range(30)]
    report = detect_burn_in(rewards, window_size=4, threshold=0.5, consecutive_points=3)
    assert report.stabilization_index is None


def test_burn_in_insufficient_data():
    with pytest.raises(InsufficientData):
        detect_burn_in([1.0, 2.0], window_size=4, threshold=0.1, consecutive_points=3)


def test_burn_in_matches_oracle_on_random_curves():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(15, 60))
        kind = rng.integers(0, 3)
        if kind == 0:
            curve = list(-50 * np.power(rng.uniform(0.6, 0.95), np.arange(n)))
        elif kind == 1:
            curve = list(rng.normal(0, rng.uniform(0.01, 2.0), n))
        else:
            curve = list(np.linspace(0, rng.uniform(-20, 20), n) + rng.normal(0, 0.3, n))
        window = int(rng.integers(1, 6))
        consecutive = int(rng.integers(1, 5))
        if n < window + consecutive:
            continue
        threshold = float(rng.uniform(0.01, 0.5))
        report = detect_burn_in(curve, window, threshold, consecutive)
        assert report.stabilization_index == burn_in_oracle(curve, window, threshold, consecutive)


def test_burn_in_translation_invariance():
    rng = np.random.default_rng(1)
    curve = list(rng.normal(0, 1, 40))
    base = detect_burn_in(curve, 3, 0.2, 3).stabilization_index
    shifted = detect_burn_in([c + 123.4 for c in curve], 3, 0.2, 3).stabilization_index
    assert base == shifted


# -- early stopping ------------------------------------------------------------------


def first_stop(series, threshold, consecutive_points):
    """Apply _tail_stop to each prefix in turn, as convergence_train does as
    its evaluation series grows: (position of the first stop, reason)."""
    for k in range(len(series)):
        reason = _tail_stop(series[: k + 1], threshold, consecutive_points)
        if reason is not None:
            return k, reason
    return None, "completed"


def test_plateau_stops_after_fourth_point():
    idx, reason = first_stop([-5.0, -5.0, -5.0, -5.0], threshold=0.5, consecutive_points=3)
    assert (idx, reason) == (3, "plateau")


def test_local_maximum_stops_after_fourth_point():
    idx, reason = first_stop([-2.0, -3.5, -5.0, -6.5], threshold=1.0, consecutive_points=3)
    assert (idx, reason) == (3, "local_maximum")


def test_no_stop_on_improving_series():
    idx, reason = first_stop([-9.0, -6.0, -3.0, 0.0], threshold=1.0, consecutive_points=3)
    assert (idx, reason) == (None, "completed")


def stop_oracle(series, threshold, c):
    """Brute-force re-implementation of the stopping scan."""
    for k in range(len(series)):
        if k < c:
            continue
        diffs = [series[i + 1] - series[i] for i in range(k - c, k)]
        if all(d < -threshold for d in diffs):
            return k, "local_maximum"
        if all(abs(d) < threshold for d in diffs):
            return k, "plateau"
    return None, "completed"


def test_stop_rules_match_brute_force_on_random_series():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(2, 15)
        series = [rng.uniform(-10, 10) for _ in range(n)]
        threshold = rng.uniform(0.05, 3.0)
        c = rng.randrange(1, 5)
        assert first_stop(series, threshold, c) == stop_oracle(series, threshold, c)


def test_stop_rules_are_mutually_exclusive():
    rng = random.Random(3)
    for _ in range(200):
        series = [rng.uniform(-5, 5) for _ in range(rng.randrange(4, 10))]
        threshold = rng.uniform(0.1, 2.0)
        c = rng.randrange(1, 4)
        diffs = [series[i + 1] - series[i] for i in range(len(series) - 1)]
        for k in range(c, len(series)):
            window = diffs[k - c : k]
            assert not (
                all(d < -threshold for d in window) and all(abs(d) < threshold for d in window)
            )


def test_convergence_train_runs_and_reports():
    cfg = mm1_topology(0.5, 1.0)
    params = tiny_params(num_episodes=30, num_timesteps=2)
    report = convergence_train(params, cfg, window_size=1, threshold=0.5, consecutive_points=2)
    assert report.evaluations
    episodes = [ep for ep, _ in report.evaluations]
    assert episodes == sorted(episodes)
    assert episodes[0] == 10
    assert report.stop_reason in ("local_maximum", "plateau", "completed")
    assert report.episodes_trained == episodes[-1]


# -- noise --------------------------------------------------------------------------


def test_noisy_interarrival_frequency_zero_is_identity():
    cfg = NoiseConfig(mean=5.0, variance=2.0, frequency=0.0)
    rng = random.Random(0)
    assert all(noisy_interarrival(1.7, cfg, rng) == 1.7 for _ in range(100))


def test_noisy_interarrival_deterministic_shift():
    cfg = NoiseConfig(mean=2.0, variance=0.0, frequency=1.0)
    rng = random.Random(1)
    assert all(noisy_interarrival(3.0, cfg, rng) == 5.0 for _ in range(100))


def test_noisy_interarrival_floor():
    cfg = NoiseConfig(mean=-10.0, variance=0.5, frequency=1.0)
    rng = random.Random(2)
    draws = [noisy_interarrival(1.0, cfg, rng) for _ in range(1000)]
    assert all(d >= 1e-6 for d in draws)
    assert draws.count(1e-6) > 900  # mean -10 pushes nearly everything to the floor


def test_noise_config_validation():
    with pytest.raises(ConfigError):
        make_noise_hook(NoiseConfig(variance=-1.0), seed=0)
    with pytest.raises(ConfigError):
        make_noise_hook(NoiseConfig(frequency=1.5), seed=0)
    for bad in (NoiseConfig(mean=math.nan), NoiseConfig(variance=math.nan),
                NoiseConfig(variance=math.inf)):
        with pytest.raises(ConfigError, match="must be finite"):
            make_noise_hook(bad, seed=0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ConfigError, match="base interarrival time"):
            noisy_interarrival(bad, NoiseConfig(), random.Random(0))
    # a zero gap is a legal exponential draw, of either sign
    for zero in (0.0, -0.0):
        assert noisy_interarrival(zero, NoiseConfig(frequency=0.0), random.Random(0)) == 0.0


def test_zero_noise_rollouts_are_identical():
    cfg = figure_topology()
    params = tiny_params()
    env = RlEnv(cfg, seed=0, events_per_step=params.events_per_step)
    agent = DdpgAgent(env.state_dim, env.action_dim, params)
    report = evaluate_noise(agent, cfg, NoiseConfig(mean=0.0, variance=0.0, frequency=0.5),
                            timesteps=6, seed=11, events_per_step=40)
    assert report.standard_series == report.noisy_series


def test_noise_changes_the_noisy_series():
    cfg = figure_topology()
    params = tiny_params()
    env = RlEnv(cfg, seed=0, events_per_step=params.events_per_step)
    agent = DdpgAgent(env.state_dim, env.action_dim, params)
    report = evaluate_noise(agent, cfg, NoiseConfig(mean=0.0, variance=4.0, frequency=1.0),
                            timesteps=6, seed=11, events_per_step=40)
    assert report.standard_series != report.noisy_series
    assert len(report.standard_series) == len(report.noisy_series) == 6


def test_retrain_mode_trains_the_agent_in_the_noisy_environment():
    cfg = mm1_topology(0.5, 1.0)
    noise = NoiseConfig(mean=0.0, variance=4.0, frequency=1.0)
    agent, by_hand, plain = (make_agent(cfg, tiny_params()) for _ in range(3))
    untrained = agent.actor.params.copy()
    report = evaluate_noise(agent, cfg, noise, mode="retrain", timesteps=6, seed=11,
                            events_per_step=40)
    assert report.mode == "retrain"
    assert len(report.standard_series) == len(report.noisy_series) == 6

    # the same training written out: one run in a noisy environment seeded
    # from the agent's params, the noise drawn from its own stream
    p = by_hand.params
    env_args = dict(seed=p.seed, events_per_step=p.events_per_step, reward_skip=p.reward_skip)
    by_hand.train(RlEnv(cfg, interarrival_noise=make_noise_hook(noise, p.seed + 1), **env_args))
    plain.train(RlEnv(cfg, **env_args))
    assert np.array_equal(agent.actor.params, by_hand.actor.params)
    assert not np.array_equal(agent.actor.params, untrained)
    assert not np.array_equal(agent.actor.params, plain.actor.params)


@pytest.mark.parametrize("steps", [0, -5])
def test_rollout_evaluators_reject_empty_rollouts(steps, monkeypatch):
    monkeypatch.setattr(DdpgAgent, "train", lambda *a, **kw: pytest.fail("an agent trained"))
    cfg = figure_topology()
    agent = make_agent(cfg, tiny_params())
    with pytest.raises(ConfigError, match="time_steps must be >= 1"):
        evaluate_policy(agent, cfg, timesteps=steps)
    for mode in ("evaluate", "retrain"):
        with pytest.raises(ConfigError, match="time_steps must be >= 1"):
            evaluate_noise(agent, cfg, NoiseConfig(), mode=mode, timesteps=steps)


# -- disruption ------------------------------------------------------------------------


def test_disruption_uniform_agent_uniform_pre_snapshot():
    cfg = figure_topology()
    env = RlEnv(cfg, seed=0)
    agent = DdpgAgent(env.state_dim, env.action_dim, tiny_params())
    for w in agent.actor.weights:
        w[:] = 0.0
    for b in agent.actor.biases:
        b[:] = 0.0
    report = evaluate_disruption(agent, cfg, node=3, steps=3, seed=0, events_per_step=40)
    assert report.pre_probas[1] == pytest.approx({2: 1 / 3, 3: 1 / 3, 4: 1 / 3})
    assert report.affected_node == 3
    assert report.pre_throughput >= 0
    assert report.post_throughput >= 0


def test_disruption_blocking_reduces_throughput_for_uniform_agent():
    cfg = figure_topology()
    env = RlEnv(cfg, seed=0)
    agent = DdpgAgent(env.state_dim, env.action_dim, tiny_params())
    for w in agent.actor.weights:
        w[:] = 0.0
    deltas = []
    for seed in range(5):
        report = evaluate_disruption(agent, cfg, node=3, steps=8, seed=seed, events_per_step=60)
        deltas.append(report.post_throughput - report.pre_throughput)
    assert sorted(deltas)[len(deltas) // 2] < 0  # median drop


def test_disruption_unknown_node():
    cfg = figure_topology()
    env = RlEnv(cfg, seed=0)
    agent = DdpgAgent(env.state_dim, env.action_dim, tiny_params())
    with pytest.raises(UnknownNode):
        evaluate_disruption(agent, cfg, node=77, steps=2)
    with pytest.raises(ConfigError):
        evaluate_disruption(agent, cfg, node=0, steps=2)
    with pytest.raises(ConfigError, match="steps"):
        evaluate_disruption(agent, cfg, node=3, steps=0)


# -- robustness -------------------------------------------------------------------------


def test_required_runs_reference_values():
    assert required_runs(z=1.96, sigma=0.4, margin=1.0) == 1
    assert required_runs(z=1.96, sigma=0.5, margin=0.1) == 97
    assert required_runs(z=1.96, sigma=0.0, margin=0.5) == 1


def test_required_runs_monotonicity():
    rng = random.Random(4)
    for _ in range(1000):
        z = rng.uniform(0.5, 3.0)
        sigma = rng.uniform(0.0, 1.0)
        margin = rng.uniform(0.01, 1.0)
        base = required_runs(z, sigma, margin)
        assert required_runs(z + 0.3, sigma, margin) >= base
        assert required_runs(z, sigma + 0.1, margin) >= base
        assert required_runs(z, sigma, margin + 0.1) <= base
        assert base >= 1


def test_required_runs_validation():
    with pytest.raises(ConfigError):
        required_runs(1.96, 0.4, 0.0)
    for z, sigma, margin in [(math.nan, 0.4, 0.1), (math.inf, 0.4, 0.1), (1.96, math.nan, 0.1),
                             (1.96, 0.4, math.nan), (1.96, 0.4, math.inf)]:
        with pytest.raises(ConfigError, match="finite"):
            required_runs(z, sigma, margin)


def test_robustness_identical_seeds_zero_sigma():
    cfg = mm1_topology(0.5, 1.0)
    params = tiny_params(num_episodes=2, num_timesteps=2)
    report = robustness_evaluate(params, cfg, num_agents=2, time_steps=3,
                                 z=1.96, margin=0.5, seeds=[7, 7])
    assert report.sigma == 0.0
    assert report.required_runs == 1
    assert len(report.per_agent_final_probas) == 2


def test_robustness_distinct_seeds_report_shape():
    cfg = figure_topology()
    params = tiny_params(num_episodes=2, num_timesteps=2)
    report = robustness_evaluate(params, cfg, num_agents=3, time_steps=2,
                                 z=1.96, margin=0.1)
    assert len(report.per_agent_final_probas) == 3
    assert report.sigma >= 0.0
    assert set(report.entry_std) == {
        (node, succ) for node, succs in cfg.edge_list.items() for succ in succs
    }
    assert report.required_runs == required_runs(1.96, report.sigma, 0.1)


def test_robustness_parallel_report_equals_serial():
    cfg = figure_topology()
    params = tiny_params(num_episodes=2, num_timesteps=2)
    serial = robustness_evaluate(params, cfg, num_agents=3, time_steps=2, workers=1)
    parallel = robustness_evaluate(params, cfg, num_agents=3, time_steps=2, workers=2)
    assert parallel == serial
    assert serial.sigma > 0.0


def test_robustness_rejects_bad_arguments():
    cfg = mm1_topology(0.5, 1.0)
    with pytest.raises(ConfigError):
        robustness_evaluate(tiny_params(), cfg, num_agents=1)
    with pytest.raises(ConfigError):
        robustness_evaluate(tiny_params(), cfg, num_agents=2, margin=0.0)
    with pytest.raises(ConfigError):
        robustness_evaluate(tiny_params(), cfg, num_agents=2, seeds=[1, 2, 3])
    with pytest.raises(ConfigError, match="time_steps"):
        robustness_evaluate(tiny_params(), cfg, num_agents=2, time_steps=0)
    with pytest.raises(ConfigError, match="workers"):
        robustness_evaluate(tiny_params(), cfg, num_agents=2, workers=0)
    with pytest.raises(ConfigError, match="z nan"):
        robustness_evaluate(tiny_params(), cfg, num_agents=2, z=math.nan)


def test_evaluate_policy_is_deterministic():
    cfg = mm1_topology(0.5, 1.0)
    params = tiny_params()
    agent = DdpgAgent(1, 1, params)
    a = evaluate_policy(agent, cfg, timesteps=5, seed=3, events_per_step=40)
    b = evaluate_policy(agent, cfg, timesteps=5, seed=3, events_per_step=40)
    assert a == b
