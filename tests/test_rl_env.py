import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuerl.errors import ConfigError, DimensionMismatch, NoArrivals
from queuerl.netsim import TopologyConfig, figure_topology
from queuerl.rl_env import R_FLOOR, RlEnv, reward
from test_netsim import scripted_random, serviced_stats, unit_draw
from topologies import mm1_topology


def chain_topology(n_serviced: int, arrival_rate=0.5, service_rate=2.0) -> TopologyConfig:
    """0 -> 1 -> ... with n_serviced serviced edges then one exit edge."""
    edge_list = {i: {i + 1: i + 1} for i in range(n_serviced)}
    edge_list[n_serviced] = {n_serviced + 1: 0}
    return TopologyConfig(
        num_nodes=n_serviced + 2,
        edge_list=edge_list,
        entry_edges={1},
        exit_edges={0},
        arrival_rate=arrival_rate,
        service_rates={i: service_rate for i in range(1, n_serviced + 1)},
    )


def reward_oracle(per_edge_serviced_delays, exits, arrivals, r_floor=1e-3):
    """Straight-line evaluation of the reward definition."""
    means = [sum(d) / len(d) for d in per_edge_serviced_delays if len(d) > 0]
    dbar = sum(means) / len(means) if means else 0.0
    ratio = exits / arrivals
    return -dbar / max(ratio, r_floor)


def scripted_env(monkeypatch, config, script, **kwargs):
    """An RlEnv whose network draws random() from script, in turn."""
    with monkeypatch.context() as m:
        m.setattr(random, "Random", scripted_random(script))
        return RlEnv(config, seed=0, **kwargs)


# -- state -----------------------------------------------------------------------


def test_state_hand_example_with_inflight_job(monkeypatch):
    # arrivals at 2 and 3, the second waiting behind the first; the first
    # leaves at 7, and the next event (the third arrival) comes at 9
    script = [unit_draw(1.0), unit_draw(5.0), unit_draw(0.5), unit_draw(3.0),
              unit_draw(10.0), 0.5]
    env = scripted_env(monkeypatch, mm1_topology(0.5, 1.0), script)
    env.net.simulate(3)
    assert env.net.clock == pytest.approx(7.0)
    assert env.get_state() == pytest.approx([((7 - 2) + (7 - 3)) / 2])


def test_state_zero_for_untraversed_edges():
    env = RlEnv(figure_topology(), seed=0)
    state = env.get_state()
    assert state.shape == (12,)
    assert np.all(state == 0.0)


def test_state_passes_through_exact_delays(monkeypatch):
    # one job crosses the chain, taking values[k] on edge k + 1, and leaves
    # before the next arrival at 201
    values = [1.46, 51.01, 1.01, 67.12, 3.72]
    script = [unit_draw(0.01), unit_draw(values[0] * 0.1), unit_draw(2.0)]
    for delay in values[1:]:
        script += [0.5, unit_draw(delay * 0.1)]
    script.append(0.5)
    env = scripted_env(monkeypatch, chain_topology(5, arrival_rate=0.01, service_rate=0.1),
                       script)
    env.net.simulate(6)
    assert env.net.clock == pytest.approx(1.0 + sum(values))
    assert env.get_state() == pytest.approx(values)


def test_state_dimension_is_stable_across_steps():
    env = RlEnv(figure_topology(), seed=1, events_per_step=50)
    dims = set()
    state = env.get_state()
    for _ in range(5):
        dims.add(len(state))
        state = env.get_next_state(np.full(env.action_dim, 0.5))
        assert np.all(state >= 0.0)
    assert dims == {12}


@pytest.mark.parametrize("gap", [math.nan, -1.0, math.inf, -math.inf])
def test_env_rejects_bad_noise_gaps(gap):
    with pytest.raises(ConfigError, match="interarrival_noise"):
        RlEnv(figure_topology(), seed=2, interarrival_noise=lambda base: gap)
    # the first gap is fine; a later one fails the step that draws it
    gaps = iter([0.5])
    env = RlEnv(figure_topology(), seed=2, interarrival_noise=lambda base: next(gaps, gap))
    with pytest.raises(ConfigError, match="interarrival_noise"):
        env.get_next_state(np.full(env.action_dim, 0.5))


# -- masking ---------------------------------------------------------------------


def test_env_rejects_bad_step_arguments():
    with pytest.raises(ConfigError, match="events_per_step"):
        RlEnv(figure_topology(), events_per_step=0)
    with pytest.raises(ConfigError, match="reward_skip"):
        RlEnv(figure_topology(), reward_skip=-1)


def test_masking_reference_vector():
    env = RlEnv(figure_topology(), seed=0)
    action = np.full(12, 0.5)
    action[env.serviced_edges.index(2)] = 0.27
    action[env.serviced_edges.index(3)] = 0.30
    action[env.serviced_edges.index(4)] = 0.59
    env.net.set_routing(action)
    row = env.net.transition_map[1]
    assert row[2] == pytest.approx(0.2328, abs=5e-5)
    assert row[3] == pytest.approx(0.2586, abs=5e-5)
    assert row[4] == pytest.approx(0.5086, abs=5e-5)


def test_masking_single_successor_is_one():
    env = RlEnv(mm1_topology(0.5, 1.0), seed=0)
    env.net.set_routing(np.array([0.123]))
    tmap = env.net.transition_map
    assert tmap[0] == {1: 1.0}
    assert tmap[1] == {2: 1.0}


def test_masking_all_zero_weights_falls_back_to_uniform():
    env = RlEnv(figure_topology(), seed=0)
    env.net.set_routing(np.zeros(12))
    assert env.net.transition_map[1] == pytest.approx({2: 1 / 3, 3: 1 / 3, 4: 1 / 3})


def test_masking_dimension_mismatch():
    env = RlEnv(figure_topology(), seed=0)
    with pytest.raises(DimensionMismatch):
        env.get_next_state(np.zeros(11))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=12, max_size=12))
def test_masking_rows_are_distributions(weights):
    env = RlEnv(figure_topology(), seed=0)
    env.net.set_routing(np.array(weights))
    for node, row in env.net.transition_map.items():
        assert abs(sum(row.values()) - 1.0) < 1e-9
        assert all(0.0 <= p <= 1.0 for p in row.values())
        assert set(row) == set(env.config.edge_list[node])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_masking_non_finite_action_raises(bad):
    env = RlEnv(figure_topology(), seed=0)
    installed = env.net.transition_map
    action = np.full(12, 0.5)
    action[env.serviced_edges.index(3)] = bad
    with pytest.raises(ConfigError, match="node 1"):
        env.get_next_state(action)
    assert env.net.transition_map == installed


def test_jobs_split_as_the_installed_routing_says():
    # Each job leaving edge 1 picks edge 2, 3 or 4 independently, so given
    # the n jobs routed out of node 1 the count on an edge of probability p
    # is Binomial(n, p). Five standard deviations per edge leave a false
    # failure chance below 2e-6 over the three edges.
    env = RlEnv(figure_topology(), seed=11)
    probs = {2: 0.2, 3: 0.3, 4: 0.5}
    action = np.full(12, 0.5)
    for edge, p in probs.items():
        action[env.serviced_edges.index(edge)] = p
    net = env.net
    net.set_routing(action)
    net.simulate(100_000)
    # with reward_skip 0 every exited traversal is counted
    counts = {e: count for e, (count, _) in zip(net.serviced_edge_types, serviced_stats(net))}
    arrivals = {e: counts[e] + len(net.queues[e]) for e in probs}
    n = sum(arrivals.values())
    assert n > 10_000
    for edge, p in probs.items():
        bound = 5.0 * math.sqrt(n * p * (1.0 - p))
        assert abs(arrivals[edge] - n * p) <= bound, (edge, arrivals[edge], n * p, bound)


# -- reward ----------------------------------------------------------------------


def test_reward_hand_case():
    # one edge whose counted delays are 1 and 3
    assert reward(5, 4, [(1.0 + 3.0) / 2]) == pytest.approx(-2.5, rel=1e-12)
    assert reward(5, 4, [2.0]) == reward_oracle([[1.0, 3.0]], 4, 5)


def test_reward_zero_delay_gives_zero():
    assert reward(1, 1, [0.0]) == 0.0


def test_reward_ratio_floor_when_no_exits():
    assert reward(3, 0, [2.0]) == pytest.approx(-2000.0, rel=1e-12)


def test_reward_requires_arrivals():
    with pytest.raises(NoArrivals):
        reward(0, 0, [])
    env = RlEnv(mm1_topology(0.5, 1.0), seed=0)
    with pytest.raises(NoArrivals):
        env.get_reward()


def test_reward_skips_edges_without_serviced_jobs(monkeypatch):
    assert reward(2, 1, [4.0]) == pytest.approx(-4.0 / 0.5, rel=1e-12)
    # arrivals at 1 and 3; the first job leaves edge 1 at 5 and is then in
    # flight on edge 2, so only edge 1 has a counted exit
    script = [unit_draw(0.5), unit_draw(8.0), unit_draw(1.0), unit_draw(30.0),
              unit_draw(20.0), 0.5, unit_draw(30.0)]
    env = scripted_env(monkeypatch, chain_topology(2), script)
    env.net.simulate(3)
    assert len(env.net.queues[2]) == 1
    assert env.net.counted_means() == [pytest.approx(4.0)]
    assert env.get_reward() == pytest.approx(-4.0 / R_FLOOR, rel=1e-12)


def test_reward_skip_parameter_drops_early_records(monkeypatch):
    # one job at 1 that takes 100, then one at 150 that takes 2; the third
    # arrival comes at 3150
    script = [unit_draw(0.01), unit_draw(20.0), unit_draw(1.49), 0.5, unit_draw(0.4),
              unit_draw(30.0), 0.5]
    env = scripted_env(monkeypatch, mm1_topology(0.01, 0.2), script, reward_skip=1)
    env.net.simulate(4)
    assert env.net.arrivals_total == {1: 2} and env.net.exits_total == {0: 2}
    assert env.net.mean_delays() == [pytest.approx((100.0 + 2.0) / 2)]
    assert env.get_reward() == pytest.approx(-2.0, rel=1e-12)


def test_reward_matches_oracle_on_random_logs():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n_edges = int(rng.integers(1, 6))
        delays = []
        for _ in range(n_edges):
            k = int(rng.integers(0, 5))
            delays.append(list(np.round(rng.uniform(0.0, 20.0, size=k), 6)))
        arrivals = int(rng.integers(1, 50))
        exits = int(rng.integers(0, arrivals + 1))
        # counted_means' per-edge means: a running sum over the delays in order
        means = [sum(d) / len(d) for d in delays if d]
        expected = reward_oracle(delays, exits, arrivals)
        assert reward(arrivals, exits, means) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_reward_monotone_in_delay_and_throughput():
    def build(delay_scale, exits):
        delays = [d * delay_scale for d in (1.0, 2.0, 3.0)]
        return reward(10, exits, [sum(delays) / len(delays)])

    # higher delays at fixed throughput: strictly worse
    rewards = [build(scale, 5) for scale in (1.0, 2.0, 4.0)]
    assert rewards[0] > rewards[1] > rewards[2]
    # higher throughput at fixed positive delay: strictly better
    rewards = [build(1.0, x) for x in (2, 5, 10)]
    assert rewards[0] < rewards[1] < rewards[2]


# -- stepping --------------------------------------------------------------------


def test_get_next_state_is_deterministic():
    cfg = figure_topology()
    a = RlEnv(cfg, seed=5, events_per_step=100)
    b = RlEnv(cfg, seed=5, events_per_step=100)
    rng = np.random.default_rng(0)
    for _ in range(4):
        action = rng.uniform(0, 1, 12)
        assert np.array_equal(a.get_next_state(action), b.get_next_state(action))
    assert a.get_reward() == b.get_reward()


def test_reset_returns_zero_state_and_replays():
    env = RlEnv(figure_topology(), seed=5, events_per_step=100)
    env.get_next_state(np.full(12, 0.5))
    state = env.reset(seed=9)
    assert np.all(state == 0.0)
    first = env.get_next_state(np.full(12, 0.5))
    env.reset(seed=9)
    again = env.get_next_state(np.full(12, 0.5))
    assert np.array_equal(first, again)


def test_reset_with_new_seed_changes_trajectory():
    env = RlEnv(mm1_topology(0.5, 1.0), seed=1, events_per_step=100)
    env.reset(seed=1)
    env.net.simulate(100)
    state_a = env.get_state()
    env.reset(seed=2)
    env.net.simulate(100)
    state_b = env.get_state()
    assert not np.array_equal(state_a, state_b)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("config, events_per_step", [
    (figure_topology(arrival_rate=3e-307), 100),
    # queues build up while the clock nears float max, so a state's
    # waiting * clock term, or a delay sum, overflows before the clock does
    (mm1_topology(3e-307, 3e-307), 100),
    # finite delays whose average, divided by a low throughput ratio, is not
    (figure_topology(1e-306, 1e-306), 1),
], ids=["figure_tiny_arrival_rate", "mm1_tiny_rates", "reward_over_low_throughput"])
def test_time_overflow_raises_before_a_non_finite_state(config, events_per_step, seed):
    # every single draw at these rates is finite, so validate_config passes
    # them, but a few of them add up beyond float range
    env = RlEnv(config, seed=seed, events_per_step=events_per_step)
    action = np.random.default_rng(seed).uniform(0, 1, env.action_dim)
    with pytest.raises(ConfigError, match="overflowed float range .*clock"):
        for _ in range(30):
            state = env.get_next_state(action)
            assert np.isfinite(state).all()
            assert math.isfinite(env.get_reward())


def test_memory_stays_flat_over_a_long_skipped_reward_run():
    # the simulator keeps aggregates, not a per-job log, so a long run with a
    # reward window holds a bounded number of objects once queues settle
    env = RlEnv(figure_topology(), seed=0, events_per_step=100, reward_skip=10)
    action = np.full(env.action_dim, 0.5)
    tracemalloc.start()
    try:
        for step in range(500):
            if step == 200:
                settled = tracemalloc.get_traced_memory()[0]
            env.get_next_state(action)
            env.get_reward()
        grown = tracemalloc.get_traced_memory()[0] - settled
    finally:
        tracemalloc.stop()
    assert grown < 32_000


def test_weighting_slow_edge_raises_its_delay():
    # node 1 splits to a fast branch (node 2) and a slow branch (node 3)
    cfg = TopologyConfig(
        num_nodes=5,
        edge_list={0: {1: 1}, 1: {2: 2, 3: 3}, 2: {4: 4}, 3: {4: 5}},
        entry_edges={1},
        exit_edges={4, 5},
        arrival_rate=0.5,
        service_rates={1: 4.0, 2: 4.0, 3: 0.6},
    )
    slow_idx = 2  # serviced edges [1, 2, 3] -> edge type 3 at index 2
    diffs = []
    for seed in range(5):
        skew = RlEnv(cfg, seed=seed, events_per_step=100)
        uniform = RlEnv(cfg, seed=seed, events_per_step=100)
        skewed_action = np.array([1.0, 0.1, 0.9])
        uniform_action = np.array([1.0, 0.5, 0.5])
        for _ in range(10):
            skew.get_next_state(skewed_action)
            uniform.get_next_state(uniform_action)
        diffs.append(skew.get_state()[slow_idx] - uniform.get_state()[slow_idx])
    assert sum(diffs) / len(diffs) > 0
