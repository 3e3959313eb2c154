import math
from collections import deque

import numpy as np
import pytest

from queuerl.errors import ConfigError, DimensionMismatch, UnknownEdge, UnknownNode
from queuerl.netsim import (
    QueueNetwork,
    TopologyConfig,
    build_network,
    feed_forward_topology,
    figure_topology,
    mm1_topology,
    validate_config,
)
from queuerl.rl_env import R_FLOOR, RlEnv


class RecordingNetwork(QueueNetwork):
    """Oracle network: also logs every traversal of a serviced edge as
    [arrival time, exit time], the exit time None while the job is on the edge."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = {e: [] for e in self.serviced_edge_types}
        self._on_edge = {e: deque() for e in self.serviced_edge_types}

    def _enqueue(self, edge):
        rec = [self.clock, None]
        self.log[edge].append(rec)
        self._on_edge[edge].append(rec)
        super()._enqueue(edge)

    def _on_service_done(self, edge):
        self._on_edge[edge].popleft()[1] = self.clock
        super()._on_service_done(edge)


def mean_delay_oracle(net, edge):
    """Straight-line recomputation of the per-edge mean delay from the log."""
    recs = net.log[edge]
    if not recs:
        return 0.0
    total = sum((net.clock if x is None else x) - a for a, x in recs)
    return total / len(recs)


def serviced_oracle(net, edge, skip):
    """(count, delay sum) over the exited records of log[skip:], summed in
    log order as a rescan of the log would."""
    exited = [(a, x) for a, x in net.log[edge][skip:] if x is not None]
    total = 0.0
    for a, x in exited:
        total += x - a
    return len(exited), total


def snapshot(net):
    """Everything observable about a network, for exact comparisons."""
    return (
        net.clock,
        dict(net.arrivals_total),
        dict(net.exits_total),
        {e: (net.edge_mean_delay(e), net.edge_serviced_stats(e)) for e in net.serviced_edge_types},
        {e: list(q) for e, q in net.queues.items()},
    )


# -- construction -------------------------------------------------------------


def test_figure_topology_matches_reference_edge_list():
    cfg = figure_topology()
    assert cfg.edge_list[0] == {1: 1}
    assert cfg.edge_list[1] == {2: 2, 3: 3, 4: 4}
    assert cfg.edge_list[9] == {10: 0}
    assert cfg.serviced_edges() == list(range(1, 13))
    net = build_network(cfg, seed=0)
    assert net.transition_map[1] == {2: pytest.approx(1 / 3), 3: pytest.approx(1 / 3), 4: pytest.approx(1 / 3)}


def test_mm1_topology_single_successor():
    net = build_network(mm1_topology(0.5, 1.0), seed=0)
    assert net.transition_map == {0: {1: 1.0}, 1: {2: 1.0}}
    assert net.serviced_edge_types == [1]


def test_set_routing_installs_a_fresh_map():
    net = build_network(figure_topology(), seed=0)
    uniform = net.transition_map
    weights = [0.0] * 12
    weights[net.serviced_edge_types.index(2)] = 1.0
    net.set_routing(weights)
    assert net.transition_map[1] == {2: 1.0, 3: 0.0, 4: 0.0}
    assert uniform[1] == {2: pytest.approx(1 / 3), 3: pytest.approx(1 / 3), 4: pytest.approx(1 / 3)}
    with pytest.raises(DimensionMismatch):
        net.set_routing(weights[:-1])


def test_missing_service_rate_raises():
    cfg = figure_topology()
    del cfg.service_rates[5]
    with pytest.raises(ConfigError, match="edge type 5"):
        validate_config(cfg)


def test_no_entry_or_exit_raises():
    cfg = mm1_topology(0.5, 1.0)
    cfg.entry_edges = set()
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = mm1_topology(0.5, 1.0)
    cfg.exit_edges = set()
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_nonpositive_rates_raise():
    cfg = mm1_topology(0.5, 1.0)
    cfg.service_rates[1] = 0.0
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = mm1_topology(0.5, 1.0)
    cfg.arrival_rate = -1.0
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_duplicate_edge_type_raises():
    cfg = TopologyConfig(
        num_nodes=4,
        edge_list={0: {1: 1}, 1: {2: 1, 3: 0}},
        entry_edges={1},
        exit_edges={0},
        arrival_rate=0.5,
        service_rates={1: 1.0},
    )
    with pytest.raises(ConfigError, match="edge type 1"):
        validate_config(cfg)


def test_unreachable_exit_raises():
    cfg = TopologyConfig(
        num_nodes=5,
        edge_list={0: {1: 1}, 1: {0: 2}, 3: {4: 0}},
        entry_edges={1},
        exit_edges={0},
        arrival_rate=0.5,
        service_rates={1: 1.0, 2: 1.0},
    )
    with pytest.raises(ConfigError, match="path"):
        validate_config(cfg)


# -- simulation oracles --------------------------------------------------------


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
def test_mm1_sojourn_matches_theory(lam):
    mu = 1.0
    net = build_network(mm1_topology(lam, mu), seed=123)
    target = 50_000
    while sum(net.exits_total.values()) < target:
        net.simulate(20_000)
    count, delay_sum = net.edge_serviced_stats(1)
    mean_sojourn = delay_sum / count
    assert mean_sojourn == pytest.approx(1.0 / (mu - lam), rel=0.05)


def test_single_event_advances_clock_to_first_arrival():
    net = build_network(mm1_topology(0.5, 1.0), seed=7)
    net.simulate(1)
    assert net.clock > 0
    assert list(net.queues[1]) == [(net.clock, True)]
    assert sum(net.arrivals_total.values()) == 1


def test_empirical_interarrival_and_service_means():
    lam, mu = 0.5, 1.0
    net = build_network(mm1_topology(lam, mu), seed=11)
    net.simulate(45_000)
    arrivals = sum(net.arrivals_total.values())
    assert arrivals >= 10_000
    assert net.clock / arrivals == pytest.approx(1 / lam, rel=0.03)
    # a saturated server (arrivals far faster than service) never idles, so
    # its completions come at the service rate
    saturated = build_network(mm1_topology(4.0, mu), seed=11)
    saturated.simulate(80_000)
    exits = sum(saturated.exits_total.values())
    assert exits >= 10_000
    assert exits / saturated.clock == pytest.approx(mu, rel=0.03)


def test_fifo_exit_order_per_edge():
    # jobs leave from the head of their queue, so sorted queues mean FIFO exits
    net = build_network(figure_topology(), seed=3)
    net.set_blockage(3)  # let queues build up behind node 3
    for _ in range(10):
        net.simulate(2_000)
        for q in net.queues.values():
            times = [arrival for arrival, _ in q]
            assert times == sorted(times)
    assert len(net.queues[3]) > 1


def test_conservation_of_jobs():
    net = build_network(figure_topology(), seed=5)
    for _ in range(10):
        net.simulate(1_777)
        total_arrived = sum(net.arrivals_total.values())
        total_exited = sum(net.exits_total.values())
        in_queues = sum(len(q) for q in net.queues.values())
        assert total_arrived == in_queues + total_exited
        assert total_exited <= total_arrived


def test_determinism_same_seed_same_state():
    cfg = figure_topology()
    a = build_network(cfg, seed=99)
    b = build_network(cfg, seed=99)
    a.simulate(5_000)
    b.simulate(2_000)
    b.simulate(3_000)
    assert snapshot(a) == snapshot(b)


def test_mean_delay_accumulators_match_log_scan():
    net = RecordingNetwork(figure_topology(), seed=21)
    net.simulate(8_000)
    for edge in net.serviced_edge_types:
        assert net.edge_mean_delay(edge) == pytest.approx(
            mean_delay_oracle(net, edge), rel=1e-12, abs=1e-12
        )
        assert net.edge_serviced_stats(edge) == serviced_oracle(net, edge, 0)


@pytest.mark.parametrize("skip", [0, 1, 3, 10])
def test_skip_window_matches_log_rescan(skip):
    cfg = figure_topology()
    env = RlEnv(cfg, seed=skip + 40, events_per_step=100, reward_skip=skip)
    env.net = net = RecordingNetwork(cfg, skip + 40, None, skip)
    nodes = cfg.blockable_nodes()
    action = np.linspace(0.1, 0.9, env.action_dim)
    blocked = None
    for step in range(60):
        if step % 10 == 0:  # move the blockage to the next node
            if blocked is not None:
                net.clear_blockage(blocked)
            blocked = nodes[(step // 10 + 2) % len(nodes)]
            net.set_blockage(blocked)
        env.get_next_state(action)
        means = []
        for edge in net.serviced_edge_types:
            count, delay_sum = serviced_oracle(net, edge, skip)
            assert net.edge_serviced_stats(edge) == (count, delay_sum)
            if count > 0:
                means.append(delay_sum / count)
        ratio = max(sum(net.exits_total.values()) / sum(net.arrivals_total.values()), R_FLOOR)
        expected = -(sum(means) / len(means) if means else 0.0) / ratio
        assert env.get_reward() == expected
    assert any(len(net.log[e]) > skip for e in net.serviced_edge_types)


# -- serviced stats ----------------------------------------------------------------


def test_inject_record_unknown_edge():
    net = build_network(mm1_topology(0.5, 1.0), seed=1)
    with pytest.raises(UnknownEdge):
        net.inject_record(42, arrival_time=1.0)


def test_untraversed_edge_has_no_serviced_stats():
    net = build_network(figure_topology(), seed=1)
    assert net.edge_serviced_stats(12) == (0, 0.0)


# -- blockage ---------------------------------------------------------------------


def test_blockage_suspends_incoming_edge_service():
    net = build_network(figure_topology(), seed=17)
    net.set_blockage(3)
    net.simulate(10_000)
    # edge 3 feeds node 3: its jobs never finish service
    assert len(net.queues[3]) > 0
    assert net.edge_serviced_stats(3)[0] == 0
    # nothing ever crosses node 3, so its outgoing edges stay silent
    for edge in (6, 7):
        assert net.edge_serviced_stats(edge)[0] == 0
        assert not net.queues[edge]
    # traffic still exits through nodes 2 and 4
    assert sum(net.exits_total.values()) > 0
    assert net.edge_serviced_stats(5)[0] > 0
    assert net.edge_serviced_stats(8)[0] > 0


def test_blockage_validation():
    net = build_network(figure_topology(), seed=0)
    with pytest.raises(UnknownNode):
        net.set_blockage(42)
    with pytest.raises(ConfigError):
        net.set_blockage(0)  # entry source
    with pytest.raises(ConfigError):
        net.set_blockage(10)  # exit sink


def test_clear_blockage_is_noop_when_not_blocked():
    net = build_network(figure_topology(), seed=0)
    net.clear_blockage(3)
    assert net.blocked_nodes == set()


def test_block_then_clear_before_simulating_is_identical():
    cfg = figure_topology()
    plain = build_network(cfg, seed=31)
    toggled = build_network(cfg, seed=31)
    toggled.set_blockage(3)
    toggled.clear_blockage(3)
    plain.simulate(5_000)
    toggled.simulate(5_000)
    assert snapshot(plain) == snapshot(toggled)


def test_clear_blockage_resumes_service():
    net = build_network(figure_topology(), seed=13)
    net.set_blockage(3)
    net.simulate(4_000)
    assert len(net.queues[3]) > 0
    assert net.edge_serviced_stats(3)[0] == 0
    net.clear_blockage(3)
    net.simulate(6_000)
    assert net.edge_serviced_stats(3)[0] > 0
    assert net.edge_serviced_stats(6)[0] + net.edge_serviced_stats(7)[0] > 0


# -- generated topologies -----------------------------------------------------------


@pytest.mark.parametrize("n", [10, 50, 100])
def test_feed_forward_topology_valid_and_runs(n):
    cfg = feed_forward_topology(n)
    validate_config(cfg)
    assert cfg.num_nodes == n
    # edge count stays linear in the node count
    n_edges = sum(len(s) for s in cfg.edge_list.values())
    assert n_edges <= 3 * n
    net = build_network(cfg, seed=2)
    net.simulate(3_000)
    assert sum(net.exits_total.values()) > 0


def test_inject_record_updates_stats():
    net = build_network(mm1_topology(0.5, 1.0), seed=0)
    net.inject_record(1, arrival_time=2.0, exit_time=5.0)
    net.inject_record(1, arrival_time=3.0)
    net.clock = 7.0
    assert net.edge_mean_delay(1) == pytest.approx((3.0 + 4.0) / 2)
    count, total = net.edge_serviced_stats(1)
    assert (count, total) == (1, 3.0)
