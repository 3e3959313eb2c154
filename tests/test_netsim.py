import hashlib
import heapq
import itertools
import math
import random
import re
from collections import deque
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from queuerl.errors import ConfigError, DimensionMismatch, UnknownNode
from queuerl.evaluation import NoiseConfig, make_noise_hook
from queuerl.netsim import (
    UNIFORM_FALLBACK_EPS,
    QueueNetwork,
    TopologyConfig,
    feed_forward_topology,
    figure_topology,
    validate_config,
)
from queuerl.rl_env import R_FLOOR, RlEnv
from topologies import hetero_figure_topology, mm1_topology


class ReferenceNetwork:
    """Oracle simulator: the same model written straight, one handler per
    event kind and a Python loop for the routing normalisation, drawing the
    same random numbers in the same order as QueueNetwork. It also logs
    every traversal of a serviced edge as [arrival time, exit time], the
    exit time None while the job is on the edge. It checks no argument."""

    def __init__(self, config, seed, interarrival_noise=None, skip=0):
        self.config = config
        self.rng = random.Random(seed)
        self.interarrival_noise = interarrival_noise
        self.skip = skip
        self.clock = 0.0
        self.events = 0
        self.cancelled = 0
        self._heap = []
        self._seq = 0
        self._endpoints = config.edge_endpoints()
        self.serviced_edge_types = config.serviced_edges()
        self.queues = {e: deque() for e in self.serviced_edge_types}
        self.arrivals_total = {e: 0 for e in sorted(config.entry_edges)}
        self.exits_total = {e: 0 for e in sorted(config.exit_edges)}
        self.blocked_nodes = set()
        self._edge_epoch = {e: 0 for e in self.serviced_edge_types}
        # per edge: records, exits, exited delay sum, in-flight arrival sum,
        # counted delay sum
        self._stats = {e: [0, 0, 0.0, 0.0, 0.0] for e in self.serviced_edge_types}
        self.log = {e: [] for e in self.serviced_edge_types}
        self._on_edge = {e: deque() for e in self.serviced_edge_types}
        self.set_routing([0.0] * len(self.serviced_edge_types))
        for etype in sorted(config.entry_edges):
            self._schedule_external_arrival(etype)

    def _push(self, time, kind, edge, epoch):
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, edge, epoch))

    def _schedule_external_arrival(self, edge):
        gap = self.rng.expovariate(self.config.arrival_rate)
        if self.interarrival_noise is not None:
            gap = self.interarrival_noise(gap)
        self._push(self.clock + gap, "arrival", edge, 0)

    def set_routing(self, weights):
        weights = [float(w) for w in weights]
        position = {e: i for i, e in enumerate(self.serviced_edge_types)}
        tmap, tables = {}, {}
        for node, succs in self.config.edge_list.items():
            ordered = sorted(succs)
            edges = [succs[s] for s in ordered]
            row = [weights[position[e]] if e in position else 0.0 for e in edges]
            total = sum(row)
            if not math.isfinite(total):
                raise ConfigError(f"routing weights at node {node} sum to {total}")
            if total < UNIFORM_FALLBACK_EPS:
                probs = [1.0 / len(row) for _ in row]
            else:
                probs = [w / total for w in row]
            tmap[node] = dict(zip(ordered, probs))
            tables[node] = list(zip(accumulate(probs), edges))
        self.transition_map = tmap
        self._routing = tables

    def simulate(self, num_events):
        processed = 0
        while processed < num_events:
            time, _, kind, edge, epoch = heapq.heappop(self._heap)
            if kind == "service" and epoch != self._edge_epoch[edge]:
                continue
            self.clock = time
            if kind == "arrival":
                self.arrivals_total[edge] += 1
                self._enqueue(edge)
                self._schedule_external_arrival(edge)
            else:
                self._on_service_done(edge)
            processed += 1
        self.events += processed

    def set_blockage(self, node):
        if node in self.blocked_nodes:
            return
        self.blocked_nodes.add(node)
        for edge in self.serviced_edge_types:
            if self._endpoints[edge][1] == node:
                self._edge_epoch[edge] += 1
                self.cancelled += bool(self.queues[edge])

    def clear_blockage(self, node):
        if node not in self.blocked_nodes:
            return
        self.blocked_nodes.remove(node)
        for edge in self.serviced_edge_types:
            if self._endpoints[edge][1] == node and self.queues[edge]:
                self._start_service(edge)

    def edge_mean_delay(self, edge):
        n_records, n_exited, exited_sum, inflight_sum, _ = self._stats[edge]
        if n_records == 0:
            return 0.0
        total = exited_sum + (n_records - n_exited) * self.clock - inflight_sum
        return total / n_records

    def edge_serviced_stats(self, edge):
        st = self._stats[edge]
        return max(0, st[1] - self.skip), st[4]

    def mean_delays(self):
        return [self.edge_mean_delay(e) for e in self.serviced_edge_types]

    def serviced_stats(self):
        return [self.edge_serviced_stats(e) for e in self.serviced_edge_types]

    def _enqueue(self, edge):
        rec = [self.clock, None]
        self.log[edge].append(rec)
        self._on_edge[edge].append(rec)
        st = self._stats[edge]
        st[0] += 1
        st[3] += self.clock
        q = self.queues[edge]
        q.append(self.clock)
        if len(q) == 1 and self._endpoints[edge][1] not in self.blocked_nodes:
            self._start_service(edge)

    def _start_service(self, edge):
        duration = self.rng.expovariate(self.config.service_rates[edge])
        self._push(self.clock + duration, "service", edge, self._edge_epoch[edge])

    def _on_service_done(self, edge):
        self._on_edge[edge].popleft()[1] = self.clock
        q = self.queues[edge]
        arrival_time = q.popleft()
        st = self._stats[edge]
        delay = self.clock - arrival_time
        if st[1] >= self.skip:
            st[4] += delay
        st[1] += 1
        st[2] += delay
        st[3] -= arrival_time
        if q and self._endpoints[edge][1] not in self.blocked_nodes:
            self._start_service(edge)
        node = self._endpoints[edge][1]
        u = self.rng.random()
        for cumulative, next_edge in self._routing[node]:
            if u < cumulative:
                break
        if next_edge in self.exits_total:
            self.exits_total[next_edge] += 1
        else:
            self._enqueue(next_edge)


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


def serviced_stats(net):
    """Per serviced edge, (count, delay sum) over its exited traversals at
    arrival index skip or above: a QueueNetwork's exit counts and counted
    sums, or a ReferenceNetwork's own."""
    if isinstance(net, ReferenceNetwork):
        return net.serviced_stats()
    return [(max(0, done - net.skip), total)
            for done, total in zip(net._n_exited, net._counted_sum)]


def mean_delays(net):
    """edge type -> the network's mean delay on it."""
    return dict(zip(net.serviced_edge_types, net.mean_delays()))


def serviced(net):
    """edge type -> the network's (count, delay sum) on it."""
    return dict(zip(net.serviced_edge_types, serviced_stats(net)))


def snapshot(net):
    """Everything observable about a network, for exact comparisons."""
    return (
        net.clock,
        net.events,
        net.cancelled,
        dict(net.arrivals_total),
        dict(net.exits_total),
        net.mean_delays(),
        serviced_stats(net),
        {e: list(q) for e, q in net.queues.items()},
        net.transition_map,
    )


# -- construction -------------------------------------------------------------


def test_figure_topology_matches_reference_edge_list():
    cfg = figure_topology()
    assert cfg.edge_list[0] == {1: 1}
    assert cfg.edge_list[1] == {2: 2, 3: 3, 4: 4}
    assert cfg.edge_list[9] == {10: 0}
    assert cfg.serviced_edges() == list(range(1, 13))
    net = QueueNetwork(cfg, seed=0)
    assert net.transition_map[1] == {2: pytest.approx(1 / 3), 3: pytest.approx(1 / 3), 4: pytest.approx(1 / 3)}


def test_mm1_topology_single_successor():
    net = QueueNetwork(mm1_topology(0.5, 1.0), seed=0)
    assert net.transition_map == {0: {1: 1.0}, 1: {2: 1.0}}
    assert net.serviced_edge_types == [1]


def test_set_routing_installs_a_fresh_map():
    net = QueueNetwork(figure_topology(), seed=0)
    uniform = net.transition_map
    weights = [0.0] * 12
    weights[net.serviced_edge_types.index(2)] = 1.0
    net.set_routing(weights)
    assert net.transition_map[1] == {2: 1.0, 3: 0.0, 4: 0.0}
    assert uniform[1] == {2: pytest.approx(1 / 3), 3: pytest.approx(1 / 3), 4: pytest.approx(1 / 3)}
    with pytest.raises(DimensionMismatch):
        net.set_routing(weights[:-1])
    # a caller that writes its array after installing it changes neither the
    # map nor the routing draws
    for cfg in (figure_topology(), feed_forward_topology(40, width=5)):
        net, twin = QueueNetwork(cfg, seed=3), QueueNetwork(cfg, seed=3)
        weights = np.random.default_rng(0).random(len(net.serviced_edge_types))
        net.set_routing(weights)
        twin.set_routing(weights.copy())
        installed = net.transition_map
        weights[:] = 0.0
        weights[0] = 1.0
        assert net.transition_map == installed
        net.simulate(2000)
        twin.simulate(2000)
        assert snapshot(net) == snapshot(twin)


_WEIGHT = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1e-7, 5e-7, 1e308, -1e308, math.inf, -math.inf, math.nan]),
)

# routing tables from 1 row to 199: feed_forward_topology(n) has n - 1 rows
_ROUTING_TOPOLOGIES = [figure_topology(), mm1_topology(0.5, 1.0)] + [
    feed_forward_topology(n, width=width) for n in (11, 40, 200) for width in (1, 5)
]


@st.composite
def _weight_vector(draw, n):
    """n routing weights: a short vector anywhere in _WEIGHT; a long one
    uniform in [-1, 1) from a drawn seed (so that most draws install), with
    a few entries replaced by _WEIGHT's."""
    if n <= 12:
        return draw(st.lists(_WEIGHT, min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(-1.0, 1.0, n).tolist()
    for i, w in draw(st.lists(st.tuples(st.integers(0, n - 1), _WEIGHT), max_size=8)):
        weights[i] = w
    return weights


def _reference_rows(ref, layout):
    """The reference loop's cumulative rows in the layout's row order, with
    math.inf in place of each row's last entry."""
    tables = [[c for c, _ in ref._routing[node]] for node in layout.nodes]
    return [table[:-1] + [math.inf] if table else [] for table in tables]


def _hex_rows(rows):
    """Each row's entries as float.hex strings."""
    return [[x.hex() for x in row] for row in rows]


def _hex_map(tmap):
    """A transition map with each probability as a float.hex string."""
    return {node: {s: p.hex() for s, p in row.items()} for node, row in tmap.items()}


def test_routing_normalisation_matches_scalar_loop():
    # the cumulative rows and the transition maps give
    # the reference loop's floats bit for bit, and its errors; set_routing
    # installs the same rows, and an error leaves the installed routing in
    # place
    for cfg in _ROUTING_TOPOLOGIES:
        _check_routing_normalisation(cfg)


def _check_routing_normalisation(cfg):
    n = len(cfg.serviced_edges())

    def check(rows):
        net = QueueNetwork(cfg, seed=0)
        ref = ReferenceNetwork(cfg, seed=0)
        layout = net.routing_layout
        for weights in rows:
            w = np.array(weights)
            installed, installed_map = net._cumulative, net.transition_map
            try:
                ref.set_routing(weights)
            except ConfigError as exc:
                for build in (layout.cumulative_rows, layout.transition_map, net.set_routing):
                    with pytest.raises(ConfigError, match=re.escape(str(exc))):
                        build(w)
                assert net._cumulative is installed
                assert net.transition_map == installed_map
                return
            expected = _hex_rows(_reference_rows(ref, layout))
            assert _hex_rows(layout.cumulative_rows(w)) == expected
            net.set_routing(weights)
            assert _hex_rows(net._cumulative) == expected
            assert _hex_map(layout.transition_map(w)) == _hex_map(ref.transition_map)
            assert _hex_map(net.transition_map) == _hex_map(ref.transition_map)

    # -0.0 weights at every other position: a row led by one, with a
    # positive sum, starts at probability -0.0, which float.hex tells from 0.0
    for parity in (0, 1):
        check([[-0.0 if i % 2 == parity else 1.0 for i in range(n)]])
    settings(max_examples=200 if n <= 12 else 40, deadline=None)(
        given(st.lists(_weight_vector(n), min_size=1, max_size=3))(check))()


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


@pytest.mark.parametrize("num_nodes, edge_list, entry, exits, rates, message", [
    (5, {0: {1: 1}, 1: {2: 0}}, {5}, {0}, {1: 1.0}, "edge type 5 not present in edge_list"),
    (5, {0: {1: 1}, 1: {2: 0}}, {1}, {0, 1}, {}, "an edge cannot be both entry and exit"),
    (5, {0: {1: 1}, 1: {2: 0}, 3: {4: 2}}, {1}, {0}, {1: 1.0, 2: 1.0},
     "node 4 (target of edge type 2) has no outgoing edges"),
    (5, {0: {1: 1}, 1: {2: 0, 3: 2}, 3: {2: 3}}, {1}, {0, 3}, {1: 1.0, 2: 1.0},
     "node 1 mixes exit and serviced outgoing edges"),
    (0, {0: {1: 1}, 1: {2: 0}}, {1}, {0}, {1: 1.0}, "num_nodes must be positive"),
    (3, {0: {1: 1}, 1: {2: 0}, -1: {1: 2}}, {1}, {0}, {1: 1.0, 2: 1.0},
     "node -1 outside [0, 3)"),
    (2, {0: {1: 1}, 1: {2: 0}}, {1}, {0}, {1: 1.0}, "node 2 outside [0, 2)"),
    # jobs routed to node 3 circle between nodes 3 and 5 for ever
    (6, {0: {1: 1}, 1: {2: 2, 3: 3}, 2: {4: 0}, 3: {5: 4}, 5: {3: 5}}, {1}, {0},
     {e: 4.0 for e in range(1, 6)},
     "no directed path from node 3 (target of edge type 3) to any exit edge"),
], ids=["absent_entry_edge", "entry_and_exit", "dead_end_target", "mixed_successors",
        "no_nodes", "source_outside_the_network", "target_outside_the_network",
        "cycle_without_exit"])
def test_malformed_edge_roles_raise(num_nodes, edge_list, entry, exits, rates, message):
    cfg = TopologyConfig(num_nodes=num_nodes, edge_list=edge_list, entry_edges=entry,
                         exit_edges=exits, arrival_rate=0.5, service_rates=rates)
    with pytest.raises(ConfigError, match=re.escape(message)):
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
    net = QueueNetwork(mm1_topology(lam, mu), seed=123)
    target = 50_000
    while sum(net.exits_total.values()) < target:
        net.simulate(20_000)
    count, delay_sum = serviced_stats(net)[0]
    mean_sojourn = delay_sum / count
    assert mean_sojourn == pytest.approx(1.0 / (mu - lam), rel=0.05)


def _traffic_rates(net):
    """Each serviced edge's traversal rate, in serviced_edge_types order,
    from the traffic equations lam = lam0 + P^T lam (Jackson 1957): lam0 is
    the arrival rate on the entry edges, and P[e, f] the probability, read
    from net.transition_map, that a job leaving edge e moves on to edge f."""
    cfg = net.config
    index = {e: i for i, e in enumerate(net.serviced_edge_types)}
    endpoints = cfg.edge_endpoints()
    routing = np.zeros((len(index), len(index)))
    for e, i in index.items():
        node = endpoints[e][1]
        for succ, p in net.transition_map[node].items():
            f = cfg.edge_list[node][succ]
            if f in index:
                routing[i, index[f]] = p
    lam0 = [cfg.arrival_rate if e in cfg.entry_edges else 0.0 for e in index]
    return np.linalg.solve(np.eye(len(index)) - routing.T, lam0)


def _batch_traversal_rates(net, warmup, batches, batch_events):
    """(batches, serviced edges): each edge's traversals per unit of clock in
    each batch of batch_events events after warmup events. An edge's
    traversal count is its exits plus the jobs in its queue."""
    def traversals():
        return np.array([n + len(q) for n, q in zip(net._n_exited, net._queues)])

    net.simulate(warmup)
    rates = []
    for _ in range(batches):
        start, clock = traversals(), net.clock
        net.simulate(batch_events)
        rates.append((traversals() - start) / (net.clock - clock))
    return np.array(rates)


@pytest.mark.parametrize("cfg, unreachable", [
    (figure_topology(), []),
    (hetero_figure_topology(), []),
    (feed_forward_topology(11), [4, 5, 6, 7, 12, 13]),
    (feed_forward_topology(40), [4, 5, 6, 7, 12, 13]),
], ids=["figure", "hetero", "ff11", "ff40"])
def test_traversal_rates_solve_the_traffic_equations(cfg, unreachable):
    # under random weights, each edge's mean traversal rate over batches
    # lies within a t bound of its solved rate; the bound is split over the
    # edges (Bonferroni), so a correct simulator fails one run in 1000
    net = QueueNetwork(cfg, seed=5)
    net.set_routing(np.random.default_rng(5).random(len(net.serviced_edge_types)))
    lam = _traffic_rates(net)
    mu = np.array([cfg.service_rates[e] for e in net.serviced_edge_types])
    assert (lam / mu).max() < 0.9  # every edge is stable, so batches settle
    rates = _batch_traversal_rates(net, warmup=2_000, batches=20, batch_events=10_000)

    edges = np.array(net.serviced_edge_types)
    idle = lam < 1e-12
    assert edges[idle].tolist() == unreachable
    assert not rates[:, idle].any()
    live = ~idle
    mean = rates[:, live].mean(axis=0)
    stderr = rates[:, live].std(axis=0, ddof=1) / math.sqrt(len(rates))
    bound = scipy_stats.t.ppf(1 - 1e-3 / (2 * live.sum()), len(rates) - 1)
    z = np.abs(mean - lam[live]) / stderr
    assert z.max() <= bound, (edges[live][z.argmax()], z.max(), bound)


def test_single_event_advances_clock_to_first_arrival():
    net = QueueNetwork(mm1_topology(0.5, 1.0), seed=7)
    net.simulate(1)
    assert net.clock > 0
    assert list(net.queues[1]) == [net.clock]
    assert sum(net.arrivals_total.values()) == 1


def test_empirical_interarrival_and_service_means():
    lam, mu = 0.5, 1.0
    net = QueueNetwork(mm1_topology(lam, mu), seed=11)
    net.simulate(45_000)
    arrivals = sum(net.arrivals_total.values())
    assert arrivals >= 10_000
    assert net.clock / arrivals == pytest.approx(1 / lam, rel=0.03)
    # a saturated server (arrivals far faster than service) never idles, so
    # its completions come at the service rate
    saturated = QueueNetwork(mm1_topology(4.0, mu), seed=11)
    saturated.simulate(80_000)
    exits = sum(saturated.exits_total.values())
    assert exits >= 10_000
    assert exits / saturated.clock == pytest.approx(mu, rel=0.03)


def test_fifo_exit_order_per_edge():
    # jobs leave from the head of their queue, so sorted queues mean FIFO exits
    net = QueueNetwork(figure_topology(), seed=3)
    net.set_blockage(3)  # let queues build up behind node 3
    for _ in range(10):
        net.simulate(2_000)
        for q in net.queues.values():
            assert list(q) == sorted(q)
    assert len(net.queues[3]) > 1


def test_conservation_of_jobs():
    net = QueueNetwork(figure_topology(), seed=5)
    for _ in range(10):
        net.simulate(1_777)
        total_arrived = sum(net.arrivals_total.values())
        total_exited = sum(net.exits_total.values())
        in_queues = sum(len(q) for q in net.queues.values())
        assert total_arrived == in_queues + total_exited
        assert total_exited <= total_arrived


def test_determinism_same_seed_same_state():
    cfg = figure_topology()
    a = QueueNetwork(cfg, seed=99)
    b = QueueNetwork(cfg, seed=99)
    a.simulate(5_000)
    b.simulate(2_000)
    b.simulate(3_000)
    assert snapshot(a) == snapshot(b)


def test_mean_delay_accumulators_match_log_scan():
    net = QueueNetwork(figure_topology(), seed=21)
    ref = ReferenceNetwork(figure_topology(), seed=21)
    net.simulate(8_000)
    ref.simulate(8_000)
    for edge, delay, stats in zip(net.serviced_edge_types, net.mean_delays(),
                                  serviced_stats(net)):
        assert delay == pytest.approx(mean_delay_oracle(ref, edge), rel=1e-12, abs=1e-12)
        assert stats == serviced_oracle(ref, edge, 0)


@pytest.mark.parametrize("skip", [0, 1, 3, 10])
def test_skip_window_matches_log_rescan(skip):
    cfg = figure_topology()
    env = RlEnv(cfg, seed=skip + 40, events_per_step=100, reward_skip=skip)
    net = env.net
    ref = ReferenceNetwork(cfg, skip + 40, None, skip)
    nodes = cfg.blockable_nodes()
    action = np.linspace(0.1, 0.9, env.action_dim)
    blocked = None
    for step in range(60):
        if step % 10 == 0:  # move the blockage to the next node
            for n in (net, ref):
                if blocked is not None:
                    n.clear_blockage(blocked)
                n.set_blockage(nodes[(step // 10 + 2) % len(nodes)])
            blocked = nodes[(step // 10 + 2) % len(nodes)]
        env.get_next_state(action)
        ref.set_routing(action)
        ref.simulate(100)
        means = []
        for edge, stats in zip(net.serviced_edge_types, serviced_stats(net)):
            count, delay_sum = serviced_oracle(ref, edge, skip)
            assert stats == (count, delay_sum)
            if count > 0:
                means.append(delay_sum / count)
        assert net.counted_means() == means
        ratio = max(sum(net.exits_total.values()) / sum(net.arrivals_total.values()), R_FLOOR)
        expected = -(sum(means) / len(means) if means else 0.0) / ratio
        assert env.get_reward() == expected
    assert any(len(ref.log[e]) > skip for e in net.serviced_edge_types)


def snapshots(make, cfg, seed, skip, events):
    """A network's snapshot after each step of a 60-step run: seeded
    routing weights (every seventh step all zero), interarrival noise, a
    blockage moved every 10 steps, and a rebuild with a new seed at step 35."""
    actions = np.random.default_rng(seed).random((60, len(cfg.serviced_edges())))
    actions[::7] = 0.0
    nodes = cfg.blockable_nodes()
    noise = NoiseConfig(mean=0.0, variance=0.5, frequency=0.5)
    net = make(cfg, seed, make_noise_hook(noise, seed), skip)
    blocked = None
    for step, action in enumerate(actions):
        if step == 35:
            net = make(cfg, seed + 1, make_noise_hook(noise, seed + 1), skip)
            blocked = None
        if step % 10 == 0:
            if blocked is not None:
                net.clear_blockage(blocked)
            blocked = nodes[(step // 10 + skip) % len(nodes)]
            net.set_blockage(blocked)
        net.set_routing(action)
        net.simulate(events)
        yield snapshot(net)


@pytest.mark.parametrize("skip", [0, 1, 3, 10])
@pytest.mark.parametrize("topology", ["figure", "feed_forward_30"])
def test_kernel_matches_reference_network(topology, skip):
    cfg = figure_topology() if topology == "figure" else feed_forward_topology(30)
    fast = snapshots(QueueNetwork, cfg, 60 + skip, skip, 150)
    reference = snapshots(ReferenceNetwork, cfg, 60 + skip, skip, 150)
    for step, (a, b) in enumerate(zip(fast, reference)):
        assert a == b, f"step {step}"
    assert step == 59


def test_event_counter_sums_simulated_events():
    net = QueueNetwork(figure_topology(), seed=4)
    for n in (1, 250, 4_000):
        net.simulate(n)
    assert net.events == 4_251
    assert net.cancelled == 0


def test_blockage_cancels_one_completion_per_busy_edge():
    # node 9 merges edges 9-12; run until at least two of them are busy
    net = QueueNetwork(figure_topology(arrival_rate=1.5), seed=8)
    busy = []
    while len(busy) < 2:
        net.simulate(50)
        busy = [e for e in (9, 10, 11, 12) if net.queues[e]]
    events = net.events
    net.set_blockage(9)
    net.simulate(3_000)
    assert net.cancelled == len(busy)
    assert net.events == events + 3_000


def test_repeated_toggles_cancel_stale_completions_like_reference():
    # blocking and clearing a busy node twice with no event in between
    # cancels two completions per busy incoming edge, each counted when its
    # blockage takes it off the calendar
    cfg = figure_topology(arrival_rate=1.5)
    net, ref = QueueNetwork(cfg, seed=12), ReferenceNetwork(cfg, seed=12)
    endpoints = cfg.edge_endpoints()
    nodes = cfg.blockable_nodes()
    stale = 0
    for step in range(40):
        for n in (net, ref):
            n.simulate(60)
        assert snapshot(net) == snapshot(ref), f"step {step}"
        node = nodes[step % len(nodes)]
        stale += 2 * sum(1 for e in net.serviced_edge_types
                         if endpoints[e][1] == node and net.queues[e])
        for n in (net, ref):
            for _ in range(2):
                n.set_blockage(node)
                n.clear_blockage(node)
        assert snapshot(net) == snapshot(ref), f"step {step}"
    for n in (net, ref):
        n.simulate(5_000)
    assert snapshot(net) == snapshot(ref)
    assert stale > 0
    assert net.cancelled == stale


_CALENDAR_CALLS = st.lists(st.tuples(
    st.sampled_from(["simulate", "set_routing", "set_blockage", "clear_blockage"]),
    st.integers(0, 2**32 - 1)), max_size=40)


@settings(max_examples=60, deadline=None)
@given(topology=st.sampled_from(["figure", "feed_forward_30"]),
       seed=st.integers(0, 2**32 - 1), calls=_CALENDAR_CALLS)
def test_calendar_holds_only_live_events(topology, seed, calls):
    # one arrival per entry edge and one completion per serviced edge with a
    # queued job and an unblocked target, after every call
    cfg = (figure_topology(arrival_rate=1.5) if topology == "figure"
           else feed_forward_topology(30, arrival_rate=1.5))
    endpoints = cfg.edge_endpoints()
    nodes = cfg.blockable_nodes()
    net = QueueNetwork(cfg, seed=seed)
    for name, arg in calls:
        if name == "simulate":
            net.simulate(1 + arg % 200)
        elif name == "set_routing":
            weights = np.random.default_rng(arg).random(len(net.serviced_edge_types))
            net.set_routing(weights if arg % 4 else 0.0 * weights)
        else:
            getattr(net, name)(nodes[arg % len(nodes)])
        live = sum(1 for e, q in net.queues.items()
                   if q and endpoints[e][1] not in net.blocked_nodes)
        assert len(net._keys) == len(net._codes) == len(cfg.entry_edges) + live, name


def unit_draw(x):
    """The uniform u for which the exponential draw -log(1 - u) / rate is
    x / rate, to rounding."""
    return -math.expm1(-x)


def scripted_random(script):
    """A random.Random whose random() cycles through script. A 0.0 draw
    gives a zero-length gap or service time, so many events share one
    instant."""

    class Scripted(random.Random):
        def seed(self, a=None, version=2):
            super().seed(a, version)
            self._draws = itertools.cycle(script)

        def random(self):
            return next(self._draws)

    return Scripted


@pytest.mark.parametrize(
    "script", [[0.0], [0.0, 0.0, 0.5], [0.0, 0.25, 0.0, 0.75, 0.0]],
    ids=["all_zero", "zero_zero_half", "alternating"])
def test_exact_ties_pop_in_push_order_like_reference(monkeypatch, script):
    # events at one instant must pop in the order they were pushed, and
    # taking a cancelled completion off the calendar must leave a live one
    # at the same time in place
    cfg = figure_topology(arrival_rate=1.5)
    with monkeypatch.context() as m:
        m.setattr(random, "Random", scripted_random(script))
        net, ref = QueueNetwork(cfg, seed=5), ReferenceNetwork(cfg, seed=5)
    actions = np.random.default_rng(5).random((60, len(cfg.serviced_edges())))
    actions[::5] = 0.0
    nodes = cfg.blockable_nodes()
    for step, action in enumerate(actions):
        node = nodes[step // 3 % len(nodes)]
        for n in (net, ref):
            n.set_routing(action)
            if step % 3 == 0:
                n.set_blockage(node)
            elif step % 3 == 2:
                n.set_blockage(nodes[0])  # a no-op when nodes[0] is blocked
                n.clear_blockage(nodes[0])
                n.clear_blockage(node)
            n.simulate(7)
        assert snapshot(net) == snapshot(ref), f"step {step}"
        assert (np.array([net.clock] + net.mean_delays()).tobytes()
                == np.array([ref.clock] + ref.mean_delays()).tobytes()), f"step {step}"
    assert net.cancelled > 0


def test_empty_calendar_raises_runtime_error():
    net = QueueNetwork(mm1_topology(0.5, 1.0), seed=0)
    net._keys.clear()
    net._codes.clear()
    with pytest.raises(RuntimeError, match="calendar empty"):
        net.simulate(1)
    assert net.events == 0


@pytest.mark.parametrize("gap", [math.nan, -1.0, math.inf, -math.inf])
def test_bad_noise_gap_raises_config_error(gap):
    cfg = figure_topology()
    with pytest.raises(ConfigError, match="interarrival_noise"):
        QueueNetwork(cfg, seed=3, interarrival_noise=lambda base: gap)
    # the first gap is fine, a later one is not
    gaps = iter([0.5])
    net = QueueNetwork(cfg, seed=3, interarrival_noise=lambda base: next(gaps, gap))
    with pytest.raises(ConfigError, match="interarrival_noise"):
        net.simulate(200)


def test_zero_noise_gaps_are_accepted():
    net = QueueNetwork(figure_topology(), seed=3, interarrival_noise=lambda base: 0.0)
    net.simulate(50)
    assert net.clock == 0.0


def test_zero_draw_gap_passes_through_the_noise_hook(monkeypatch):
    # random() == 0.0 makes the inline draw -log(1.0) / rate == -0.0, a
    # legal zero gap that the noise hook must accept
    hook = make_noise_hook(NoiseConfig(mean=0.0, variance=0.5, frequency=0.5), seed=3)
    with monkeypatch.context() as m:
        m.setattr(random, "Random", scripted_random([0.0]))
        net = QueueNetwork(figure_topology(), seed=3, interarrival_noise=hook)
    net.simulate(200)
    assert net.events == 200
    assert math.isfinite(net.clock) and net.clock > 0.0


@pytest.mark.parametrize("arrival_rate, service_rate, message", [
    (2e-307, 2.0, "arrival_rate"), (0.3, 2e-307, "edge type 1")])
def test_rates_whose_draws_overflow_raise(arrival_rate, service_rate, message):
    # the longest draw, -log(2**-53) / rate, is infinite below about 2e-307;
    # the CLI's malformed-input cases check a rate far below that
    with pytest.raises(ConfigError, match=message):
        validate_config(mm1_topology(arrival_rate, service_rate))
    validate_config(mm1_topology(3e-307, 3e-307))
    assert math.isfinite(-math.log(2.0 ** -53) / 3e-307)


@pytest.mark.parametrize("rate", [0.3, 2.0, 1e300])
def test_inline_exponential_draw_matches_expovariate(rate):
    # simulate writes Random.expovariate's body out as clock - log(1 - u) / rate
    lib, inline = random.Random(31), random.Random(31)
    for k in range(10_000):
        draw = lib.expovariate(rate)
        u = inline.random()
        assert (-math.log(1.0 - u) / rate).hex() == draw.hex()
        clock = k * 0.37
        assert (clock - math.log(1.0 - u) / rate).hex() == (clock + draw).hex()


# -- serviced stats ----------------------------------------------------------------


def test_negative_skip_is_rejected():
    with pytest.raises(ConfigError, match="reward_skip"):
        QueueNetwork(mm1_topology(0.5, 1.0), seed=0, skip=-1)


def test_untraversed_edge_has_no_serviced_stats():
    net = QueueNetwork(figure_topology(), seed=1)
    assert serviced(net)[12] == (0, 0.0)
    assert mean_delays(net)[12] == 0.0


# -- blockage ---------------------------------------------------------------------


def test_blockage_suspends_incoming_edge_service():
    net = QueueNetwork(figure_topology(), seed=17)
    net.set_blockage(3)
    net.simulate(10_000)
    # edge 3 feeds node 3: its jobs never finish service
    assert len(net.queues[3]) > 0
    stats = serviced(net)
    assert stats[3][0] == 0
    # nothing ever crosses node 3, so its outgoing edges stay silent
    for edge in (6, 7):
        assert stats[edge][0] == 0
        assert not net.queues[edge]
    # traffic still exits through nodes 2 and 4
    assert sum(net.exits_total.values()) > 0
    assert stats[5][0] > 0
    assert stats[8][0] > 0


def test_blockage_validation():
    net = QueueNetwork(figure_topology(), seed=0)
    with pytest.raises(UnknownNode):
        net.set_blockage(42)
    with pytest.raises(ConfigError):
        net.set_blockage(0)  # entry source
    with pytest.raises(ConfigError):
        net.set_blockage(10)  # exit sink
    # clearing follows the same rule
    with pytest.raises(UnknownNode):
        net.clear_blockage(42)
    with pytest.raises(ConfigError, match="node 0 is not blockable"):
        net.clear_blockage(0)
    # a node no serviced edge enters is not blockable either, as the config says
    chain = TopologyConfig(
        num_nodes=5,
        edge_list={0: {1: 1}, 1: {2: 2}, 2: {3: 0}},
        entry_edges={1},
        exit_edges={0},
        arrival_rate=0.5,
        service_rates={1: 1.0, 2: 1.0},
    )
    assert chain.blockable_nodes() == [1, 2]
    net = QueueNetwork(chain, seed=0)
    with pytest.raises(ConfigError):
        net.set_blockage(4)
    assert net.blocked_nodes == set()
    net.set_blockage(1)
    assert net.blocked_nodes == {1}


def test_clear_blockage_is_noop_when_not_blocked():
    net = QueueNetwork(figure_topology(), seed=0)
    net.clear_blockage(3)
    assert net.blocked_nodes == set()


def test_block_then_clear_before_simulating_is_identical():
    cfg = figure_topology()
    plain = QueueNetwork(cfg, seed=31)
    toggled = QueueNetwork(cfg, seed=31)
    toggled.set_blockage(3)
    toggled.clear_blockage(3)
    plain.simulate(5_000)
    toggled.simulate(5_000)
    assert snapshot(plain) == snapshot(toggled)


def test_clear_blockage_resumes_service():
    net = QueueNetwork(figure_topology(), seed=13)
    net.set_blockage(3)
    net.simulate(4_000)
    assert len(net.queues[3]) > 0
    assert serviced(net)[3][0] == 0
    net.clear_blockage(3)
    net.simulate(6_000)
    stats = serviced(net)
    assert stats[3][0] > 0
    assert stats[6][0] + stats[7][0] > 0


# -- generated topologies -----------------------------------------------------------


@pytest.mark.parametrize("n", [10, 50, 100])
def test_feed_forward_topology_valid_and_runs(n):
    cfg = feed_forward_topology(n)
    validate_config(cfg)
    assert cfg.num_nodes == n
    # edge count stays linear in the node count
    n_edges = sum(len(s) for s in cfg.edge_list.values())
    assert n_edges <= 3 * n
    net = QueueNetwork(cfg, seed=2)
    net.simulate(3_000)
    assert sum(net.exits_total.values()) > 0


def test_feed_forward_topology_configs_are_pinned():
    # every generated config for n = 3..120 and width = 1..6: the edge lists
    # in insertion order (which fixes the layout rows and so the simulation),
    # the entry and exit sets and the rates
    digest = hashlib.sha256()
    for n in range(3, 121):
        for width in range(1, 7):
            cfg = feed_forward_topology(n, width=width)
            digest.update(repr((
                n, width,
                [(src, list(succs.items())) for src, succs in cfg.edge_list.items()],
                sorted(cfg.entry_edges), sorted(cfg.exit_edges),
                cfg.arrival_rate, sorted(cfg.service_rates.items()),
            )).encode())
    assert digest.hexdigest() == (
        "9909dee9c2bbabcecc2f470f7fc5af7abad2f31e323057cc49c02db4d4a119df")


@pytest.mark.parametrize("width", [0, -1])
def test_feed_forward_topology_rejects_a_width_below_one(width):
    with pytest.raises(ConfigError, match="width must be >= 1"):
        feed_forward_topology(10, width=width)


def test_feed_forward_topology_needs_three_nodes():
    with pytest.raises(ConfigError, match="at least 3 nodes"):
        feed_forward_topology(2)


def test_aggregates_of_a_finished_and_an_inflight_job(monkeypatch):
    # arrivals at 2 and 3; the first job's service ends at 5, the second's
    # at 15, and the third arrival comes at 23
    script = [unit_draw(1.0), unit_draw(3.0), unit_draw(0.5), unit_draw(10.0),
              unit_draw(10.0), 0.5]
    cfg = mm1_topology(0.5, 1.0)
    with monkeypatch.context() as m:
        m.setattr(random, "Random", scripted_random(script))
        net, ref = QueueNetwork(cfg, seed=0), ReferenceNetwork(cfg, seed=0)
    for n in (net, ref):
        n.simulate(3)
    assert snapshot(net) == snapshot(ref)
    assert net.clock == pytest.approx(5.0)
    assert list(net.queues[1]) == [pytest.approx(3.0)]
    assert net.mean_delays() == [pytest.approx(((5.0 - 2.0) + (5.0 - 3.0)) / 2)]
    assert serviced_stats(net) == [(1, pytest.approx(3.0))]
