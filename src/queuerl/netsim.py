"""Discrete-event simulator for open queueing networks with typed edges.

Every directed edge carries a unique integer type id. Serviced edges hold a
FIFO queue with a single exponential server; exit edges absorb jobs from the
network instantly. External arrivals form Poisson streams into the entry
edges. Routing is one weight per serviced edge; set_routing normalises the
weights per node, and a job leaving an edge samples its successor from them.

set_routing installs each node's cumulative routing probabilities, the rows
that simulate scans, from RoutingLayout.cumulative_rows; transition_map
reads RoutingLayout.transition_map, and the reports one row of it from
RoutingLayout.row_probabilities. All take each node's divisor from
_row_totals, the one place the routing rule is written, in plain Python:
set_routing takes about 3.9 us on the figure topology's 10 rows and
65 us on the 199 rows of feed_forward_topology(200), in a rollout step of
about 1.7 ms (2-CPU x86-64 Xeon, Python 3.11).

QueueNetwork.simulate is one loop over the event calendar, two parallel
lists: keys holds each entry's event time negated, in ascending order, so
the next event is the last entry and pop() takes it in O(1); codes holds
each entry's code at the same index. A code is the edge's position (see
RoutingLayout) for a service completion and -1 - position for an external
arrival. An entry goes in at bisect_left of its key, in front of every
entry with an equal key, so among equal times the entry pushed first pops
first: the order of a heap on (time, push count), ties included. Times are
computed as clock + duration and negated when stored; negation is exact
both ways, so clock = -key keeps every bit of the time, the sign of a zero
included.

The calendar holds only live events: one arrival per entry edge and one
completion per serviced edge whose queue is non-empty and whose target
node is unblocked, so list.insert and del move little memory. set_blockage
finds each blocked edge's completion by its code, which no other entry
shares, deletes it from both lists and counts it in cancelled; the other
entries keep their order.

An external arrival joins its edge's queue and schedules the next arrival.
A completion records the job's exit from its edge, starts the next job
there, draws the job's successor and enqueues it (or counts its exit from
the network). All random numbers come from one random.Random, drawn in this
order, which the golden tests pin:

- arrival: the service time, when the job finds its edge idle and
  unblocked; then the gap to the next arrival;
- completion: the service time of the next job on the edge, when one waits
  and the edge is unblocked; then the routing uniform; then the service time
  downstream, when the job finds that edge idle and unblocked.

simulate writes each exponential draw out as clock - log(1.0 - random()) /
rate, the body of Random.expovariate, so it takes the same random() and
gives the same float.

The simulator keeps no per-job log. A queue holds only the arrival times of
the jobs on its edge, and each serviced edge keeps running aggregates of its
traversals (exit count and delay sums; its traversal count is its exits plus
its queue's length), so memory stays bounded however long a run goes; exit
edges keep only their exit counts. simulate is the only writer of these
aggregates; mean_delays and counted_means read every serviced edge's
aggregates in one call. An edge is FIFO, so its k-th exit is its k-th
arrival, and the skip rule is one test after an exit is counted: its delay
joins the counted sum if n_exited > skip.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, UnknownNode

# A node whose outgoing weights sum below this routes uniformly.
UNIFORM_FALLBACK_EPS = 1e-6

# The longest exponential draw at rate 1: random() is at most 1 - 2**-53.
_LONGEST_UNIT_DRAW = -math.log(2.0 ** -53)


def _drawable(rate: float) -> bool:
    """Whether rate is finite and > 0 and every exponential draw at it is
    finite."""
    return math.isfinite(rate) and rate > 0 and math.isfinite(_LONGEST_UNIT_DRAW / rate)


def _checked_gap(gap: float) -> float:
    """An interarrival gap from the interarrival_noise hook, if it is finite
    and >= 0; ConfigError otherwise."""
    if not 0.0 <= gap < math.inf:
        raise ConfigError(f"interarrival_noise returned gap {gap}; it must be finite and >= 0")
    return gap


@dataclass
class TopologyConfig:
    """Declarative description of an open queueing network.

    edge_list maps source node -> {target node -> edge type id}. Edge types
    listed in exit_edges are absorbing (no queue, no service); every other
    edge type must have a service rate.
    """

    num_nodes: int
    edge_list: dict[int, dict[int, int]]
    entry_edges: set[int]
    exit_edges: set[int]
    arrival_rate: float
    service_rates: dict[int, float]

    def edge_endpoints(self) -> dict[int, tuple[int, int]]:
        """Map edge type -> (source, target)."""
        out: dict[int, tuple[int, int]] = {}
        for src, succs in self.edge_list.items():
            for dst, etype in succs.items():
                out[etype] = (src, dst)
        return out

    def serviced_edges(self) -> list[int]:
        """All non-exit edge types, ascending."""
        return sorted(e for e in self.edge_endpoints() if e not in self.exit_edges)

    def entry_sources(self) -> set[int]:
        eps = self.edge_endpoints()
        return {eps[e][0] for e in self.entry_edges if e in eps}

    def blockable_nodes(self) -> list[int]:
        """Nodes whose server can be rendered non-functional.

        A node is blockable when at least one serviced edge targets it and it
        is neither an entry source nor an exit sink.
        """
        eps = self.edge_endpoints()
        targets = {eps[e][1] for e in self.serviced_edges()}
        exit_sinks = {eps[e][1] for e in self.exit_edges if e in eps}
        return sorted(targets - self.entry_sources() - exit_sinks)

    def _check_in_network(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise UnknownNode(f"node {node} not in network")

    def check_blockable(self, node: int) -> None:
        """The blockage rule: UnknownNode for a node outside the network,
        ConfigError for one that blockable_nodes leaves out."""
        self._check_in_network(node)
        if node not in self.blockable_nodes():
            raise ConfigError(f"node {node} is not blockable")

    def check_routed(self, node: int) -> None:
        """The routing rule, for a node whose routing is reported:
        UnknownNode for a node outside the network, ConfigError for one with
        no outgoing edge."""
        self._check_in_network(node)
        if not self.edge_list.get(node):
            raise ConfigError(f"node {node} has no outgoing edges to route over")


def validate_config(config: TopologyConfig) -> None:
    """Raise ConfigError on any violated topology invariant.

    One of them: an exit edge must be reachable from the target of every
    serviced edge, or jobs routed there could never leave. Entry edges are
    serviced, so every entry source then reaches an exit edge too."""
    if config.num_nodes <= 0:
        raise ConfigError("num_nodes must be positive")
    if not _drawable(config.arrival_rate):
        raise ConfigError("arrival_rate must be finite, > 0 and give finite exponential "
                          f"draws, got {config.arrival_rate}")

    seen: dict[int, tuple[int, int]] = {}
    sources: dict[int, list[int]] = {}  # node -> the sources of its incoming edges
    for src, succs in config.edge_list.items():
        if not 0 <= src < config.num_nodes:
            raise ConfigError(f"node {src} outside [0, {config.num_nodes})")
        for dst, etype in succs.items():
            if not 0 <= dst < config.num_nodes:
                raise ConfigError(f"node {dst} outside [0, {config.num_nodes})")
            if etype in seen:
                raise ConfigError(
                    f"edge type {etype} appears on both {seen[etype]} and {(src, dst)}"
                )
            seen[etype] = (src, dst)
            sources.setdefault(dst, []).append(src)

    if not config.entry_edges or not config.exit_edges:
        raise ConfigError("network needs at least one entry edge and one exit edge")
    for etype in config.entry_edges | config.exit_edges:
        if etype not in seen:
            raise ConfigError(f"edge type {etype} not present in edge_list")
    if config.entry_edges & config.exit_edges:
        raise ConfigError("an edge cannot be both entry and exit")

    # the nodes that reach an exit edge: a backward search from the exit sources
    leaving: set[int] = set()
    frontier = [seen[e][0] for e in config.exit_edges]
    while frontier:
        node = frontier.pop()
        if node not in leaving:
            leaving.add(node)
            frontier.extend(sources.get(node, ()))

    for etype, (src, dst) in seen.items():
        if etype in config.exit_edges:
            continue
        rate = config.service_rates.get(etype)
        if rate is None:
            raise ConfigError(f"edge type {etype} has no service rate and is not an exit edge")
        if not _drawable(rate):
            raise ConfigError(f"service rate for edge type {etype} must be finite, > 0 and "
                              f"give finite exponential draws, got {rate}")
        # jobs completing here are routed onward from dst
        if not config.edge_list.get(dst):
            raise ConfigError(f"node {dst} (target of edge type {etype}) has no outgoing edges")
        out_types = set(config.edge_list[dst].values())
        if out_types & config.exit_edges and out_types - config.exit_edges:
            raise ConfigError(
                f"node {dst} mixes exit and serviced outgoing edges; routing weights "
                "only cover serviced edges"
            )
        if dst not in leaving:
            raise ConfigError(f"no directed path from node {dst} (target of edge type {etype}) "
                              "to any exit edge; jobs routed there never leave")


def _row_totals(w: list[float], nodes: list[int],
                next_edges: list[list[int]]) -> list[Optional[float]]:
    """The routing rule's divisor for each node, in order, from w, one
    weight per edge position: the node's weights at its positions summed in
    ascending-successor order from -0.0 (-0.0 + x is x for every x, so the
    sum starts from the first term). The first sum in order that is not
    finite raises ConfigError; a sum below UNIFORM_FALLBACK_EPS gives None,
    and the node routes uniformly."""
    totals = []
    for node, positions in zip(nodes, next_edges):
        total = -0.0
        for i in positions:
            total += w[i]
        if not math.isfinite(total):
            raise ConfigError(f"routing weights at node {node} sum to {total}")
        totals.append(None if total < UNIFORM_FALLBACK_EPS else total)
    return totals


class RoutingLayout:
    """The edge positions of a topology and where each node's routing
    weights sit. QueueNetwork.__init__ builds one for its config, so a new
    one comes with every network, and so with every RlEnv.reset.

    An edge's position is its index in edge_types: the serviced edges
    ascending, then the exit edges ascending. A weight vector and every
    per-edge table of QueueNetwork are indexed by position, so the serviced
    edges are positions 0 to n_serviced - 1; an exit edge weighs 0.0.

    Rows are the nodes in edge_list order, each with its successors
    ascending. next_edges[row] holds the positions of the row's edges to
    those successors, and target_row[i] the row of serviced edge i's target
    node (validate_config gives every such node an outgoing edge).
    row_probabilities, transition_map and cumulative_rows take each row's
    divisor from _row_totals, the one place the routing rule is written.
    """

    def __init__(self, config: TopologyConfig):
        serviced = config.serviced_edges()
        self.n_serviced = len(serviced)
        self.edge_types = serviced + sorted(config.exit_edges)
        position = {e: i for i, e in enumerate(self.edge_types)}
        self.nodes = list(config.edge_list)
        self.successors = [sorted(config.edge_list[node]) for node in self.nodes]
        self.next_edges = [
            [position[config.edge_list[node][succ]] for succ in succs]
            for node, succs in zip(self.nodes, self.successors)
        ]
        rows = {node: r for r, node in enumerate(self.nodes)}
        endpoints = config.edge_endpoints()
        self.target_row = [rows[endpoints[e][1]] for e in serviced]
        # appended to a weight vector, so that w[position] is an edge's weight
        self._exit_weights = [0.0] * (len(self.edge_types) - self.n_serviced)
        # cumulative_rows' tables: each row's positions but its last, and its
        # uniform cumulative row
        self._heads = [positions[:-1] for positions in self.next_edges]
        self._uniform_rows = [list(accumulate([1.0 / len(p)] * (len(p) - 1))) + [math.inf]
                              if p else [] for p in self.next_edges]

    def row_probabilities(self, weights: np.ndarray, row: int) -> list[float]:
        """One row's routing probabilities, one per successor, from weights
        (serviced edges,); 1.0 / the out-degree each where the row routes
        uniformly."""
        return self._probability_row(weights.tolist() + self._exit_weights, row)

    def _probability_row(self, w: list[float], row: int) -> list[float]:
        positions = self.next_edges[row]
        (total,) = _row_totals(w, [self.nodes[row]], [positions])
        if total is None:
            return [1.0 / len(positions) for _ in positions]
        return [w[i] / total for i in positions]

    def cumulative_rows(self, weights: np.ndarray) -> list[list[float]]:
        """Each row's cumulative routing probabilities, in row order, from
        weights (serviced edges,), with math.inf in place of the last entry:
        the partial sums of each row's probabilities, left to right, with the
        division under math.inf skipped. Uniform rows are tables shared
        between calls and must not be written."""
        w = weights.tolist() + self._exit_weights
        rows = []
        for total, head, uniform in zip(_row_totals(w, self.nodes, self.next_edges),
                                        self._heads, self._uniform_rows):
            if total is None:
                rows.append(uniform)
                continue
            row = []
            partial = -0.0
            for i in head:
                partial += w[i] / total
                row.append(partial)
            row.append(math.inf)
            rows.append(row)
        return rows

    def transition_map(self, weights: np.ndarray) -> dict[int, dict[int, float]]:
        """node -> {successor: probability} from weights (serviced edges,),
        each row's row_probabilities, built in row order."""
        w = weights.tolist() + self._exit_weights
        return {node: dict(zip(succs, self._probability_row(w, row)))
                for row, (node, succs) in enumerate(zip(self.nodes, self.successors))}


class QueueNetwork:
    """Live simulator state: a network at clock 0 with uniform routing and
    the first external arrivals scheduled. The config is validated first.

    simulate alone writes the traversal aggregates; mean_delays and
    counted_means read all serviced edges in one call, and an exit counts
    when n_exited > skip (skip >= 0) after it.
    events counts the calendar events simulate processed, cancelled the
    completions a blockage cancelled, counted when set_blockage takes them
    off the calendar. The calendar is the sorted key and code lists that
    the module docstring describes. interarrival_noise, when given, maps
    each drawn interarrival gap to the one used; a result that is not
    finite or is below 0 raises ConfigError, and the network should then be
    discarded.
    """

    def __init__(
        self,
        config: TopologyConfig,
        seed: int,
        interarrival_noise: Optional[Callable[[float], float]] = None,
        skip: int = 0,
    ):
        validate_config(config)
        if skip < 0:
            raise ConfigError(f"reward_skip must be >= 0, got {skip}")
        self.config = config
        self.rng = random.Random(seed)
        self.interarrival_noise = interarrival_noise
        self.skip = skip

        self.clock = 0.0
        self.events = 0
        self.cancelled = 0
        # the event calendar: negated event times ascending, so the next event
        # is the last entry, and each entry's code at the same index
        self._keys: list[float] = []
        self._codes: list[int] = []

        # Per-edge tables are lists indexed by an edge's position in the
        # routing layout; calendar entries carry that position in their code.
        self.routing_layout = layout = RoutingLayout(config)
        n = layout.n_serviced
        self._serviced = serviced = layout.edge_types[:n]
        # each queued job is its arrival time
        self._queues: list[deque[float]] = [deque() for _ in serviced]
        self.queues: dict[int, deque[float]] = dict(zip(serviced, self._queues))
        self.arrivals_total: dict[int, int] = {e: 0 for e in sorted(config.entry_edges)}
        self.exits_total: dict[int, int] = {e: 0 for e in sorted(config.exit_edges)}
        self._rates = [config.service_rates[e] for e in serviced]
        self._halted = [False] * n  # the edge's target node is blocked
        # Traversal aggregates; an edge's traversal count is its exits plus
        # the jobs in its queue. _counted_sum adds the delays of an edge's
        # exits after its first skip, in exit order (on a FIFO edge, the
        # traversals at arrival index skip or above); it is its own running
        # sum, not the total minus a prefix, which would round differently.
        self._n_exited = [0] * n
        self._exited_sum = [0.0] * n
        self._inflight_sum = [0.0] * n
        self._counted_sum = [0.0] * n

        # blockage lookups: the nodes that can be blocked, and the serviced
        # edges into each node, ascending
        self.blocked_nodes: set[int] = set()
        self._blockable = set(config.blockable_nodes())
        self._incoming: dict[int, list[int]] = {}
        for i, row in enumerate(layout.target_row):
            self._incoming.setdefault(layout.nodes[row], []).append(i)

        self.set_routing(np.zeros(n))

        for etype in sorted(config.entry_edges):
            gap = self.rng.expovariate(config.arrival_rate)
            if interarrival_noise is not None:
                gap = _checked_gap(interarrival_noise(gap))
            self._schedule(self.clock + gap, -1 - layout.edge_types.index(etype))

    # -- public surface --------------------------------------------------------

    @property
    def serviced_edge_types(self) -> list[int]:
        return list(self._serviced)

    def set_routing(self, weights: Sequence[float]) -> None:
        """Install routing from one weight per serviced edge, in
        serviced_edge_types order; exit edges weigh 0.

        RoutingLayout.cumulative_rows builds each node's cumulative routing
        probabilities; a sum that is not finite raises ConfigError and leaves
        the installed routing in place. The weights are copied, so a caller
        may reuse its array.
        """
        weights = np.array(weights, dtype=float)
        if weights.shape != (len(self._serviced),):
            raise DimensionMismatch(
                f"routing has weights of shape {weights.shape}, expected ({len(self._serviced)},)"
            )
        # a job leaving for a node takes the first successor whose cumulative
        # probability exceeds its uniform draw, else the last one; an infinite
        # last entry makes that fallback part of the scan
        self._cumulative = self.routing_layout.cumulative_rows(weights)
        self._weights = weights

    @property
    def transition_map(self) -> dict[int, dict[int, float]]:
        """node -> {successor: probability} under the installed routing, as
        a fresh dict on each read; RoutingLayout.transition_map computes it
        from the installed copy of the weights."""
        return self.routing_layout.transition_map(self._weights)

    def simulate(self, num_events: int) -> None:
        """Process num_events calendar events in time order, as the module
        docstring describes. Simulated times must stay within float range:
        a call that ends with 2 * clock * events not finite raises
        ConfigError, and the network should then be discarded."""
        if num_events < 1:
            raise ValueError("num_events must be >= 1")
        keys, codes = self._keys, self._codes
        pop_key, pop_code, insert_key, insert_code = keys.pop, codes.pop, keys.insert, codes.insert
        uniform, log = self.rng.random, math.log
        noise, arrival_rate = self.interarrival_noise, self.config.arrival_rate
        queues, rates, halted = self._queues, self._rates, self._halted
        n_exited, exited_sum, inflight_sum, counted_sum = (
            self._n_exited, self._exited_sum, self._inflight_sum, self._counted_sum)
        skip = self.skip
        layout = self.routing_layout
        target_row, cumulative, next_edges = (
            layout.target_row, self._cumulative, layout.next_edges)
        edge_types, n_serviced = layout.edge_types, len(queues)
        arrivals_total, exits_total = self.arrivals_total, self.exits_total
        clock = self.clock
        processed = 0
        try:
            while processed < num_events:
                try:
                    key = pop_key()
                except IndexError:
                    raise RuntimeError(
                        "event calendar empty; network has no arrival stream") from None
                code = pop_code()
                processed += 1
                clock = -key
                if code >= 0:
                    i = code
                    q = queues[i]
                    arrival = q.popleft()
                    delay = clock - arrival
                    n_exited[i] += 1
                    exited_sum[i] += delay
                    if n_exited[i] > skip:
                        counted_sum[i] += delay
                    inflight_sum[i] -= arrival
                    if q and not halted[i]:
                        key = -(clock - log(1.0 - uniform()) / rates[i])
                        k = bisect_left(keys, key)
                        insert_key(k, key)
                        insert_code(k, i)
                    u = uniform()
                    row = target_row[i]
                    cum = cumulative[row]
                    k = 0
                    while not u < cum[k]:
                        k += 1
                    j = next_edges[row][k]
                    if j >= n_serviced:
                        exits_total[edge_types[j]] += 1
                        continue
                else:
                    j = -1 - code
                    arrivals_total[edge_types[j]] += 1
                # the job joins edge j
                inflight_sum[j] += clock
                q = queues[j]
                q.append(clock)
                if len(q) == 1 and not halted[j]:
                    key = -(clock - log(1.0 - uniform()) / rates[j])
                    k = bisect_left(keys, key)
                    insert_key(k, key)
                    insert_code(k, j)
                if code < 0:
                    gap = -log(1.0 - uniform()) / arrival_rate
                    if noise is not None:
                        gap = _checked_gap(noise(gap))
                    key = -(clock + gap)
                    k = bisect_left(keys, key)
                    insert_key(k, key)
                    insert_code(k, code)
        finally:
            self.clock = clock
            self.events += processed
        # an edge has had at most events arrivals, each delay is at most the
        # clock, so every sum mean_delays and counted_means form is at most
        # about clock * events: the headroom keeps state and reward finite
        if not math.isfinite(2.0 * clock * self.events):
            raise ConfigError(
                f"simulated time overflowed float range after {self.events} events (clock "
                f"{clock}): interarrival gaps and service times must add up to a time whose "
                "delay sums stay finite")

    def _schedule(self, time: float, code: int) -> None:
        """Put an event on the calendar behind every entry at or before its
        time."""
        key = -time
        k = bisect_left(self._keys, key)
        self._keys.insert(k, key)
        self._codes.insert(k, code)

    def set_blockage(self, node: int) -> None:
        """Render a node's server non-functional: its incoming serviced edges
        never complete service until the blockage is cleared. Each such edge
        with a non-empty queue loses its one pending completion from the
        calendar, counted in cancelled; the job stays at its queue's head."""
        if node not in self._blockable:
            self.config.check_blockable(node)  # raises: _blockable holds every blockable node
        if node in self.blocked_nodes:
            return
        self.blocked_nodes.add(node)
        keys, codes = self._keys, self._codes
        for i in self._incoming.get(node, ()):
            self._halted[i] = True
            if self._queues[i]:  # the edge's one live completion: cancel it
                k = codes.index(i)
                del keys[k], codes[k]
                self.cancelled += 1

    def clear_blockage(self, node: int) -> None:
        """Undo set_blockage; restarts service at the head of affected queues."""
        if node not in self._blockable:
            self.config.check_blockable(node)  # raises: _blockable holds every blockable node
        if node not in self.blocked_nodes:
            return
        self.blocked_nodes.remove(node)
        for i in self._incoming.get(node, ()):
            self._halted[i] = False
            if self._queues[i]:
                duration = self.rng.expovariate(self._rates[i])
                self._schedule(self.clock + duration, i)

    def mean_delays(self) -> list[float]:
        """Per serviced edge, in serviced_edge_types order, the mean
        end-to-end delay over all its traversals, with the current clock
        standing in for unfinished ones, the jobs in its queue; 0.0 for an
        untouched edge."""
        clock = self.clock
        return [
            (exited + waiting * clock - inflight) / (done + waiting) if done or waiting else 0.0
            for waiting, done, exited, inflight in zip(
                map(len, self._queues), self._n_exited, self._exited_sum, self._inflight_sum)
        ]

    def counted_means(self) -> list[float]:
        """The mean delay over the counted exits, those after an edge's
        first skip, of each serviced edge that has one, in
        serviced_edge_types order; an edge with no counted exit is left
        out."""
        skip = self.skip
        return [total / (done - skip)
                for done, total in zip(self._n_exited, self._counted_sum) if done > skip]


def figure_topology(arrival_rate: float = 0.3, service_rate: float = 2.0) -> TopologyConfig:
    """The 11-node reference network: one entry, a 3-way split at node 1,
    re-merge at node 9, one exit edge."""
    edge_list = {
        0: {1: 1},
        1: {2: 2, 3: 3, 4: 4},
        2: {5: 5},
        3: {6: 6, 7: 7},
        4: {8: 8},
        5: {9: 9},
        6: {9: 10},
        7: {9: 11},
        8: {9: 12},
        9: {10: 0},
    }
    service_rates = {e: service_rate for e in range(1, 13)}
    return TopologyConfig(
        num_nodes=11,
        edge_list=edge_list,
        entry_edges={1},
        exit_edges={0},
        arrival_rate=arrival_rate,
        service_rates=service_rates,
    )


def feed_forward_topology(
    num_nodes: int,
    arrival_rate: float = 0.3,
    service_rate: float = 2.0,
    width: int = 3,
) -> TopologyConfig:
    """Generate a layered feed-forward network with `num_nodes` nodes.

    Node 0 is the entry source, the last node the exit sink; interior nodes
    sit in layers of at most `width`, only the last one partial. Each node of
    a layer feeds up to two nodes of the next, which covers all of them, and
    the last layer feeds the sink through exit edges. Edge count grows
    linearly with node count. Node 0 feeds only the first node of layer 0,
    so no job reaches the other layer-0 nodes, a node that only they feed,
    or the serviced edges out of them.
    """
    if num_nodes < 3:
        raise ConfigError("feed-forward topology needs at least 3 nodes")
    if width < 1:
        raise ConfigError("width must be >= 1")
    interior = list(range(1, num_nodes - 1))
    layers = [interior[i : i + width] for i in range(0, len(interior), width)]
    sink = num_nodes - 1

    edge_list: dict[int, dict[int, int]] = {}
    next_type = 1
    exit_types: set[int] = set()

    def add_edge(src: int, dst: int, etype: int) -> None:
        edge_list.setdefault(src, {})[dst] = etype

    add_edge(0, layers[0][0], next_type)
    entry_type = next_type
    next_type += 1
    # node 0 reaches only the first node of layer 0; that node fans out
    for layer, targets in zip(layers, layers[1:]):
        for j, node in enumerate(layer):
            picked = {targets[j % len(targets)], targets[(j + 1) % len(targets)]}
            for dst in sorted(picked):
                add_edge(node, dst, next_type)
                next_type += 1
    # last layer feeds the sink through exit edges
    for node in layers[-1]:
        add_edge(node, sink, next_type)
        exit_types.add(next_type)
        next_type += 1

    service_rates = {
        etype: service_rate
        for succs in edge_list.values()
        for etype in succs.values()
        if etype not in exit_types
    }
    return TopologyConfig(
        num_nodes=num_nodes,
        edge_list=edge_list,
        entry_edges={entry_type},
        exit_edges=exit_types,
        arrival_rate=arrival_rate,
        service_rates=service_rates,
    )
