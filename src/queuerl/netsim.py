"""Discrete-event simulator for open queueing networks with typed edges.

Every directed edge carries a unique integer type id. Serviced edges hold a
FIFO queue with a single exponential server; exit edges absorb jobs from the
network instantly. External arrivals form Poisson streams into the entry
edges. Routing is one weight per serviced edge; set_routing normalises the
weights per node, and a job leaving an edge samples its successor from them.

QueueNetwork.simulate is one loop over the event calendar. It pops an event
and drops a service completion that a blockage cancelled. An external
arrival joins its edge's queue and schedules the next arrival. A completion
records the job's exit from its edge, starts the next job there, draws the
job's successor and enqueues it (or counts its exit from the network). All
random numbers come from one random.Random, drawn in this order, which the
golden tests pin:

- arrival: the service time, when the job finds its edge idle and
  unblocked; then the gap to the next arrival;
- completion: the service time of the next job on the edge, when one waits
  and the edge is unblocked; then the routing uniform; then the service time
  downstream, when the job finds that edge idle and unblocked.

The simulator keeps no per-job log. A queue holds only the arrival times of
the jobs on its edge, and each serviced edge keeps running aggregates of its
traversals (counts and delay sums), so memory stays bounded however long a
run goes; exit edges keep only their exit counts. mean_delays and
serviced_stats read every serviced edge's aggregates in one call. An edge is
FIFO, so its k-th exit is its k-th arrival, and the skip rule is one test
after an exit is counted: its delay joins the counted sum if n_exited > skip.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, UnknownEdge, UnknownNode

# Event kinds on the calendar. Service events carry a per-edge epoch so a
# blockage can cancel them lazily.
_ARRIVAL = 0
_SERVICE = 1

# A node whose outgoing weights sum below this routes uniformly.
UNIFORM_FALLBACK_EPS = 1e-6


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

    def exit_sinks(self) -> set[int]:
        eps = self.edge_endpoints()
        return {eps[e][1] for e in self.exit_edges if e in eps}

    def blockable_nodes(self) -> list[int]:
        """Nodes whose server can be rendered non-functional.

        A node is blockable when at least one serviced edge targets it and it
        is neither an entry source nor an exit sink.
        """
        eps = self.edge_endpoints()
        targets = {eps[e][1] for e in self.serviced_edges()}
        return sorted(targets - self.entry_sources() - self.exit_sinks())

    def check_blockable(self, node: int) -> None:
        """The blockage rule: UnknownNode for a node outside the network,
        ConfigError for one that blockable_nodes leaves out."""
        if not 0 <= node < self.num_nodes:
            raise UnknownNode(f"node {node} not in network")
        if node not in self.blockable_nodes():
            raise ConfigError(f"node {node} is not blockable")


def validate_config(config: TopologyConfig) -> None:
    """Raise ConfigError on any violated topology invariant."""
    if config.num_nodes <= 0:
        raise ConfigError("num_nodes must be positive")
    if not (math.isfinite(config.arrival_rate) and config.arrival_rate > 0):
        raise ConfigError(f"arrival_rate must be finite and > 0, got {config.arrival_rate}")

    seen: dict[int, tuple[int, int]] = {}
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

    if not config.entry_edges or not config.exit_edges:
        raise ConfigError("network needs at least one entry edge and one exit edge")
    for etype in config.entry_edges | config.exit_edges:
        if etype not in seen:
            raise ConfigError(f"edge type {etype} not present in edge_list")
    if config.entry_edges & config.exit_edges:
        raise ConfigError("an edge cannot be both entry and exit")

    for etype, (src, dst) in seen.items():
        if etype in config.exit_edges:
            continue
        rate = config.service_rates.get(etype)
        if rate is None:
            raise ConfigError(f"edge type {etype} has no service rate and is not an exit edge")
        if not (math.isfinite(rate) and rate > 0):
            raise ConfigError(
                f"service rate for edge type {etype} must be finite and > 0, got {rate}"
            )
        # jobs completing here are routed onward from dst
        if not config.edge_list.get(dst):
            raise ConfigError(f"node {dst} (target of edge type {etype}) has no outgoing edges")
        out_types = set(config.edge_list[dst].values())
        if out_types & config.exit_edges and out_types - config.exit_edges:
            raise ConfigError(
                f"node {dst} mixes exit and serviced outgoing edges; routing weights "
                "only cover serviced edges"
            )

    # At least one entry source must reach an exit edge.
    eps = seen
    adjacency: dict[int, list[int]] = {src: list(succs) for src, succs in config.edge_list.items()}
    reachable: set[int] = set()
    frontier = list(config.entry_sources())
    while frontier:
        node = frontier.pop()
        if node in reachable:
            continue
        reachable.add(node)
        frontier.extend(adjacency.get(node, []))
    if not any(eps[e][0] in reachable for e in config.exit_edges):
        raise ConfigError("no directed path from an entry source to any exit edge")


class RoutingLayout:
    """Where each node's routing weights sit, built once per topology.

    Nodes come in edge_list order, each with its successors ascending and
    the edges to them. slots is a (nodes x largest out-degree) matrix of
    positions in a weight vector; weighted marks the entries that hold a
    serviced edge's position, and the others (exit edges, and the padding of
    nodes with fewer successors) weigh 0.0.
    """

    def __init__(self, config: TopologyConfig):
        position = {e: i for i, e in enumerate(config.serviced_edges())}
        self.nodes = list(config.edge_list)
        self.successors = [sorted(config.edge_list[node]) for node in self.nodes]
        self.edges = [
            [config.edge_list[node][succ] for succ in succs]
            for node, succs in zip(self.nodes, self.successors)
        ]
        self.degree = np.array([len(succs) for succs in self.successors])
        width = max(1, int(self.degree.max()))
        self.slots = np.zeros((len(self.nodes), width), dtype=int)
        self.weighted = np.zeros((len(self.nodes), width), dtype=bool)
        for row, edges in enumerate(self.edges):
            for k, e in enumerate(edges):
                if e in position:
                    self.slots[row, k] = position[e]
                    self.weighted[row, k] = True
        real = np.arange(width) < self.degree[:, None]
        self._uniform = np.where(real, 1.0 / np.maximum(self.degree, 1)[:, None], 0.0)

    def probabilities(self, weights: np.ndarray) -> np.ndarray:
        """Routing probabilities (..., nodes, width) from weights (...,
        serviced edges), 0.0 in the padding.

        At each node the weights are summed in ascending-successor order and
        each is divided by the sum, the same float operations in the same
        order as a scalar loop; a sum below UNIFORM_FALLBACK_EPS routes
        uniformly, and a sum that is not finite raises ConfigError.
        """
        w = np.where(self.weighted, weights[..., self.slots], 0.0)
        total = w[..., 0]
        for k in range(1, w.shape[-1]):
            total = total + w[..., k]
        finite = np.isfinite(total)
        if not finite.all():
            first = tuple(np.argwhere(~finite)[0])
            raise ConfigError(
                f"routing weights at node {self.nodes[first[-1]]} sum to {float(total[first])}"
            )
        uniform = total < UNIFORM_FALLBACK_EPS
        probs = w / np.where(uniform, 1.0, total)[..., None]
        return np.where(uniform[..., None], self._uniform, probs)

    def transition_map(self, probs: np.ndarray) -> dict[int, dict[int, float]]:
        """node -> {successor: probability} from one (nodes, width) slice of
        probabilities."""
        return {
            node: dict(zip(succs, row))
            for node, succs, row in zip(self.nodes, self.successors, probs.tolist())
        }


class QueueNetwork:
    """Live simulator state: a network at clock 0 with uniform routing and
    the first external arrivals scheduled. The config is validated first.

    mean_delays and serviced_stats read all serviced edges in one call;
    serviced_stats counts an exit when n_exited > skip (skip >= 0) after it.
    events counts the calendar events simulate processed, cancelled the
    completions a blockage cancelled.
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
        self._heap: list[tuple[float, int, int, int, int]] = []
        self._seq = 0

        # Per-edge tables are lists indexed by an edge's position: serviced
        # edges ascending, then exit edges ascending. Calendar events carry
        # that position.
        serviced = config.serviced_edges()
        n = len(serviced)
        self._serviced = serviced
        self._edge_types = serviced + sorted(config.exit_edges)
        position = {e: i for i, e in enumerate(self._edge_types)}
        self._index = {e: i for i, e in enumerate(serviced)}  # for inject_record
        # each queued job is its arrival time
        self._queues: list[deque[float]] = [deque() for _ in serviced]
        self.queues: dict[int, deque[float]] = dict(zip(serviced, self._queues))
        self.arrivals_total: dict[int, int] = {e: 0 for e in sorted(config.entry_edges)}
        self.exits_total: dict[int, int] = {e: 0 for e in sorted(config.exit_edges)}
        self._rates = [config.service_rates[e] for e in serviced]
        self._epoch = [0] * n
        self._halted = [False] * n  # the edge's target node is blocked
        # Traversal aggregates. _counted_sum adds the delays of an edge's exits
        # after its first skip, in exit order (on a FIFO edge, the traversals
        # at arrival index skip or above); it is its own running sum, not the
        # total minus a prefix, which would round differently.
        self._n_records = [0] * n
        self._n_exited = [0] * n
        self._exited_sum = [0.0] * n
        self._inflight_sum = [0.0] * n
        self._counted_sum = [0.0] * n

        # blockage lookups: the nodes that can be blocked, and the serviced
        # edges into each node, ascending
        endpoints = config.edge_endpoints()
        self.blocked_nodes: set[int] = set()
        self._blockable = set(config.blockable_nodes())
        self._incoming: dict[int, list[int]] = {}
        for i, e in enumerate(serviced):
            self._incoming.setdefault(endpoints[e][1], []).append(i)

        # routing: per layout row the positions of its successor edges, and
        # per serviced edge the row of its target node
        self.routing_layout = RoutingLayout(config)
        layout = self.routing_layout
        rows = {node: r for r, node in enumerate(layout.nodes)}
        self._next_edges = [[position[e] for e in edges] for edges in layout.edges]
        self._target_row = [rows[endpoints[e][1]] for e in serviced]
        routed = np.flatnonzero(layout.degree)
        self._last = (routed, layout.degree[routed] - 1)
        self.set_routing(np.zeros(n))

        for etype in sorted(config.entry_edges):
            gap = self.rng.expovariate(config.arrival_rate)
            if interarrival_noise is not None:
                gap = interarrival_noise(gap)
            self._seq += 1
            heapq.heappush(self._heap, (gap, self._seq, _ARRIVAL, position[etype], 0))

    # -- public surface --------------------------------------------------------

    @property
    def serviced_edge_types(self) -> list[int]:
        return list(self._serviced)

    def set_routing(self, weights: Sequence[float]) -> None:
        """Install routing from one weight per serviced edge, in
        serviced_edge_types order; exit edges weigh 0.

        RoutingLayout.probabilities normalises the weights per node; a sum
        that is not finite raises ConfigError and leaves the installed
        routing in place.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(self._serviced),):
            raise DimensionMismatch(
                f"routing has weights of shape {weights.shape}, expected ({len(self._serviced)},)"
            )
        probs = self.routing_layout.probabilities(weights)
        # a job leaving for a node takes the first successor whose cumulative
        # probability exceeds its uniform draw, else the last one; an infinite
        # last entry makes that fallback part of the scan
        cumulative = np.cumsum(probs, axis=1)
        cumulative[self._last] = math.inf
        self._cumulative = cumulative.tolist()
        self._probs = probs
        self._map: Optional[dict[int, dict[int, float]]] = None

    @property
    def transition_map(self) -> dict[int, dict[int, float]]:
        """node -> {successor: probability} under the installed routing.

        Built on the first read after each set_routing, as a fresh dict that
        is never changed afterwards.
        """
        if self._map is None:
            self._map = self.routing_layout.transition_map(self._probs)
        return self._map

    def simulate(self, num_events: int) -> None:
        """Process num_events calendar events in time order, as the module
        docstring describes."""
        if num_events < 1:
            raise ValueError("num_events must be >= 1")
        heap, pop, push = self._heap, heapq.heappop, heapq.heappush
        expovariate, uniform = self.rng.expovariate, self.rng.random
        noise, arrival_rate = self.interarrival_noise, self.config.arrival_rate
        queues, rates, epochs, halted = self._queues, self._rates, self._epoch, self._halted
        n_records, n_exited = self._n_records, self._n_exited
        exited_sum, inflight_sum, counted_sum = (
            self._exited_sum, self._inflight_sum, self._counted_sum)
        skip = self.skip
        target_row, cumulative, next_edges = (
            self._target_row, self._cumulative, self._next_edges)
        edge_types, n_serviced = self._edge_types, len(queues)
        arrivals_total, exits_total = self.arrivals_total, self.exits_total
        clock, seq, cancelled = self.clock, self._seq, self.cancelled
        processed = 0
        try:
            while processed < num_events:
                if not heap:
                    raise RuntimeError("event calendar empty; network has no arrival stream")
                time, _, kind, i, epoch = pop(heap)
                if kind == _SERVICE:
                    if epoch != epochs[i]:
                        cancelled += 1  # a blockage cancelled this completion
                        continue
                    processed += 1
                    clock = time
                    q = queues[i]
                    arrival = q.popleft()
                    delay = clock - arrival
                    n_exited[i] += 1
                    exited_sum[i] += delay
                    if n_exited[i] > skip:
                        counted_sum[i] += delay
                    inflight_sum[i] -= arrival
                    if q and not halted[i]:
                        seq += 1
                        push(heap, (clock + expovariate(rates[i]), seq, _SERVICE, i, epochs[i]))
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
                    processed += 1
                    clock = time
                    arrivals_total[edge_types[i]] += 1
                    j = i
                # the job joins edge j
                n_records[j] += 1
                inflight_sum[j] += clock
                q = queues[j]
                q.append(clock)
                if len(q) == 1 and not halted[j]:
                    seq += 1
                    push(heap, (clock + expovariate(rates[j]), seq, _SERVICE, j, epochs[j]))
                if kind == _ARRIVAL:
                    gap = expovariate(arrival_rate)
                    if noise is not None:
                        gap = noise(gap)
                    seq += 1
                    push(heap, (clock + gap, seq, _ARRIVAL, i, 0))
        finally:
            self.clock, self._seq, self.cancelled = clock, seq, cancelled
            self.events += processed

    def set_blockage(self, node: int) -> None:
        """Render a node's server non-functional: its incoming serviced edges
        never complete service until the blockage is cleared."""
        if node not in self._blockable:
            self.config.check_blockable(node)  # raises: _blockable holds every blockable node
        if node in self.blocked_nodes:
            return
        self.blocked_nodes.add(node)
        for i in self._incoming.get(node, ()):
            self._halted[i] = True
            self._epoch[i] += 1  # cancels pending completions

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
                self._seq += 1
                duration = self.rng.expovariate(self._rates[i])
                heapq.heappush(
                    self._heap, (self.clock + duration, self._seq, _SERVICE, i, self._epoch[i]))

    def mean_delays(self) -> list[float]:
        """Per serviced edge, in serviced_edge_types order, the mean
        end-to-end delay over all its traversals, with the current clock
        standing in for unfinished ones; 0.0 for an untouched edge."""
        clock = self.clock
        return [
            (exited + (n - done) * clock - inflight) / n if n else 0.0
            for n, done, exited, inflight in zip(
                self._n_records, self._n_exited, self._exited_sum, self._inflight_sum)
        ]

    def serviced_stats(self) -> list[tuple[int, float]]:
        """Per serviced edge, in serviced_edge_types order, (count, delay
        sum) over its exited traversals at arrival index skip or above."""
        skip = self.skip
        return [(max(0, done - skip), counted)
                for done, counted in zip(self._n_exited, self._counted_sum)]

    def inject_record(self, edge_type: int, arrival_time: float, exit_time: float = 0.0) -> None:
        """Add one synthetic traversal of a serviced edge to its aggregates.

        exit_time 0.0 leaves the traversal unfinished. A finished traversal
        is the edge's next exit, and the skip rule counts it as it would a
        simulated one; an unfinished one never exits. For hand-built
        scenarios; does not touch queues or the event calendar.
        """
        i = self._index.get(edge_type)
        if i is None:
            raise UnknownEdge(f"edge type {edge_type} is not a serviced edge of the network")
        self._n_records[i] += 1
        if exit_time > 0.0:
            delay = exit_time - arrival_time
            self._n_exited[i] += 1
            self._exited_sum[i] += delay
            if self._n_exited[i] > self.skip:
                self._counted_sum[i] += delay
        else:
            self._inflight_sum[i] += arrival_time


def mm1_topology(arrival_rate: float, service_rate: float) -> TopologyConfig:
    """Single-server chain: entry edge 1 into node 1, exit edge 0."""
    return TopologyConfig(
        num_nodes=3,
        edge_list={0: {1: 1}, 1: {2: 0}},
        entry_edges={1},
        exit_edges={0},
        arrival_rate=arrival_rate,
        service_rates={1: service_rate},
    )


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
    sit in layers of at most `width`, each wired to up to two nodes of the
    next layer. Edge count grows linearly with node count.
    """
    if num_nodes < 3:
        raise ConfigError("feed-forward topology needs at least 3 nodes")
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
    for k, layer in enumerate(layers):
        targets = layers[k + 1] if k + 1 < len(layers) else None
        for j, node in enumerate(layer):
            if targets is None:
                continue
            picked = {targets[j % len(targets)], targets[(j + 1) % len(targets)]}
            for dst in sorted(picked):
                add_edge(node, dst, next_type)
                next_type += 1
    # ensure every interior node (beyond the entry target) has an inbound edge
    covered = {layers[0][0]}
    for succs in edge_list.values():
        covered.update(succs)
    for k, layer in enumerate(layers[1:], start=1):
        for node in layer:
            if node not in covered:
                add_edge(layers[k - 1][0], node, next_type)
                covered.add(node)
                next_type += 1
    # last layer feeds the sink through exit edges
    for node in layers[-1]:
        add_edge(node, sink, next_type)
        exit_types.add(next_type)
        next_type += 1
    # first-layer nodes without outgoing edges also go straight to the sink
    for node in interior:
        if not edge_list.get(node):
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
