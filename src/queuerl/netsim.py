"""Discrete-event simulator for open queueing networks with typed edges.

Every directed edge carries a unique integer type id. Serviced edges hold a
FIFO queue with a single exponential server; exit edges absorb jobs from the
network instantly. External arrivals form Poisson streams into the entry
edges. Routing is one weight per serviced edge; set_routing normalises the
weights per node into the transition map, and a job leaving an edge samples
its successor from that map.

The simulator keeps no per-job log. A queue holds only the arrival times of
the jobs on its edge, and each serviced edge keeps running aggregates of its
traversals (counts and delay sums), so state and reward queries cost
O(edges) and memory stays bounded however long a run goes. Exit edges keep
only their exit counts. An edge is FIFO, so its k-th exit is its k-th
arrival, and the exit count alone says which traversals a skip window
covers.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

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


@dataclass
class _EdgeStats:
    """Running aggregates over every traversal of one serviced edge.

    counted_delay_sum adds the delays of the exits after the network's first
    skip, in exit order; on a FIFO edge those are the traversals at arrival
    index skip or above, in arrival order. It is its own running sum, not
    the total minus a prefix, which would round differently.
    """

    n_records: int = 0
    n_exited: int = 0
    exited_delay_sum: float = 0.0
    inflight_arrival_sum: float = 0.0
    counted_delay_sum: float = 0.0


class QueueNetwork:
    """Live simulator state: a network at clock 0 with uniform routing and
    the first external arrivals scheduled. The config is validated first.

    skip sets the window of edge_serviced_stats: per edge, the traversals at
    arrival index skip or above.
    """

    def __init__(
        self,
        config: TopologyConfig,
        seed: int,
        interarrival_noise: Optional[Callable[[float], float]] = None,
        skip: int = 0,
    ):
        validate_config(config)
        self.config = config
        self.rng = random.Random(seed)
        self.interarrival_noise = interarrival_noise
        self.skip = skip

        self.clock = 0.0
        self._heap: list[tuple[float, int, int, int, int]] = []
        self._seq = 0

        self._endpoints = config.edge_endpoints()
        self._serviced = config.serviced_edges()
        # each queued job is its arrival time
        self.queues: dict[int, deque[float]] = {e: deque() for e in self._serviced}
        self.arrivals_total: dict[int, int] = {e: 0 for e in sorted(config.entry_edges)}
        self.exits_total: dict[int, int] = {e: 0 for e in sorted(config.exit_edges)}
        self.blocked_nodes: set[int] = set()
        self._edge_epoch: dict[int, int] = {e: 0 for e in self._serviced}
        self._stats: dict[int, _EdgeStats] = {e: _EdgeStats() for e in self._serviced}

        # blockage lookups: the nodes that can be blocked, and the serviced
        # edges into each node, ascending
        self._blockable = set(config.blockable_nodes())
        self._incoming: dict[int, list[int]] = {}
        for e in self._serviced:
            self._incoming.setdefault(self._endpoints[e][1], []).append(e)

        # routing tables: per node, its successors ascending, their edges, and
        # each edge's position in a routing vector (None for an exit edge)
        position = {e: i for i, e in enumerate(self._serviced)}
        self._routes: list[tuple[int, list[int], list[int], list[Optional[int]]]] = []
        for node, succs in config.edge_list.items():
            ordered = sorted(succs)
            edges = [succs[succ] for succ in ordered]
            self._routes.append((node, ordered, edges, [position.get(e) for e in edges]))
        self.set_routing([0.0] * len(self._serviced))

        for etype in sorted(config.entry_edges):
            self._schedule_external_arrival(etype)

    # -- construction helpers -------------------------------------------------

    def _push(self, time: float, kind: int, edge: int, epoch: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, edge, epoch))

    def _schedule_external_arrival(self, edge: int) -> None:
        gap = self.rng.expovariate(self.config.arrival_rate)
        if self.interarrival_noise is not None:
            gap = self.interarrival_noise(gap)
        self._push(self.clock + gap, _ARRIVAL, edge, 0)

    # -- public surface --------------------------------------------------------

    @property
    def serviced_edge_types(self) -> list[int]:
        return list(self._serviced)

    def set_routing(self, weights: Sequence[float]) -> None:
        """Install routing from one weight per serviced edge, in
        serviced_edge_types order; exit edges weigh 0.

        At each node the weights of its outgoing edges are summed in
        ascending-successor order and each is divided by the sum; a sum below
        UNIFORM_FALLBACK_EPS routes uniformly, and a sum that is not finite
        raises ConfigError. transition_map becomes a fresh dict on every call,
        so a map read earlier is never changed.
        """
        weights = [float(w) for w in weights]
        if len(weights) != len(self._serviced):
            raise DimensionMismatch(
                f"routing has {len(weights)} weights, expected {len(self._serviced)}"
            )
        tmap: dict[int, dict[int, float]] = {}
        tables: dict[int, list[tuple[float, int]]] = {}
        for node, succs, edges, positions in self._routes:
            row = [0.0 if i is None else weights[i] for i in positions]
            total = sum(row)
            if not math.isfinite(total):
                raise ConfigError(f"routing weights at node {node} sum to {total}")
            if total < UNIFORM_FALLBACK_EPS:
                probs = [1.0 / len(row) for _ in row]
            else:
                probs = [w / total for w in row]
            tmap[node] = dict(zip(succs, probs))
            tables[node] = list(zip(accumulate(probs), edges))
        self.transition_map = tmap
        self._routing = tables

    def simulate(self, num_events: int) -> None:
        """Process num_events calendar events in time order."""
        if num_events < 1:
            raise ValueError("num_events must be >= 1")
        processed = 0
        while processed < num_events:
            if not self._heap:
                raise RuntimeError("event calendar empty; network has no arrival stream")
            time, _, kind, edge, epoch = heapq.heappop(self._heap)
            if kind == _SERVICE and epoch != self._edge_epoch[edge]:
                continue  # cancelled by a blockage
            self.clock = time
            if kind == _ARRIVAL:
                self._on_external_arrival(edge)
            else:
                self._on_service_done(edge)
            processed += 1

    def set_blockage(self, node: int) -> None:
        """Render a node's server non-functional: its incoming serviced edges
        never complete service until the blockage is cleared."""
        self._check_blockable(node)
        if node in self.blocked_nodes:
            return
        self.blocked_nodes.add(node)
        for edge in self._incoming.get(node, ()):
            self._edge_epoch[edge] += 1  # cancels pending completions

    def clear_blockage(self, node: int) -> None:
        """Undo set_blockage; restarts service at the head of affected queues."""
        self._check_blockable(node)
        if node not in self.blocked_nodes:
            return
        self.blocked_nodes.remove(node)
        for edge in self._incoming.get(node, ()):
            if self.queues[edge]:
                self._start_service(edge)

    def _check_blockable(self, node: int) -> None:
        if not 0 <= node < self.config.num_nodes:
            raise UnknownNode(f"node {node} not in network")
        if node not in self._blockable:
            raise ConfigError(f"node {node} is not blockable")

    def edge_mean_delay(self, edge_type: int) -> float:
        """Mean end-to-end delay over all traversals of an edge, with the
        current clock standing in for unfinished ones. 0.0 for untouched edges."""
        st = self._stats[edge_type]
        if st.n_records == 0:
            return 0.0
        inflight = st.n_records - st.n_exited
        total = st.exited_delay_sum + inflight * self.clock - st.inflight_arrival_sum
        return total / st.n_records

    def edge_serviced_stats(self, edge_type: int) -> tuple[int, float]:
        """(count, delay sum) over the exited traversals of an edge whose
        arrival index is at least the network's skip."""
        st = self._stats[edge_type]
        return max(0, st.n_exited - self.skip), st.counted_delay_sum

    def inject_record(self, edge_type: int, arrival_time: float, exit_time: float = 0.0) -> None:
        """Add one synthetic traversal of a serviced edge to its aggregates.

        exit_time 0.0 leaves the traversal unfinished. A finished traversal
        is the edge's next exit, and edge_serviced_stats counts it when at
        least skip exits came before it, as for a simulated one; an unfinished
        one never exits. For hand-built scenarios; does not touch queues or
        the event calendar.
        """
        if edge_type not in self._stats:
            raise UnknownEdge(f"edge type {edge_type} is not a serviced edge of the network")
        self._stats[edge_type].n_records += 1
        if exit_time > 0.0:
            self._record_exit(edge_type, arrival_time, exit_time)
        else:
            self._stats[edge_type].inflight_arrival_sum += arrival_time

    def _record_exit(self, edge: int, arrival_time: float, exit_time: float) -> None:
        st = self._stats[edge]
        delay = exit_time - arrival_time
        if st.n_exited >= self.skip:
            st.counted_delay_sum += delay
        st.n_exited += 1
        st.exited_delay_sum += delay

    # -- event handlers --------------------------------------------------------

    def _on_external_arrival(self, edge: int) -> None:
        self.arrivals_total[edge] += 1
        self._enqueue(edge)
        self._schedule_external_arrival(edge)

    def _enqueue(self, edge: int) -> None:
        st = self._stats[edge]
        st.n_records += 1
        st.inflight_arrival_sum += self.clock
        q = self.queues[edge]
        q.append(self.clock)
        if len(q) == 1 and self._endpoints[edge][1] not in self.blocked_nodes:
            self._start_service(edge)

    def _start_service(self, edge: int) -> None:
        duration = self.rng.expovariate(self.config.service_rates[edge])
        self._push(self.clock + duration, _SERVICE, edge, self._edge_epoch[edge])

    def _on_service_done(self, edge: int) -> None:
        q = self.queues[edge]
        arrival_time = q.popleft()
        self._record_exit(edge, arrival_time, self.clock)
        self._stats[edge].inflight_arrival_sum -= arrival_time
        if q and self._endpoints[edge][1] not in self.blocked_nodes:
            self._start_service(edge)
        self._route_onward(self._endpoints[edge][1])

    def _route_onward(self, node: int) -> None:
        # the first edge whose cumulative probability exceeds u, else the last
        u = self.rng.random()
        for cumulative, next_edge in self._routing[node]:
            if u < cumulative:
                break
        if next_edge in self.exits_total:
            self.exits_total[next_edge] += 1
        else:
            self._enqueue(next_edge)


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
