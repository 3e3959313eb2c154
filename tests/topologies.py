"""Topologies that only tests use."""

from queuerl.netsim import TopologyConfig


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
