"""Topologies that only tests use."""

from queuerl.netsim import TopologyConfig, figure_topology


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


def hetero_figure_topology() -> TopologyConfig:
    """The figure topology at arrival rate 1.5 with unequal servers: mu = 4
    on edges 1, 2, 5 and 9, mu = 2 on edges 3, 6, 7, 10 and 11, and
    mu = 0.6 on edges 4, 8 and 12, the branch through node 4."""
    config = figure_topology(arrival_rate=1.5)
    for edges, rate in (((1, 2, 5, 9), 4.0), ((3, 6, 7, 10, 11), 2.0), ((4, 8, 12), 0.6)):
        config.service_rates.update(dict.fromkeys(edges, rate))
    return config
