"""Routes checked against networkx on drawn graphs.

On the connected graphs ``test_properties.topologies`` draws, the routers'
first hops must lie on networkx shortest paths: on an idle network the
min-hop fallback, SPF's tables after one flood round and BF's converged
vectors give the smallest-id neighbour one hop closer, OSPF's first hops
lie on a shortest path over its static costs, and the daemon's first hop
lies on a shortest path over the graph priced by ``link_cost``."""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from antsim.baselines import BfRouting, DaemonRouting, OspfRouting, SpfRouting, _static_cost
from antsim.network import DATA, Packet
from antsim.topology import load_topology_dict

from test_baselines import build, randomize_means
from test_properties import topologies

oracle_settings = settings(derandomize=True, max_examples=15, deadline=None)


def priced_graph(topo, cost):
    """The topology as a networkx digraph, link ``l`` weighted ``cost(l)``."""
    graph = nx.DiGraph()
    graph.add_weighted_edges_from((l.src, l.dst, cost(l)) for l in topo.links)
    return graph


def assert_on_shortest_paths(topo, tables, cost, rel_tol):
    """Every first hop ``tables[u][d]`` starts a least-``cost`` path to ``d``,
    within ``rel_tol`` of the networkx distance."""
    dist = dict(nx.all_pairs_dijkstra_path_length(priced_graph(topo, cost)))
    for u in topo.nodes:
        for d, h in tables[u].items():
            via = cost(topo.link_map[(u, h)]) + dist[h][d]
            assert via <= dist[u][d] * (1 + rel_tol), (u, d, h, via, dist[u][d])


@oracle_settings
@given(spec=topologies())
def test_idle_routes_match_networkx_shortest_paths(spec):
    topo = load_topology_dict(spec)
    n = topo.n_nodes
    hops = dict(nx.all_pairs_shortest_path_length(priced_graph(topo, lambda l: 1)))
    # the smallest-id neighbour one hop closer: the min-hop tie-break
    expected = {
        u: {d: min(v for v in topo.neighbors(u) if hops[v][d] == hops[u][d] - 1)
            for d in topo.nodes if d != u}
        for u in topo.nodes
    }

    sim, net, _ = build(SpfRouting(broadcast_interval_s=1.0), topo=topo)
    spf = net.algorithm
    assert spf.fallback == expected
    sim.run_until(1.9)  # one flood round, at t = 1: idle links cost 1
    for u in topo.nodes:
        if spf.tables[u] is None:
            spf._recompute(u)
    assert spf.tables == expected

    sim, net, _ = build(BfRouting(broadcast_interval_s=1.0), topo=topo)
    bf = net.algorithm
    assert bf.fallback == expected
    sim.run_until(n + 2.5)  # n + 2 rounds: a vector travels one hop per round
    for u in topo.nodes:
        for d, h in expected[u].items():
            assert bf.cost_tables[u].best(d) == (float(hops[u][d]), h), (u, d)

    sim, net, _ = build(OspfRouting(), topo=topo)
    assert_on_shortest_paths(topo, net.algorithm.tables, _static_cost, 1e-12)
    assert all(len(net.algorithm.tables[u]) == n - 1 for u in topo.nodes)


@oracle_settings
@given(spec=topologies(), seed=st.integers(0, 2**16))
def test_daemon_first_hop_lies_on_a_networkx_shortest_path(spec, seed):
    topo = load_topology_dict(spec)
    sim, net, _ = build(DaemonRouting(), topo=topo)
    algo = net.algorithm
    rng = random.Random(seed)
    for _ in range(40):
        sim.now += rng.uniform(0.0, 10 * algo.queue_mean_tau_s)
        randomize_means(net, rng, idle=False)
        bits = rng.choice((4096.0, rng.uniform(64.0, 1e5)))
        tables = {
            u: {d: algo.select_next_hop(u, Packet(DATA, bits, u, d, 0.0))
                for d in topo.nodes if d != u}
            for u in topo.nodes
        }
        assert_on_shortest_paths(topo, tables, lambda l: algo.link_cost(l, bits), 1e-12)
