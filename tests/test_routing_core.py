import math
import random
from collections import Counter, deque

import pytest

from antsim.routing import INFINITY, CostTable, LinkCostEstimator, dijkstra
from antsim.topology import builtin_topology, from_edge_list


def flood_reach(topo, origin):
    """Oracle for constrained flooding with duplicate suppression.

    Each node forwards a first-seen advertisement on all links except the
    arrival link; duplicates are suppressed on receipt. Returns the set of
    nodes that received the advertisement and the number of link
    transmissions performed.
    """
    received = {origin}
    transmissions = 0
    queue = deque()
    for link in topo.out_links[origin]:
        queue.append((origin, link.dst))
        transmissions += 1
    while queue:
        sender, node = queue.popleft()
        if node in received:
            continue
        received.add(node)
        for link in topo.out_links[node]:
            if link.dst == sender:
                continue
            queue.append((node, link.dst))
            transmissions += 1
    return received, transmissions


def unit_adjacency(topo):
    return {u: [(l.dst, 1.0) for l in topo.out_links[u]] for u in topo.nodes}


def test_dijkstra_simplenet_unit_costs():
    topo = builtin_topology("simplenet")
    dist, hop = dijkstra(unit_adjacency(topo), 1)
    assert dist[6] == 3.0
    assert hop[6] == 3  # 3-hop tie between first hops 3 and 8 resolves to 3
    assert dist[1] == 0.0 and 1 not in hop


def test_dijkstra_leaves_unreachable_nodes_out():
    adjacency = {1: [(2, 1.0)], 2: [(1, 1.0)], 3: [(4, 1.0)], 4: [(3, 1.0)]}
    dist, hop = dijkstra(adjacency, 1)
    assert dist == {1: 0.0, 2: 1.0}
    assert hop == {2: 2}


@pytest.mark.parametrize("cost", [-1.0, -1e-300, math.nan])
def test_dijkstra_rejects_negative_and_nan_costs(cost):
    with pytest.raises(ValueError, match="negative or NaN cost on link 1->2"):
        dijkstra({1: [(2, cost)], 2: [(1, 1.0)]}, 1)


def test_dijkstra_admits_zero_cost_links():
    # 1-2 and 1-3 cost 0, so 4 and 5 are reached at equal cost through
    # first hops 2 and 3; the tie goes to the smaller first hop
    adjacency = {
        1: [(3, 0.0), (2, 0.0), (4, 1.0)],
        2: [(1, 0.0), (4, 0.5), (5, 0.0)],
        3: [(1, 0.0), (4, 0.5), (5, 0.0)],
        4: [(5, 0.0)],
        5: [],
    }
    dist, hop = dijkstra(adjacency, 1)
    assert dist == {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.5, 5: 0.0}
    assert hop == {2: 2, 3: 3, 4: 2, 5: 2}


def test_dijkstra_weighted_first_hop():
    # 1->3 direct costs 10; the detour via 2 costs 3
    adjacency = {1: [(2, 1.0), (3, 10.0)], 2: [(1, 1.0), (3, 2.0)], 3: []}
    dist, hop = dijkstra(adjacency, 1)
    assert dist[3] == 3.0
    assert hop[3] == 2


def random_connected_graph(rng, n):
    edges = [(i, i + 1) for i in range(1, n)]  # spine keeps it connected
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if (a, b) not in edges and rng.random() < 0.3:
                edges.append((a, b))
    costs = {}
    adjacency = {u: [] for u in range(1, n + 1)}
    for a, b in edges:
        c = rng.uniform(0.1, 5.0)
        costs[(a, b)] = costs[(b, a)] = c
        adjacency[a].append((b, c))
        adjacency[b].append((a, c))
    return adjacency, costs


def converge_distance_vectors(adjacency, n):
    """Synchronous Bellman-Ford sweeps until a fixed point."""
    tables = {}
    for u in range(1, n + 1):
        nbrs = [v for v, _ in adjacency[u]]
        table = CostTable(u, n, nbrs)
        for v, c in adjacency[u]:
            table.set_link_cost(v, c)
        tables[u] = table
    for _ in range(2 * n):
        vectors = {u: tables[u].distance_vector() for u in tables}
        for u, table in tables.items():
            for v in table.neighbors:
                table.merge(v, vectors[v])
    return tables


def test_bellman_ford_matches_dijkstra_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(4, 12)
        adjacency, _ = random_connected_graph(rng, n)
        tables = converge_distance_vectors(adjacency, n)
        for src in range(1, n + 1):
            dist, _ = dijkstra(adjacency, src)
            for dst in range(1, n + 1):
                d_bf, _ = tables[src].best(dst)
                assert math.isclose(d_bf, dist[dst], rel_tol=1e-9, abs_tol=1e-12)


def test_cost_table_merge_overwrites():
    t = CostTable(1, 3, [2, 3])
    t.merge(2, {3: 5.0})
    assert t.best(3) == (6.0, 2)  # fills the cache before the overwrite
    t.merge(2, {3: 1.0})
    assert t.best(3) == (2.0, 2)


def uncached_best(table, dst):
    """Oracle: ``CostTable.best`` as a scan on every call, with no cache."""
    if dst == table.node:
        return 0.0, None
    best_d, best_j = INFINITY, None
    for j in table.neighbors:
        dj = table.vectors.get(j, {}).get(dst, INFINITY)
        if dj is INFINITY:
            continue
        d = table.link_cost[j] + dj
        if d < best_d:
            best_d, best_j = d, j
    return best_d, best_j


def test_cost_table_cache_matches_uncached_scan():
    rng = random.Random("cost-table-cache")
    n, neighbors = 9, [2, 4, 5, 7]
    table = CostTable(1, n, neighbors)

    def value():
        return rng.choice([float(rng.randint(1, 30)), rng.uniform(0.5, 30.0), INFINITY])

    steps = Counter()
    for step in range(400):
        j = rng.choice(neighbors)
        stored = table.vectors.get(j, {})
        if step % 10 == 0:
            # two neighbors reach one destination at exactly the same total
            kind = "tie"
            dst = rng.randint(2, n)
            total = float(rng.randint(21, 40))  # above every link cost
            for k in rng.sample(neighbors, 2):
                table.merge(k, {**table.vectors.get(k, {}), dst: total - table.link_cost[k]})
        elif rng.random() < 0.3:
            kind = "link cost"
            same = rng.random() < 0.4
            table.set_link_cost(j, table.link_cost[j] if same else float(rng.randint(1, 20)))
        else:
            kind = rng.choice(("unchanged", "partly changed", "partial", "fresh"))
            if kind == "unchanged":
                vector = dict(stored)
            elif kind == "partly changed":
                vector = dict(stored)
                for dst in rng.sample(range(1, n + 1), 3):
                    vector[dst] = value()
            elif kind == "partial":
                # drops keys the stored vector may hold
                vector = {d: value() for d in rng.sample(range(1, n + 1), rng.randint(0, n - 2))}
            else:
                vector = {d: value() for d in range(1, n + 1)}
            vector[j] = 0.0
            table.merge(j, vector)
        steps[kind] += 1
        for dst in range(1, n + 1):
            want = uncached_best(table, dst)
            got = table.best(dst)
            assert got[1] == want[1], (step, kind, dst)
            assert float.hex(got[0]) == float.hex(want[0]), (step, kind, dst)
            totals = [
                table.link_cost[k] + table.vectors[k][dst]
                for k in table.vectors
                if table.vectors[k].get(dst, INFINITY) is not INFINITY
            ]
            steps["winner tied"] += dst != 1 and totals.count(want[0]) > 1
    assert len(steps) == 7 and min(steps.values()) >= 20, steps


def test_cost_table_self_distance_zero():
    t = CostTable(1, 3, [2, 3])
    assert t.best(1) == (0.0, None)


def test_cost_table_unreachable():
    t = CostTable(1, 3, [2])
    d, nxt = t.best(3)
    assert d == INFINITY and nxt is None


def test_flood_reaches_all_nodes():
    for name in ("simplenet", "nsfnet"):
        topo = builtin_topology(name)
        for origin in topo.nodes:
            reached, tx = flood_reach(topo, origin)
            assert reached == set(topo.nodes)
            assert tx <= len(topo.links)  # at most one forward per directed link


def test_flood_transmission_count_on_nsfnet():
    # origin sends deg(origin); every other node forwards deg-1:
    # sum(deg) - (N-1) = 42 - 13 = 29, independent of origin
    topo = builtin_topology("nsfnet")
    for origin in (1, 7, 14):
        _, tx = flood_reach(topo, origin)
        assert tx == 29


def test_flood_on_line_graph():
    topo = from_edge_list(3, [(1, 2), (2, 3)], 1e6, 0.001)
    reached, tx = flood_reach(topo, 1)
    assert reached == {1, 2, 3}
    assert tx == 2


def test_estimator_utilization_oracle():
    est = LinkCostEstimator()
    # one window: mean delay 0.008, mean tx 0.002 -> utilization 0.75
    est.record(0.008, 0.002)
    cost = est.close_window()
    # raw = 0.5*0.75 + 0.5*0.75 = 0.75 -> target 16, movement clamped to 2
    assert cost == 2


def test_estimator_movement_clamped_to_one_step():
    est = LinkCostEstimator()
    costs = []
    for _ in range(30):
        est.record(1.0, 0.001)  # utilization ~1 -> target 20
        costs.append(est.close_window())
    assert costs[:5] == [2, 3, 4, 5, 6]
    assert costs[-1] == 20
    for a, b in zip(costs, costs[1:]):
        assert abs(b - a) <= 1
    assert all(1 <= c <= 20 for c in costs)


def test_estimator_idle_window_keeps_cost():
    est = LinkCostEstimator()
    for _ in range(10):
        est.record(1.0, 0.001)
        est.close_window()
    before = est.cost
    for _ in range(50):
        assert est.close_window() == before  # no samples -> frozen


def test_estimator_idle_link_floors_at_one():
    est = LinkCostEstimator()
    est.record(0.002, 0.002)  # d == t -> utilization 0
    assert est.close_window() == 1


def test_estimator_decay_toward_low_utilization():
    est = LinkCostEstimator()
    for _ in range(30):
        est.record(1.0, 0.001)
        est.close_window()
    assert est.cost == 20
    for _ in range(40):
        est.record(0.002, 0.002)
        est.close_window()
    assert est.cost == 1
