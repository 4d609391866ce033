import random

import pytest

from antsim.baselines import (
    BfRouting,
    DaemonRouting,
    OspfRouting,
    PQRouting,
    QRouting,
    SpfRouting,
)
from antsim.engine import Simulator
from antsim.metrics import MetricsCollector
from antsim.network import DATA, Network, Packet
from antsim.routing import dijkstra
from antsim.topology import builtin_topology, from_edge_list

from test_routing_core import flood_reach


def build(algo, topo_name="simplenet", seed=0, topo=None):
    sim = Simulator(master_seed=seed)
    metrics = MetricsCollector()
    net = Network(sim, topo or builtin_topology(topo_name), metrics)
    net.set_algorithm(algo)
    return sim, net, metrics


def trace_path(algo, src, dst, limit=12):
    p = Packet(DATA, 4096, src, dst, algo.net.sim.now)
    node, hops = src, []
    while node != dst and len(hops) < limit:
        p.prev_node, node = node, algo.select_next_hop(node, p)
        hops.append(node)
    return hops


# -- static link-state -------------------------------------------------------


def test_ospf_static_cost_oracle():
    # bandwidth 1.5e6, delay 0.004 -> 0.004 + 4096/1.5e6 = 0.00673067 s
    topo = from_edge_list(2, [(1, 2)], 1.5e6, 0.004)
    sim, net, _ = build(OspfRouting(), topo=topo)
    cost = net.algorithm._link_costs(1)[2]
    assert abs(cost - 0.0067306666666667) < 1e-12


def test_ospf_routes_fixed_three_hop_path():
    sim, net, _ = build(OspfRouting())
    assert trace_path(net.algorithm, 1, 6) == [3, 5, 6]  # tie 3 vs 8 -> 3


def test_ospf_tables_never_change_under_traffic():
    sim, net, _ = build(OspfRouting())
    before = {u: dict(net.algorithm.tables[u]) for u in net.topo.nodes}
    for _ in range(200):
        net.inject_data(1, 6, 4096)
    sim.run_until(200.0)  # several broadcast rounds pass as well
    assert {u: dict(net.algorithm.tables[u]) for u in net.topo.nodes} == before


def test_ospf_periodic_floods_count_overhead_only():
    sim, net, metrics = build(OspfRouting(broadcast_interval_s=30.0))
    sim.run_until(100.0)  # 3 rounds, no data traffic
    assert metrics.routing_bits > 0
    # every node's advertisement reaches every other node once per round:
    # 8 origins x 11 transmissions (sum(deg) - 7 = 18 - 7) x 3 rounds
    assert metrics.generated_count["routing_info"] == 264


def test_spf_flood_transmissions_per_round():
    sim, net, metrics = build(SpfRouting(broadcast_interval_s=1.0))
    sim.run_until(1.5)  # exactly one broadcast round on an idle net
    delivered = metrics.delivered_count["routing_info"]
    # sum of degrees is 18; each of 8 origins floods with deg(o) + sum over
    # others of (deg-1) = 18 - 7 = 11 transmissions
    assert delivered == 8 * 11


@pytest.mark.parametrize("topo_name", ["simplenet", "nsfnet", "nttnet"])
def test_spf_broadcast_round_matches_flood_oracle(topo_name):
    sim, net, metrics = build(SpfRouting(broadcast_interval_s=10.0), topo_name)
    sim.run_until(19.0)  # one broadcast round, at t = 10, on an idle net
    topo = net.topo
    expected = sum(flood_reach(topo, origin)[1] for origin in topo.nodes)
    assert metrics.generated_count["routing_info"] == expected
    every_origin = {origin: 1 for origin in topo.nodes}
    assert all(net.algorithm.lsdb_seen[u] == every_origin for u in topo.nodes)


def test_spf_advertisement_size():
    sim, net, metrics = build(SpfRouting(broadcast_interval_s=1.0))
    seen = []
    original = metrics.on_generated
    metrics.on_generated = lambda t, kind, bits: (seen.append(bits), original(t, kind, bits))
    sim.run_until(1.1)
    # node degrees on this topology are 2 or 3: (64 + 8*deg) * 8 bits
    assert set(seen) <= {(64 + 8 * 2) * 8, (64 + 8 * 3) * 8}
    assert len(seen) == 88  # 8 originations plus 80 flood forwards


def test_spf_idle_network_converges_to_min_cost_routes():
    sim, net, _ = build(SpfRouting(broadcast_interval_s=1.0))
    sim.run_until(10.0)
    assert trace_path(net.algorithm, 1, 6) == [3, 5, 6]
    assert trace_path(net.algorithm, 6, 1) in ([5, 3, 1], [7, 8, 1])


def test_spf_stale_advertisements_ignored():
    sim, net, _ = build(SpfRouting(broadcast_interval_s=1.0))
    sim.run_until(5.0)
    algo = net.algorithm
    seq_before = dict(algo.lsdb_seen[2])
    stale = Packet(
        "routing_info", 512, 1, 2, sim.now, payload=("lsa", 1, 0, {2: 99.0})
    )
    algo.on_routing_packet(2, stale, 1)
    assert algo.lsdb_seen[2] == seq_before
    assert algo.lsdb[2][1].get(2) != 99.0


def test_bf_vector_size_and_convergence():
    sim, net, metrics = build(BfRouting(broadcast_interval_s=0.8))
    sizes = []
    original = metrics.on_generated
    metrics.on_generated = lambda t, kind, bits: (sizes.append(bits), original(t, kind, bits))
    sim.run_until(20.0)
    assert set(sizes) == {(24 + 12 * 8) * 8}
    assert trace_path(net.algorithm, 1, 6) == [3, 5, 6]


def test_bf_distances_match_hops_on_idle_net():
    sim, net, _ = build(BfRouting(broadcast_interval_s=0.5))
    sim.run_until(30.0)
    topo = net.topo
    for src in topo.nodes:
        hops = topo.hop_distances(src)
        for dst in topo.nodes:
            if dst == src:
                continue
            d, nxt = net.algorithm.cost_tables[src].best(dst)
            assert nxt in topo.neighbors(src)
            # idle link costs stay at the floor of 1 per hop
            assert d == hops[dst]


# -- feedback learners -------------------------------------------------------


def test_qr_seed_tables_are_hop_scaled():
    sim, net, _ = build(QRouting())
    q = net.algorithm.q
    t_hop = 4096 / 10e6 + 0.001
    # from node 1 toward neighbor 2 for destination 2: one hop
    assert abs(q[1][2][2] - t_hop) < 1e-12
    # via neighbor 2 toward destination 6: 2 + 1 hops at uniform link speed
    assert abs(q[1][6][2] - 4 * t_hop) < 1e-12


def test_qr_update_oracle():
    sim, net, _ = build(QRouting())
    algo = net.algorithm
    algo.q[1][6][2] = 3.0
    algo.q[2][6] = {4: 2.0}
    # feedback: q_new = min Q at node 2 (=2.0) + hop residence 0.5
    algo._apply_feedback(1, 6, 2, 2.0 + 0.5)
    assert abs(algo.q[1][6][2] - 2.75) < 1e-12  # 3.0 + 0.5*(2.5-3.0)


def test_qr_feedback_packet_emitted_per_data_hop():
    sim, net, metrics = build(QRouting())
    net.inject_data(1, 6, 4096)
    sim.run_until(5.0)
    hops = metrics.delivered_count["routing_info"]
    assert hops >= 2  # one 12-byte feedback per traversed link
    assert metrics.routing_bits == hops * 12 * 8


def test_qr_selection_is_argmin():
    sim, net, _ = build(QRouting())
    algo = net.algorithm
    algo.q[1][6] = {2: 5.0, 3: 1.0, 8: 2.0}
    p = Packet(DATA, 4096, 1, 6, 0.0)
    assert algo.select_next_hop(1, p) == 3


def test_qr_selection_matches_min_on_ties():
    sim, net, _ = build(QRouting(), "nsfnet")
    algo = net.algorithm
    rng = random.Random("qr-argmin")
    levels = [0.0015, 0.002, 0.0035, 0.01]  # few values, so rows often tie
    ties = 0
    for _ in range(300):
        node, dst = rng.sample(net.topo.nodes, 2)
        entry = algo.q[node][dst]
        for n in entry:
            entry[n] = rng.choice(levels)
        values = list(entry.values())
        ties += values.count(min(values)) > 1
        want = min(entry.items(), key=lambda kv: (kv[1], kv[0]))[0]
        assert algo.select_next_hop(node, Packet(DATA, 4096, node, dst, 0.0)) == want
    assert ties >= 50, ties


def test_pqr_with_zero_recovery_matches_qr_argmin():
    sim, net, _ = build(PQRouting())
    algo = net.algorithm
    algo.q[1][6] = {2: 5.0, 3: 1.0, 8: 2.0}
    for n in (2, 3, 8):
        algo.stats[1][6][n][0] = algo.q[1][6][n]  # best
        algo.stats[1][6][n][1] = 0.0  # recovery rate
    p = Packet(DATA, 4096, 1, 6, 0.0)
    assert algo.select_next_hop(1, p) == 3


def test_pqr_recovery_lets_stale_entry_be_probed():
    sim, net, _ = build(PQRouting())
    algo = net.algorithm
    sim.run_until(1.0)
    algo.q[1][6] = {2: 5.0, 3: 2.0, 8: 1.9}
    for n in (2, 3, 8):
        algo.stats[1][6][n] = [0.5, 0.0, sim.now]  # best, recovery rate, last update
    # neighbor 3 has a negative recovery rate: its prediction falls over time
    algo.stats[1][6][3][1] = -0.01
    sim.schedule(21.0, lambda: None)
    sim.run_until(21.0)
    p = Packet(DATA, 4096, 1, 6, sim.now)
    # predicted for 3: max(0.5, 2.0 - 0.01*20) = 1.8 < 1.9
    assert algo.select_next_hop(1, p) == 3


class PQRReference(QRouting):
    """Oracle: pqr as first written, with its per-entry best value, recovery
    rate and last-update time in three dicts keyed by ``(node, dst, via)``,
    its own copy of the Q step, and the feedback formula that read the link
    through ``topo.link`` and the time-to-go through ``min(values())``."""

    recovery_learning = PQRouting.recovery_learning
    recovery_decay = PQRouting.recovery_decay

    def attach(self, net) -> None:
        super().attach(net)
        self.best, self.recovery, self.last_update = {}, {}, {}
        for u, per_dst in self.q.items():
            for d, entry in per_dst.items():
                for n, q0 in entry.items():
                    self.best[(u, d, n)] = q0
                    self.recovery[(u, d, n)] = 0.0
                    self.last_update[(u, d, n)] = 0.0

    def on_data_arrival(self, node, packet, from_node):
        link = self.net.topo.link(from_node, node)
        hop_time = self.net.sim.now - packet.node_arrival - link.prop_delay_s
        to_go = 0.0 if node == packet.dst else min(self.q[node][packet.dst].values())
        payload = ("qfb", packet.dst, to_go + hop_time)
        self.net.send_routing(node, from_node, 12 * 8, payload)

    def predicted(self, node, dst, via, now):
        key = (node, dst, via)
        idle = now - self.last_update[key]
        return max(self.best[key], self.q[node][dst][via] + self.recovery[key] * idle)

    def select_next_hop(self, node, packet):
        now = self.net.sim.now
        entry = self.q[node][packet.dst]
        return min(entry, key=lambda n: (self.predicted(node, packet.dst, n, now), n))

    def _apply_feedback(self, node, dst, via, q_new):
        key = (node, dst, via)
        now = self.net.sim.now
        entry = self.q[node][dst]
        old = entry[via]
        entry[via] = old + self.learning_rate * (q_new - old)
        delta = entry[via] - old
        self.best[key] = min(self.best[key], entry[via])
        dt = max(now - self.last_update[key], 1e-9)
        if delta < 0:
            self.recovery[key] += self.recovery_learning * (delta / dt)
        else:
            self.recovery[key] *= self.recovery_decay
        self.recovery[key] = min(self.recovery[key], 0.0)
        self.last_update[key] = now


def pqr_state(algo):
    """Every Q entry of a pqr learner as ``float.hex`` of (q, best, rate, last)."""
    state = {}
    for u, per_dst in algo.q.items():
        for d, entry in per_dst.items():
            for n, value in entry.items():
                if isinstance(algo, PQRReference):
                    key = (u, d, n)
                    record = (algo.best[key], algo.recovery[key], algo.last_update[key])
                else:
                    record = algo.stats[u][d][n]
                state[(u, d, n)] = tuple(x.hex() for x in (value, *record))
    return state


def feedback_sent(args):
    """A captured ``send_routing`` call with its time-to-go as ``float.hex``."""
    node, next_hop, size, (tag, dst, q_new) = args
    return node, next_hop, size, tag, dst, q_new.hex()


def test_pqr_matches_reference():
    algos = new, ref = PQRouting(), PQRReference()
    sims = [build(algo, "nsfnet")[0] for algo in algos]
    topo = new.net.topo
    rng = random.Random("pqr-reference")
    feedback_rng = random.Random("pqr-feedback")  # leaves rng's steps as they were
    sent = []
    for algo in algos:
        algo.net.send_routing = lambda *args: sent.append(args)
    now = 0.0
    steps = {"improve": 0, "worsen": 0, "equal": 0, "tie": 0, "feedback_at_dst": 0}
    for step in range(400):
        if rng.random() < 0.7:  # otherwise feedback arrives at the same instant
            now += rng.expovariate(5.0)
        for sim in sims:
            sim.run_until(now)
        node, dst = rng.sample(topo.nodes, 2)
        via = rng.choice(topo.neighbors(node))
        if step % 10 == 0:
            # all-equal Q values: fresh entries (rate 0) predict exactly alike
            level = max(new.q[node][dst].values())
            for algo in algos:
                for n in algo.q[node][dst]:
                    algo.q[node][dst][n] = level
        if step % 7 == 3:
            # a positive rate exercises the clamp on whichever branch runs
            rate = rng.uniform(0.0, 1.0)
            new.stats[node][dst][via][1] = ref.recovery[(node, dst, via)] = rate
        kind = rng.choice(("improve", "worsen", "equal"))
        factor = {"improve": rng.uniform(0.1, 1.0), "worsen": rng.uniform(1.0, 3.0), "equal": 1.0}
        q_new = new.q[node][dst][via] * factor[kind]
        steps[kind] += 1
        for algo in algos:
            algo._apply_feedback(node, dst, via, q_new)
        assert pqr_state(new) == pqr_state(ref), step
        # a data packet reaches node from a neighbor: both send the same feedback
        from_node = feedback_rng.choice(topo.neighbors(node))
        target = node if step % 5 == 0 else dst
        steps["feedback_at_dst"] += target == node
        arrived = now - feedback_rng.uniform(0.0, 0.05)
        sent.clear()
        for algo in algos:
            algo.on_data_arrival(node, Packet(DATA, 4096, from_node, target, arrived), from_node)
        assert len(sent) == 2 and feedback_sent(sent[0]) == feedback_sent(sent[1]), step
        for d in [dst] + rng.sample(topo.nodes, 4):
            if d == node:
                continue
            packet = Packet(DATA, 4096, node, d, now)
            assert new.select_next_hop(node, packet) == ref.select_next_hop(node, packet)
            predicted = [ref.predicted(node, d, n, now) for n in ref.q[node][d]]
            steps["tie"] += predicted.count(min(predicted)) > 1
    assert min(steps.values()) > 0, steps


def test_pqr_recovery_rate_stays_nonpositive():
    sim, net, _ = build(PQRouting())
    algo = net.algorithm
    for _ in range(50):
        net.inject_data(1, 6, 4096)
    sim.run_until(10.0)
    rates = [
        record[1]
        for per_dst in algo.stats.values()
        for per_via in per_dst.values()
        for record in per_via.values()
    ]
    assert rates and all(r <= 0.0 for r in rates)


# -- omniscient bound --------------------------------------------------------


def daemon_reference(algo, node, packet):
    """Oracle for one daemon next-hop decision, computed the long way: the
    ``link_cost`` of every link into a full adjacency, ``routing.dijkstra``
    from ``node``, then one smoothing step of every port's queue. Returns
    the first hop and the smoothed queues the decision should leave,
    without changing ``algo``."""
    net = algo.net
    topo = net.topo
    adjacency = {
        u: [(l.dst, algo.link_cost(l, packet.size)) for l in topo.out_links[u]]
        for u in topo.nodes
    }
    _, hop = dijkstra(topo.n_nodes, adjacency, node)
    decay = algo.queue_mean_decay
    smoothed = [
        decay * s_bar + (1.0 - decay) * port.all_bits
        for s_bar, port in zip(algo.smoothed_queue, net.ports.values())
    ]
    return hop[packet.dst], smoothed


def test_daemon_cost_oracle():
    topo = from_edge_list(2, [(1, 2)], 1.5e6, 0.001)
    sim, net, _ = build(DaemonRouting(), topo=topo)
    algo = net.algorithm
    port = net.port(1, 2)
    port.all_bits = 8192.0
    ((dst, _, _, edge_port, index),) = algo.edges[1]
    assert dst == 2 and edge_port is port
    algo.smoothed_queue[index] = 4096.0
    cost = algo.link_cost(topo.link(1, 2), 4096.0)
    expected = 0.001 + 4096 / 1.5e6 + 0.6 * 8192 / 1.5e6 + 0.4 * 4096 / 1.5e6
    assert abs(cost - expected) < 1e-12


@pytest.mark.parametrize("params", [(0.4, 0.9), (1.0, 0.0), (0.0, 0.5)])
@pytest.mark.parametrize("topo_name", ["simplenet", "nsfnet", "nttnet"])
def test_daemon_fast_path_matches_reference(topo_name, params):
    _, net, _ = build(DaemonRouting(), topo_name)
    algo = net.algorithm
    algo.queue_mix, algo.queue_mean_decay = params
    topo = net.topo
    hops = {u: topo.hop_distances(u) for u in topo.nodes}
    rng = random.Random(f"{topo_name}{params}")
    ties = 0
    for draw in range(300):
        idle = draw % 4 == 0  # all-zero queues: equal-cost paths tie
        for port in net.ports.values():
            if idle or rng.random() < 0.3:
                port.all_bits = 0.0
            else:
                port.all_bits = rng.choice((4096.0, rng.uniform(0.0, 2e5)))
        if idle or rng.random() < 0.2:  # otherwise carry over the last call's
            algo.smoothed_queue = [0.0 if idle else rng.uniform(0.0, 1e5) for _ in net.ports]
        node, dst = rng.sample(topo.nodes, 2)
        packet = Packet(DATA, rng.choice((4096.0, rng.uniform(64.0, 1e5))), node, dst, 0.0)
        if idle:
            closer = [n for n in topo.neighbors(node) if hops[n][dst] < hops[node][dst]]
            ties += len(closer) > 1
        nxt, smoothed = daemon_reference(algo, node, packet)
        assert algo.select_next_hop(node, packet) == nxt
        assert [x.hex() for x in algo.smoothed_queue] == [x.hex() for x in smoothed]
    if topo_name == "simplenet":  # uniform links: min-hop ties are cost ties
        assert ties > 0


def test_daemon_rejects_nonpositive_cost():
    sim, net, _ = build(DaemonRouting())
    net.port(1, 2).all_bits = -1e12
    with pytest.raises(ValueError, match="nonpositive cost on link 1->2"):
        net.algorithm.select_next_hop(1, Packet(DATA, 4096, 1, 6, 0.0))


def test_daemon_emits_no_routing_packets():
    sim, net, metrics = build(DaemonRouting())
    for _ in range(100):
        net.inject_data(1, 6, 4096)
    sim.run_until(50.0)
    assert metrics.routing_bits == 0.0
    assert metrics.generated_count.get("routing_info", 0) == 0
    assert metrics.delivered_count["data"] == 100


def test_daemon_routes_around_congestion():
    sim, net, _ = build(DaemonRouting())
    algo = net.algorithm
    # load the queue on the 1->3 entry of the shortest path heavily
    net.port(1, 3).all_bits = 5e6
    p = Packet(DATA, 4096, 1, 6, 0.0)
    assert algo.select_next_hop(1, p) == 8


def test_all_baselines_deliver_on_light_uniform_traffic():
    for cls in (OspfRouting, SpfRouting, BfRouting, QRouting, PQRouting, DaemonRouting):
        sim, net, metrics = build(cls())
        for src in net.topo.nodes:
            for dst in net.topo.nodes:
                if src != dst:
                    net.inject_data(src, dst, 4096)
        sim.run_until(30.0)
        assert metrics.delivered_count["data"] == 56, cls.name
