import json
import math
import random
import sys
from heapq import heappop, heappush

import networkx as nx
import pytest

from antsim.baselines import (
    BfRouting,
    DaemonRouting,
    OspfRouting,
    PQRouting,
    QRouting,
    QueueMean,
    SpfRouting,
)
from antsim.cli import ExperimentConfig, run_trial
from antsim.engine import Simulator
from antsim.metrics import MetricsCollector
from antsim.network import DATA, Network, Packet, Port
from antsim.routing import dijkstra
from antsim.topology import builtin_topology, from_edge_list, load_topology_file

from test_golden import HOTSPOT_TRAFFIC, OVERLOAD_TRAFFIC, UP_TRAFFIC
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


def test_spf_round_runs_two_events_per_routing_transmission():
    sim, net, metrics = build(SpfRouting(broadcast_interval_s=1.0))
    transmissions = []
    on_routing_tx = metrics.on_routing_tx
    metrics.on_routing_tx = lambda t, bits: (transmissions.append(t), on_routing_tx(t, bits))
    events = sim.run_until(1.5)  # exactly one broadcast round on an idle net
    assert len(transmissions) == 8 * 11
    # the round's own event, then per transmission its end and the packet's
    # on_routing_packet at its arrival plus elab_s, with no arrival event
    assert events == 1 + 2 * len(transmissions)


@pytest.mark.parametrize("topo_name", ["simplenet", "nsfnet", "nttnet"])
def test_spf_broadcast_round_matches_flood_oracle(topo_name):
    sim, net, metrics = build(SpfRouting(broadcast_interval_s=10.0), topo_name)
    sim.run_until(19.0)  # one broadcast round, at t = 10, on an idle net
    topo = net.topo
    expected = sum(flood_reach(topo, origin)[1] for origin in topo.nodes)
    assert metrics.generated_count["routing_info"] == expected
    every_origin = {origin: 1 for origin in topo.nodes}
    lsdb = net.algorithm.lsdb
    assert all({o: seq for o, (seq, _) in lsdb[u].items()} == every_origin for u in topo.nodes)


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
    seq_before = {o: seq for o, (seq, _) in algo.lsdb[2].items()}
    stale = Packet(
        "routing_info", 512, 1, 2, sim.now, payload=("lsa", 1, 0, {2: 99.0})
    )
    algo.on_routing_packet(2, stale, 1)
    assert {o: seq for o, (seq, _) in algo.lsdb[2].items()} == seq_before
    assert algo.lsdb[2][1][1].get(2) != 99.0


def test_spf_recomputes_only_after_changed_costs(monkeypatch):
    sim, net, _ = build(SpfRouting(broadcast_interval_s=1.0))
    sim.run_until(5.0)
    algo = net.algorithm
    packet = Packet(DATA, 4096, 2, 6, sim.now)
    algo.select_next_hop(2, packet)
    table = algo.tables[2]
    recomputed = []
    recompute = SpfRouting._recompute
    monkeypatch.setattr(
        SpfRouting, "_recompute", lambda self, node: (recomputed.append(node), recompute(self, node))
    )
    seq, costs = algo.lsdb[2][1]
    same = Packet("routing_info", 512, 1, 2, sim.now, payload=("lsa", 1, seq + 1, dict(costs)))
    algo.on_routing_packet(2, same, 1)
    assert algo.lsdb[2][1] == (seq + 1, costs)
    algo.select_next_hop(2, packet)
    assert algo.tables[2] is table and recomputed == []
    changed = {**costs, 2: costs[2] + 1.0}
    newer = Packet("routing_info", 512, 1, 2, sim.now, payload=("lsa", 1, seq + 2, changed))
    algo.on_routing_packet(2, newer, 1)
    assert algo.tables[2] is None
    algo.select_next_hop(2, packet)
    assert recomputed == [2] and algo.tables[2] is not table


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
    assert abs(q[1][2][2][0] - t_hop) < 1e-12
    # via neighbor 2 toward destination 6: 2 + 1 hops at uniform link speed
    assert abs(q[1][6][2][0] - 4 * t_hop) < 1e-12


def test_qr_update_oracle():
    sim, net, _ = build(QRouting())
    algo = net.algorithm
    algo.q[1][6][2][0] = 3.0
    algo.q[2][6] = {4: [2.0, 2.0, 0.0, 0.0]}
    # feedback: q_new = min Q at node 2 (=2.0) + hop residence 0.5
    algo._apply_feedback(1, 6, 2, 2.0 + 0.5)
    assert abs(algo.q[1][6][2][0] - 2.75) < 1e-12  # 3.0 + 0.5*(2.5-3.0)


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
    for n, q in {2: 5.0, 3: 1.0, 8: 2.0}.items():
        algo.q[1][6][n][0] = q
    p = Packet(DATA, 4096, 1, 6, 0.0)
    assert algo.select_next_hop(1, p) == 3


def plain_argmin(row):
    """Oracle: the neighbor with the least estimate, the smallest id on a tie."""
    return min(row.items(), key=lambda kv: (kv[1][0], kv[0]))[0]


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
            entry[n][0] = rng.choice(levels)
            # feedback keeps best <= q; writing q directly must too
            entry[n][1] = 0.0
        values = [record[0] for record in entry.values()]
        ties += values.count(min(values)) > 1
        want = plain_argmin(entry)
        assert algo.select_next_hop(node, Packet(DATA, 4096, node, dst, 0.0)) == want
    assert ties >= 50, ties


# (traffic, run length in s, decisions the trial makes at least) on nsfnet
QR_TRIALS = [(UP_TRAFFIC, 6.0, 10_000), (HOTSPOT_TRAFFIC, 6.0, 30_000)]


@pytest.mark.parametrize("traffic,run_length_s,floor", QR_TRIALS, ids=["nsfnet-up", "nsfnet-hotspot"])
def test_qr_decisions_are_plain_argmin_over_whole_trial(monkeypatch, traffic, run_length_s, floor):
    learners, decisions = set(), []
    select_next_hop = QRouting.select_next_hop

    def checked(algo, node, packet):
        learners.add(algo)
        expected = plain_argmin(algo.q[node][packet.dst])
        hop = select_next_hop(algo, node, packet)
        assert hop == expected, (algo.net.sim.now, node, packet.dst)
        decisions.append(hop)
        return hop

    monkeypatch.setattr(QRouting, "select_next_hop", checked)
    cfg = ExperimentConfig(
        topology="nsfnet",
        algorithm="qr",
        traffic=dict(traffic),
        warmup_s=1.0,
        run_length_s=run_length_s,
        trials=1,
        master_seed=7,
    )
    run_trial(cfg, 0)
    assert len(decisions) >= floor
    # recovery learning off: every rate is still +0.0 and best never exceeds q
    (algo,) = learners
    for u, per_dst in algo.q.items():
        for d, per_via in per_dst.items():
            for n, (q, best, rate, _) in per_via.items():
                assert rate == 0.0 and math.copysign(1.0, rate) == 1.0, (u, d, n)
                assert best <= q, (u, d, n)


def test_pqr_is_qr_with_recovery_learning_on():
    # the interpreter adds dunders such as __module__; a method is no dunder
    own = {key for key in vars(PQRouting) if not key.startswith("__")}
    assert own == {"name", "recovery_learning"} and PQRouting.__doc__
    assert PQRouting.recovery_learning > QRouting.recovery_learning == 0.0


def test_pqr_with_zero_recovery_matches_qr_argmin():
    sim, net, _ = build(PQRouting())
    algo = net.algorithm
    for n, q in {2: 5.0, 3: 1.0, 8: 2.0}.items():
        algo.q[1][6][n][0] = q
        algo.q[1][6][n][1] = q  # best
        algo.q[1][6][n][2] = 0.0  # recovery rate
    p = Packet(DATA, 4096, 1, 6, 0.0)
    assert algo.select_next_hop(1, p) == 3


def test_pqr_recovery_lets_stale_entry_be_probed():
    sim, net, _ = build(PQRouting())
    algo = net.algorithm
    sim.run_until(1.0)
    for n, q in {2: 5.0, 3: 2.0, 8: 1.9}.items():
        algo.q[1][6][n] = [q, 0.5, 0.0, sim.now]  # q, best, recovery rate, last update
    # neighbor 3 has a negative recovery rate: its prediction falls over time
    algo.q[1][6][3][2] = -0.01
    sim.schedule(21.0, lambda: None)
    sim.run_until(21.0)
    p = Packet(DATA, 4096, 1, 6, sim.now)
    # predicted for 3: max(0.5, 2.0 - 0.01*20) = 1.8 < 1.9
    assert algo.select_next_hop(1, p) == 3


class PQRReference(QRouting):
    """Oracle: pqr as first written, with float Q values in ``q``, its
    per-entry best value, recovery rate and last-update time in three dicts
    keyed by ``(node, dst, via)``, its own copy of the Q step, and the
    feedback formula that read the link through ``topo.link`` and the
    time-to-go through ``min(values())``."""

    recovery_learning = PQRouting.recovery_learning
    recovery_decay = PQRouting.recovery_decay

    def attach(self, net) -> None:
        super().attach(net)
        records, self.q = self.q, {}
        self.best, self.recovery, self.last_update = {}, {}, {}
        for u, per_dst in records.items():
            self.q[u] = {}
            for d, entry in per_dst.items():
                self.q[u][d] = {}
                for n, record in entry.items():
                    q0 = record[0]
                    self.q[u][d][n] = q0
                    self.best[(u, d, n)] = q0
                    self.recovery[(u, d, n)] = 0.0
                    self.last_update[(u, d, n)] = 0.0

    def on_data_arrival(self, node, packet, from_node):
        link = self.net.topo.link_map[(from_node, node)]
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
                    record = (value, algo.best[key], algo.recovery[key], algo.last_update[key])
                else:
                    record = value
                state[(u, d, n)] = tuple(x.hex() for x in record)
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
            level = max(record[0] for record in new.q[node][dst].values())
            for n in new.q[node][dst]:
                new.q[node][dst][n][0] = ref.q[node][dst][n] = level
        kind = rng.choice(("improve", "worsen", "equal"))
        factor = {"improve": rng.uniform(0.1, 1.0), "worsen": rng.uniform(1.0, 3.0), "equal": 1.0}
        q_new = new.q[node][dst][via][0] * factor[kind]
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
        record[2]
        for per_dst in algo.q.values()
        for per_via in per_dst.values()
        for record in per_via.values()
    ]
    assert rates and all(r <= 0.0 for r in rates)


# -- omniscient bound --------------------------------------------------------


def mean_state(net):
    """Every port's queue-mean state ``(bits, at)``, as float hex."""
    return [(port.mean.bits.hex(), port.mean.at.hex()) for port in net.ports.values()]


def daemon_reference(algo, node, packet):
    """Oracle for one daemon next-hop decision, computed the long way: the
    ``link_cost`` of every link into a full adjacency, then ``routing.dijkstra``
    from ``node``. Returns the first hop and the queue-mean state the decision
    should leave, which is the state before it, as a decision only reads the
    means; ``algo`` is not changed."""
    net = algo.net
    topo = net.topo
    adjacency = {
        u: [(l.dst, algo.link_cost(l, packet.size)) for l in topo.out_links[u]]
        for u in topo.nodes
    }
    _, hop = dijkstra(adjacency, node)
    return hop[packet.dst], mean_state(net)


def randomize_means(net, rng, idle):
    """Give every port a random queue, mean and time of its last change
    (``idle``: all zero, so equal-cost paths tie). Some ports changed at
    ``now``, and some so long ago that their mean has decayed to the queue."""
    now = net.sim.now
    for port in net.ports.values():
        if idle:
            port.lo_bits = port.mean.bits = 0.0
            continue
        port.lo_bits = 0.0 if rng.random() < 0.3 else rng.choice((4096.0, rng.uniform(0.0, 2e5)))
        port.mean.bits = rng.uniform(0.0, 1e5)
        port.mean.at = rng.choice((now, now - 1e3, now - rng.uniform(0.0, 5 * port.mean.tau)))


def test_daemon_cost_oracle():
    topo = from_edge_list(2, [(1, 2)], 1.5e6, 0.001)
    sim, net, _ = build(DaemonRouting(), topo=topo)
    algo = net.algorithm
    port = net.ports[(1, 2)]
    ((dst, prop, bw, edge_port),) = algo.edges[1]
    assert (dst, prop, bw) == (2, 0.001, 1.5e6) and edge_port is port
    port.lo_bits = 8192.0
    port.mean.bits = 4096.0
    link = topo.link_map[(1, 2)]
    # read at the time of the last change, the mean is mean.bits itself
    cost = algo.link_cost(link, 4096.0)
    expected = 0.001 + 4096 / 1.5e6 + 0.6 * 8192 / 1.5e6 + 0.4 * 4096 / 1.5e6
    assert abs(cost - expected) < 1e-12
    # one time constant later it has moved 1 - 1/e of the way to lo_bits
    sim.now = algo.queue_mean_tau_s
    cost = algo.link_cost(link, 4096.0)
    s_bar = 8192 - 4096 / math.e
    expected = 0.001 + 4096 / 1.5e6 + 0.6 * 8192 / 1.5e6 + 0.4 * s_bar / 1.5e6
    assert abs(cost - expected) < 1e-12


@pytest.mark.parametrize("params", [(0.4, DaemonRouting.queue_mean_tau_s), (1.0, 1e-3), (0.0, 0.05)])
@pytest.mark.parametrize("topo_name", ["simplenet", "nsfnet", "nttnet"])
def test_daemon_fast_path_matches_reference(monkeypatch, topo_name, params):
    mix, tau = params
    monkeypatch.setattr(DaemonRouting, "queue_mean_tau_s", tau)
    sim, net, _ = build(DaemonRouting(), topo_name)
    algo = net.algorithm
    algo.queue_mix = mix
    assert {port.mean.tau for port in net.ports.values()} == {tau}
    topo = net.topo
    hops = {u: topo.hop_distances(u) for u in topo.nodes}
    rng = random.Random(f"{topo_name}{params}")
    ties = 0
    for draw in range(300):
        idle = draw % 4 == 0
        if idle or rng.random() < 0.2:  # otherwise carry over the last draw's
            sim.now += rng.choice((0.0, rng.uniform(0.0, 10 * tau)))
            randomize_means(net, rng, idle)
        node, dst = rng.sample(topo.nodes, 2)
        packet = Packet(DATA, rng.choice((4096.0, rng.uniform(64.0, 1e5))), node, dst, 0.0)
        if idle:
            closer = [n for n in topo.neighbors(node) if hops[n][dst] < hops[node][dst]]
            ties += len(closer) > 1
        nxt, state = daemon_reference(algo, node, packet)
        assert algo.select_next_hop(node, packet) == nxt
        assert mean_state(net) == state
    if topo_name == "simplenet":  # uniform links: min-hop ties are cost ties
        assert ties > 0


def test_daemon_rejects_nonpositive_cost():
    sim, net, _ = build(DaemonRouting())
    net.ports[(1, 2)].lo_bits = -1e12
    with pytest.raises(ValueError, match="nonpositive cost on link 1->2"):
        net.algorithm.select_next_hop(1, Packet(DATA, 4096, 1, 6, 0.0))


def plain_daemon_first_hop(algo, node, packet):
    """Test-only copy of the daemon's search without its bound: an early-exit
    Dijkstra that pops ``(distance, first hop, node)`` and prices links as
    ``link_cost`` does, with ``QueueMean.read``. Returns the first hop,
    without changing ``algo``."""
    bits = packet.size
    mix = algo.queue_mix
    rest = 1.0 - mix
    now = algo.net.sim.now
    settled = [False] * len(algo.edges)
    heap = [(0.0, 0, node)]
    while heap:
        d, first, u = heappop(heap)
        if settled[u]:
            continue
        if u == packet.dst:
            break
        settled[u] = True
        for v, prop, bw, port in algo.edges[u]:
            q = port.lo_bits
            cost = prop + bits / bw + rest * q / bw + mix * port.mean.read(now, q) / bw
            if not settled[v]:
                heappush(heap, (d + cost, first or v, v))
    return first


# (topology, traffic, run length in s, decisions the trial makes at least);
# the daemon sends nothing in warm-up, so the trials skip it. The hot spot at
# node 4 runs from 1 s to 5 s and fills the queues that price the links.
WHOLE_TRIALS = [
    ("nsfnet", UP_TRAFFIC, 6.0, 9_000),
    ("nsfnet", HOTSPOT_TRAFFIC, 6.0, 27_000),
    ("nttnet", UP_TRAFFIC, 3.0, 50_000),
]


@pytest.mark.parametrize(
    "topology,traffic,run_length_s,floor", WHOLE_TRIALS, ids=["nsfnet-up", "nsfnet-hotspot", "nttnet-up"]
)
def test_daemon_search_matches_plain_dijkstra_on_every_decision(
    monkeypatch, topology, traffic, run_length_s, floor
):
    decisions = []
    select_next_hop = DaemonRouting.select_next_hop

    def checked(algo, node, packet):
        expected = plain_daemon_first_hop(algo, node, packet)
        hop = select_next_hop(algo, node, packet)
        assert hop == expected, (algo.net.sim.now, node, packet.dst)
        decisions.append(hop)
        return hop

    monkeypatch.setattr(DaemonRouting, "select_next_hop", checked)
    cfg = ExperimentConfig(
        topology=topology,
        algorithm="daemon",
        traffic=dict(traffic),
        warmup_s=0.0,
        run_length_s=run_length_s,
        trials=1,
        master_seed=11,
    )
    run_trial(cfg, 0)
    assert len(decisions) >= floor


def zero_delay_topology(tmp_path):
    """A topology file with 0 s links, so that bounds tie along 1-2 and 3-4."""
    links = [
        (1, 2, 1.5e6, 0.0),
        (2, 3, 1.5e6, 0.002),
        (3, 4, 4.5e6, 0.0),
        (1, 4, 1.5e6, 0.005),
        (4, 5, 1.5e6, 0.001),
        (2, 5, 4.5e6, 0.0),
        (5, 6, 1.5e6, 0.003),
        (3, 6, 1.5e6, 0.0),
    ]
    spec = {
        "nodes": 6,
        "links": [
            {"a": a, "b": b, "bandwidth_bps": bw, "prop_delay_s": delay}
            for a, b, bw, delay in links
        ],
    }
    path = tmp_path / "zero_delay.json"
    path.write_text(json.dumps(spec))
    return load_topology_file(str(path))


@pytest.mark.parametrize("topo_name", ["simplenet", "nsfnet", "nttnet", "zero-delay"])
def test_daemon_bound_is_least_propagation_delay(tmp_path, topo_name):
    topo = zero_delay_topology(tmp_path) if topo_name == "zero-delay" else builtin_topology(topo_name)
    _, net, _ = build(DaemonRouting(), topo=topo)
    graph = nx.DiGraph()
    for link in topo.links:
        graph.add_edge(link.src, link.dst, weight=link.prop_delay_s)
    reverse = graph.reverse()
    lower = net.algorithm.lower
    assert len(lower) == topo.n_nodes + 1 and lower[0] == []
    for dst in topo.nodes:
        expected = nx.single_source_dijkstra_path_length(reverse, dst)
        assert lower[dst][1:] == [expected[v] for v in topo.nodes]


def test_daemon_with_zero_delay_links_matches_reference(tmp_path):
    sim, net, _ = build(DaemonRouting(), topo=zero_delay_topology(tmp_path))
    algo = net.algorithm
    topo = net.topo
    assert algo.lower[2][1] == algo.lower[4][3] == 0.0
    rng = random.Random("zero-delay")
    for draw in range(300):
        sim.now += rng.choice((0.0, rng.uniform(0.0, 0.05)))
        randomize_means(net, rng, idle=draw % 4 == 0)
        node, dst = rng.sample(topo.nodes, 2)
        packet = Packet(DATA, rng.choice((4096.0, rng.uniform(64.0, 1e5))), node, dst, 0.0)
        nxt, state = daemon_reference(algo, node, packet)
        assert algo.select_next_hop(node, packet) == nxt
        assert mean_state(net) == state


class MeanReference:
    """Test-only integrator of one port's queue over time: stepped at every
    change by the queue held since the one before, read in closed form."""

    def __init__(self, tau, now, q):
        self.tau, self.s, self.t, self.q = tau, 0.0, now, q

    def change(self, now, q):
        self.s += (1.0 - math.exp(-(now - self.t) / self.tau)) * (self.q - self.s)
        self.t, self.q = now, q

    def read(self, now):
        return self.q + (self.s - self.q) * math.exp(-(now - self.t) / self.tau)


def feed_every_change(monkeypatch, net):
    """A ``MeanReference`` per port of ``net``, stepped by every write to
    ``Port.lo_bits`` from now on, whichever code makes it."""
    slot = Port.lo_bits
    refs = {port: MeanReference(port.mean.tau, net.sim.now, port.lo_bits) for port in net.ports.values()}

    def write(port, value):
        refs[port].change(net.sim.now, value)
        slot.__set__(port, value)

    monkeypatch.setattr(Port, "lo_bits", property(slot.__get__, write))
    return refs


def count_advances(monkeypatch):
    """Wrap ``QueueMean.advance`` to count its calls and fail any at an
    instant the mean has already reached: such a step, by ``exp(0)``, does
    nothing."""
    advance = QueueMean.advance
    calls = []

    def once_per_instant(mean, now, q):
        assert now != mean.at, now
        calls.append(now)
        advance(mean, now, q)

    monkeypatch.setattr(QueueMean, "advance", once_per_instant)
    return calls


def test_daemon_decisions_at_one_instant_leave_the_means_unchanged():
    sim, net, _ = build(DaemonRouting(), "nsfnet")
    algo = net.algorithm
    rng = random.Random("one instant")
    for _ in range(400):
        net.inject_data(*rng.sample(net.topo.nodes, 2), 4096)
    sim.run_until(0.05)
    state = mean_state(net)
    assert sum(port.mean.bits > 0 for port in net.ports.values()) > 10
    packets = [Packet(DATA, 4096, *rng.sample(net.topo.nodes, 2), 0.0) for _ in range(50)]
    hops = [algo.select_next_hop(p.src, p) for p in packets]
    assert mean_state(net) == state
    assert [algo.select_next_hop(p.src, p) for p in packets] == hops
    assert mean_state(net) == state


def test_held_queue_reads_its_exponential_mean(monkeypatch):
    sim, net, _ = build(DaemonRouting(), topo=from_edge_list(2, [(1, 2)], 1.5e6, 0.004))
    port = net.ports[(1, 2)]
    tau = port.mean.tau
    ref = feed_every_change(monkeypatch, net)[port]
    advances = count_advances(monkeypatch)
    # all four reach the port at one instant, which the mean reaches once
    for _ in range(4):
        net.inject_data(1, 2, 4096)
    # the queue holds 3, 2, 1 and 0 packets for 4096/1.5e6 s each in turn
    held = set()
    for step in range(1, 60):
        now = step * 2.5e-4
        sim.run_until(now)
        assert (port.mean.bits.hex(), port.mean.at.hex()) == (ref.s.hex(), ref.t.hex())
        q, s, dt = port.lo_bits, port.mean.bits, now - port.mean.at
        expected = q + (s - q) * math.exp(-dt / tau)
        assert port.mean.read(now, q).hex() == ref.read(now).hex() == expected.hex()
        if dt > 0 and s != q:
            held.add(q)
    assert held == {0.0, 4096.0, 8192.0, 12288.0}
    assert len(advances) == 4


# (topology, traffic, run length in s, TTL in s, decisions the trial makes at
# least); the 0.5 s TTL makes packets expire in simplenet's overloaded queues
MEAN_TRIALS = [
    ("simplenet", OVERLOAD_TRAFFIC, 3.0, 0.5, 9_000),
    ("nsfnet", HOTSPOT_TRAFFIC, 3.0, 15.0, 9_000),
]


@pytest.mark.parametrize(
    "topology,traffic,run_length_s,ttl_s,floor", MEAN_TRIALS, ids=["simplenet-ttl", "nsfnet-hotspot"]
)
def test_daemon_reads_the_reference_mean_on_every_decision(
    monkeypatch, topology, traffic, run_length_s, ttl_s, floor
):
    refs = {}
    counts = {"decisions": 0, "queued_expiries": 0}
    set_algorithm = Network.set_algorithm
    select_next_hop = DaemonRouting.select_next_hop
    on_dropped = MetricsCollector.on_dropped
    advances = count_advances(monkeypatch)

    def attached(net, algo):
        set_algorithm(net, algo)
        refs.update(feed_every_change(monkeypatch, net))

    def checked(algo, node, packet):
        net = algo.net
        now = net.sim.now
        for port in net.ports.values():
            # the daemon queues no control packets, so lo_bits is every waiting bit
            assert not port.hi, (now, port.src, port.dst)
            read = port.mean.read(now, port.lo_bits)
            assert read.hex() == refs[port].read(now).hex(), (now, port.src, port.dst)
        state = mean_state(net)
        hop = select_next_hop(algo, node, packet)
        assert mean_state(net) == state
        counts["decisions"] += 1
        return hop

    def counted(metrics, cause, kind):
        if sys._getframe(1).f_code is Network._start_tx.__code__:
            counts["queued_expiries"] += 1
        on_dropped(metrics, cause, kind)

    monkeypatch.setattr(Network, "set_algorithm", attached)
    monkeypatch.setattr(DaemonRouting, "select_next_hop", checked)
    monkeypatch.setattr(MetricsCollector, "on_dropped", counted)
    monkeypatch.setattr(Network, "ttl_s", ttl_s)
    cfg = ExperimentConfig(
        topology=topology,
        algorithm="daemon",
        traffic=dict(traffic),
        warmup_s=0.0,
        run_length_s=run_length_s,
        trials=1,
        master_seed=11,
    )
    run_trial(cfg, 0)
    assert counts["decisions"] >= floor
    assert len(advances) >= floor
    if topology == "simplenet":
        assert counts["queued_expiries"] > 0


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
    net.ports[(1, 3)].lo_bits = 5e6
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
