"""Competitor routing algorithms: static and adaptive link-state (ospf, spf),
adaptive distance-vector (bf), feedback-driven learners (qr, pqr), and the
omniscient daemon bound."""

from __future__ import annotations

from heapq import heappop, heappush
from math import exp
from typing import Dict, List, Optional, Tuple

from antsim.checks import check_number
from antsim.network import Packet
from antsim.routing import CostTable, LinkCostEstimator, RoutingAlgorithm, dijkstra

LSA_BASE_BYTES = 64
LSA_BYTES_PER_NEIGHBOR = 8
DV_BASE_BYTES = 24
DV_BYTES_PER_NODE = 12
FEEDBACK_BYTES = 12
FEEDBACK_BITS = FEEDBACK_BYTES * 8
SAMPLE_PACKET_BITS = 4096.0  # 512-byte reference packet for static costs


def _static_cost(link) -> float:
    """Delay of the reference packet on ``link`` when idle: OSPF's advertised
    cost and the per-hop time of QR's seed tables."""
    return link.prop_delay_s + SAMPLE_PACKET_BITS / link.bandwidth_bps


def _min_hop_next(topo) -> Dict[int, Dict[int, int]]:
    """Static min-hop next-hop tables (smallest-id tie-break), used as the
    pre-convergence fallback by the adaptive protocols."""
    adjacency = {u: [(l.dst, 1.0) for l in topo.out_links[u]] for u in topo.nodes}
    tables: Dict[int, Dict[int, int]] = {}
    for u in topo.nodes:
        _, hop = dijkstra(topo.n_nodes, adjacency, u)
        tables[u] = {d: h for d, h in hop.items() if h is not None}
    return tables


def _monitor_ports(net) -> None:
    """Give every port a delay monitor; only spf and bf read link costs from one."""
    for port in net.ports.values():
        port.monitor = LinkCostEstimator()


class _PeriodicBroadcast(RoutingAlgorithm):
    """Every ``broadcast_interval_s`` each node, in id order, broadcasts its
    routing state to its neighbors; subclasses supply ``_broadcast(node)``."""

    def __init__(self, broadcast_interval_s: float = 0.8):
        check_number("broadcast_interval_s", broadcast_interval_s, 0, finite=False)
        self.broadcast_interval_s = broadcast_interval_s

    def attach(self, net) -> None:
        """Keep ``net``, build the min-hop ``fallback`` tables and schedule the
        first round; subclasses then build their own tables."""
        self.net = net
        self.fallback = _min_hop_next(net.topo)
        self._schedule_broadcast()

    def _schedule_broadcast(self) -> None:
        t = self.net.sim.now + self.broadcast_interval_s
        self.net.sim.schedule(t, self._broadcast_round)

    def _broadcast_round(self) -> None:
        for u in self.net.topo.nodes:
            self._broadcast(u)
        self._schedule_broadcast()

    def _broadcast(self, node: int) -> None:
        raise NotImplementedError


class _LinkStateBase(_PeriodicBroadcast):
    """Common flooding machinery for the link-state protocols.

    ``lsdb[node][origin]`` is the ``(seq, costs)`` of the newest advertisement
    from ``origin``. Only a new origin or changed costs make ``tables[node]``
    stale (``None``): ``routing.dijkstra`` gives the same table for the same
    costs in any adjacency order."""

    def attach(self, net) -> None:
        super().attach(net)
        nodes = net.topo.nodes
        self.lsdb: Dict[int, Dict[int, Tuple[int, Dict[int, float]]]] = {u: {} for u in nodes}
        self.tables: Dict[int, Optional[Dict[int, int]]] = {u: {} for u in nodes}

    def _link_costs(self, node: int) -> Dict[int, float]:
        raise NotImplementedError

    def _broadcast(self, node: int) -> None:
        # a node installs its own LSA when it sends it, and echoes are stale
        seq = self.lsdb[node].get(node, (0,))[0] + 1
        costs = self._link_costs(node)
        payload = ("lsa", node, seq, costs)
        size = (LSA_BASE_BYTES + LSA_BYTES_PER_NEIGHBOR * len(costs)) * 8
        self._install(node, node, seq, costs)
        for link in self.net.topo.out_links[node]:
            self.net.send_routing(node, link.dst, size, payload)

    def _install(self, node: int, origin: int, seq: int, costs: Dict[int, float]) -> None:
        held = self.lsdb[node].get(origin)
        self.lsdb[node][origin] = (seq, costs)
        if held is None or held[1] != costs:
            self.tables[node] = None

    def on_routing_packet(self, node: int, packet: Packet, from_node: int) -> None:
        tag, origin, seq, costs = packet.payload
        if seq <= self.lsdb[node].get(origin, (0,))[0]:
            return  # stale or duplicate advertisement
        self._install(node, origin, seq, costs)
        for link in self.net.topo.out_links[node]:
            if link.dst != from_node:
                self.net.send_routing(node, link.dst, packet.size, packet.payload)

    def _recompute(self, node: int) -> None:
        adjacency = {
            origin: list(costs.items()) for origin, (_, costs) in self.lsdb[node].items()
        }
        _, hop = dijkstra(self.net.topo.n_nodes, adjacency, node)
        self.tables[node] = {d: h for d, h in hop.items() if h is not None}

    def select_next_hop(self, node: int, packet: Packet) -> int:
        if self.tables[node] is None:
            self._recompute(node)
        return self.tables[node].get(packet.dst) or self.fallback[node].get(packet.dst)


class OspfRouting(_LinkStateBase):
    """Static link-state routing: costs from physical link characteristics,
    tables computed once and never changed. Periodic advertisements are still
    flooded, but they re-advertise the same costs, so no table goes stale."""

    name = "ospf"
    elab_s = 0.006

    def __init__(self, broadcast_interval_s: float = 30.0):
        super().__init__(broadcast_interval_s)

    def attach(self, net) -> None:
        super().attach(net)
        # every node knows the static map up front
        for u in net.topo.nodes:
            for v in net.topo.nodes:
                self.lsdb[u][v] = (0, self._link_costs(v))
            self._recompute(u)

    def _link_costs(self, node: int) -> Dict[int, float]:
        return {l.dst: _static_cost(l) for l in self.net.topo.out_links[node]}


class SpfRouting(_LinkStateBase):
    """Adaptive link-state routing with the discrete monitored-delay metric."""

    name = "spf"
    elab_s = 0.006

    def attach(self, net) -> None:
        _monitor_ports(net)
        super().attach(net)

    def _link_costs(self, node: int) -> Dict[int, float]:
        return {p.dst: float(p.monitor.close_window()) for p in self.net.out_ports[node]}


class BfRouting(_PeriodicBroadcast):
    """Asynchronous distributed distance-vector routing with dynamic costs.

    ``select_next_hop`` asks the node's ``CostTable`` for its best next hop,
    which the table caches per destination, scanning the neighbors only on a
    miss. A received vector clears the node's cache, and so does a broadcast
    that changes one of the node's link costs."""

    name = "bf"
    elab_s = 0.002

    def attach(self, net) -> None:
        _monitor_ports(net)
        super().attach(net)
        topo = net.topo
        self.cost_tables: Dict[int, CostTable] = {
            u: CostTable(u, topo.n_nodes, topo.neighbors(u)) for u in topo.nodes
        }
        self.vector_bits = (DV_BASE_BYTES + DV_BYTES_PER_NODE * topo.n_nodes) * 8

    def _broadcast(self, node: int) -> None:
        table = self.cost_tables[node]
        ports = self.net.out_ports[node]
        for port in ports:
            table.set_link_cost(port.dst, float(port.monitor.close_window()))
        vector = table.distance_vector()
        for port in ports:
            self.net.send_routing(node, port.dst, self.vector_bits, ("dv", node, vector))

    def on_routing_packet(self, node: int, packet: Packet, from_node: int) -> None:
        tag, origin, vector = packet.payload
        self.cost_tables[node].merge(origin, vector)

    def select_next_hop(self, node: int, packet: Packet) -> int:
        # node ids are >= 1, so `or` falls back exactly when best has no hop
        return self.cost_tables[node].best(packet.dst)[1] or self.fallback[node][packet.dst]


class QRouting(RoutingAlgorithm):
    """Online asynchronous distance-vector learner: per-hop feedback packets
    carry the downstream time-to-go estimate. Feedback goes back for every
    data packet that arrives within its TTL. Each feedback moves its
    estimate by the fixed ``learning_rate``.

    Each Q entry ``q[u][d][n]`` is the record ``[q, best, rate, last]``: the
    estimate of the time to ``d`` via neighbour ``n``, its lowest value, its
    recovery rate (<= 0) and the time of its last feedback, seeded as ``[q0,
    q0, 0.0, 0.0]``. Forwarding picks the least predicted estimate
    ``max(best, q + rate * (now - last))``, ranked by ``(predicted, id)``.
    Improving feedback moves the rate by the fixed ``recovery_learning``
    times the entry's slope, and other feedback scales it by the fixed
    ``recovery_decay``, so it never becomes positive; the clamp to
    ``rate <= 0`` changes only a rate set from outside. Q-routing keeps
    ``recovery_learning`` at 0.0: every rate stays +0.0, ``best <= q``
    holds since ``_apply_feedback`` lowers ``best`` with ``q``, and
    forwarding is the plain arg min of the estimates."""

    name = "qr"
    elab_s = 0.003
    learning_rate = 0.5
    recovery_learning = 0.0
    recovery_decay = 0.95

    def attach(self, net) -> None:
        self.net = net
        topo = net.topo
        hops = {u: topo.hop_distances(u) for u in topo.nodes}
        # seed with hop-count x per-hop time so the initial arg min is sane
        self.q: Dict[int, Dict[int, Dict[int, List[float]]]] = {}
        for u in topo.nodes:
            self.q[u] = {}
            for d in topo.nodes:
                if d == u:
                    continue
                entry = {}
                for link in topo.out_links[u]:
                    q0 = _static_cost(link) * (1 + hops[link.dst][d])
                    entry[link.dst] = [q0, q0, 0.0, 0.0]
                self.q[u][d] = entry

    def select_next_hop(self, node: int, packet: Packet) -> int:
        # rows run in ascending neighbor order (attach builds them from the
        # sorted out_links), so the strict < keeps the smallest id on a tie
        now = self.net.sim.now
        nxt = None
        for n, (q, best, rate, last) in self.q[node][packet.dst].items():
            predicted = q + rate * (now - last)
            if predicted < best:
                predicted = best
            if nxt is None or predicted < least:
                nxt, least = n, predicted
        return nxt

    def on_data_arrival(self, node: int, packet: Packet, from_node: int) -> None:
        """Send ``from_node`` this node's least time-to-go for the packet's
        destination (0 at the destination) plus the hop's queueing and
        transmission time."""
        dst = packet.dst
        # lists compare by their first differing item: the least record has the least q
        to_go = 0.0 if node == dst else min(self.q[node][dst].values())[0]
        net = self.net
        hop_time = net.sim.now - packet.node_arrival - net.ports[(from_node, node)].prop_delay_s
        net.send_routing(node, from_node, FEEDBACK_BITS, ("qfb", dst, to_go + hop_time))

    def on_routing_packet(self, node: int, packet: Packet, from_node: int) -> None:
        payload = packet.payload  # ("qfb", dst, q_new)
        self._apply_feedback(node, payload[1], from_node, payload[2])

    def _apply_feedback(self, node: int, dst: int, via: int, q_new: float) -> None:
        # the Q step, then the rest of the record; each `if` returns what
        # min/max would, ties and -0.0 included
        record = self.q[node][dst][via]
        old, best, rate, last = record
        q = old + self.learning_rate * (q_new - old)
        now = self.net.sim.now
        if q < best:
            best = q
        delta = q - old
        if delta < 0:
            # learn how fast this link's estimate recovers when load drains
            dt = now - last
            if dt < 1e-9:
                dt = 1e-9
            rate += self.recovery_learning * (delta / dt)
        else:
            rate *= self.recovery_decay
        if rate > 0.0:
            rate = 0.0
        record[:] = q, best, rate, now


class PQRouting(QRouting):
    """Predictive Q-routing: the same learner with recovery learning on, so
    an entry that sits idle after improving feedback relaxes toward its best
    value and a stale route is probed again."""

    name = "pqr"
    recovery_learning = 0.7


class QueueMean:
    """The daemon's time-weighted exponential mean of one port's queue ``q``,
    time constant ``tau``: ``bits`` is the mean up to ``at``. The network
    calls ``advance`` just before ``q`` changes, so ``q`` has held since
    ``at``, and ``read`` gives the mean at any later time, writing nothing."""

    __slots__ = ("tau", "bits", "at")

    def __init__(self, tau: float, at: float):
        self.tau = tau
        self.bits = 0.0
        self.at = at

    def advance(self, now: float, q: float) -> None:
        self.bits += (1.0 - exp(-(now - self.at) / self.tau)) * (q - self.bits)
        self.at = now

    def read(self, now: float, q: float) -> float:
        return q + (self.bits - q) * exp(-(now - self.at) / self.tau)


class DaemonRouting(RoutingAlgorithm):
    """Empirical performance bound: reads every queue in the network at each
    hop and routes the packet over a network-wide shortest path. Generates no
    routing packets.

    A link costs ``prop + bits/bw + (1-mix)*q/bw + mix*s_bar/bw``, where ``q``
    is ``lo_bits``, the bits waiting at its port (the daemon sends no ants or
    routing packets, so every waiting bit is low priority), ``s_bar`` their
    mean over time and ``mix`` the fixed ``queue_mix``. Each next-hop decision
    runs one A* search from ``node``: it pushes a label of ``v`` at distance
    ``d`` as ``(d + lower[dst][v], d, first hop, v)``, prices a link only when
    it relaxes it and stops as soon as ``packet.dst`` is settled. The bound
    ``lower[dst][v]``, built in ``attach``, is the least total propagation
    delay from ``v`` to ``dst``. Every link costs at least its ``prop`` plus
    ``bits/bw`` (2.7e-3 s for 4096 bits at 1.5 Mb/s), a margin far above the
    rounding of the keys and the residue a drained port leaves in ``lo_bits``,
    so the bound is consistent. A node's labels pop in ``(d, first hop)``
    order, as a larger ``d`` never rounds to a smaller key, and the first hop
    is that of a plain Dijkstra: equal-cost ties go to the smallest first-hop
    id, as in ``routing.dijkstra``.

    ``s_bar`` is the read of the port's ``QueueMean`` (``Port.mean``), which
    ``attach`` gives every port with the fixed ``queue_mean_tau_s``. A
    decision only reads the means, so the window is a span of time whatever
    the packet rate, and decisions at the same instant see the same values.
    The 4 ms keeps the window of the earlier per-decision step
    ``s = 0.9*s + 0.1*q`` at the load of the benchmark's NSFNET UP workload,
    about 2,440 decisions per simulated second: a decay of 0.9 per decision
    has a time constant of ``-1/ln 0.9``, 9.5 decisions, or 3.9 ms.
    """

    name = "daemon"
    elab_s = 0.0
    queue_mix = 0.4
    queue_mean_tau_s = 0.004

    def attach(self, net) -> None:
        self.net = net
        now = net.sim.now
        for port in net.ports.values():
            port.mean = QueueMean(self.queue_mean_tau_s, now)
        # edges[u]: (dst, prop_delay_s, bandwidth_bps, port) per out-link of
        # u, by dst. Node ids are 1..n, so edges[0] stays empty.
        self.edges: List[Tuple] = [()] + [
            tuple((p.dst, p.prop_delay_s, p.bandwidth_bps, p) for p in net.out_ports[u])
            for u in net.topo.nodes
        ]
        # lower[dst][v]: least total prop_delay_s from v to dst, indexed by
        # node id like edges (lower[0] stays empty, lower[dst][0] is unused).
        # One Dijkstra per dst over the reversed links, which may cost 0 s.
        nodes = net.topo.nodes
        into: Dict[int, List[Tuple[int, float]]] = {v: [] for v in nodes}
        for link in net.topo.links:
            into[link.dst].append((link.src, link.prop_delay_s))
        self.lower: List[List[float]] = [[]]
        for dst in nodes:
            dist, _ = dijkstra(net.topo.n_nodes, into, dst)
            self.lower.append([float("inf")] + [dist[v] for v in nodes])

    def link_cost(self, link, packet_bits: float) -> float:
        """Cost of one link, as ``select_next_hop`` prices it inline."""
        port = self.net.ports[(link.src, link.dst)]
        return (
            link.prop_delay_s
            + packet_bits / link.bandwidth_bps
            + (1.0 - self.queue_mix) * port.lo_bits / link.bandwidth_bps
            + self.queue_mix * port.mean.read(self.net.sim.now, port.lo_bits) / link.bandwidth_bps
        )

    def select_next_hop(self, node: int, packet: Packet) -> int:
        bits = packet.size
        dst = packet.dst
        mix = self.queue_mix
        rest = 1.0 - mix
        now = self.net.sim.now
        edges = self.edges
        lower = self.lower[dst]
        settled = [False] * len(edges)
        # (distance + bound, distance, first hop, node); 0 marks the source
        heap = [(lower[node], 0.0, 0, node)]
        while heap:
            _, d, first, u = heappop(heap)
            if settled[u]:
                continue
            if u == dst:
                break
            settled[u] = True
            for v, prop, bw, port in edges[u]:
                # QueueMean.read, inline
                q = port.lo_bits
                m = port.mean
                s_bar = q + (m.bits - q) * exp(-(now - m.at) / m.tau)
                cost = prop + bits / bw + rest * q / bw + mix * s_bar / bw
                if cost <= 0:
                    raise ValueError(f"nonpositive cost on link {u}->{v}")
                if not settled[v]:
                    dv = d + cost
                    heappush(heap, (dv + lower[v], dv, first or v, v))
        return first
