"""Competitor routing algorithms: static and adaptive link-state (ospf, spf),
adaptive distance-vector (bf), feedback-driven learners (qr, pqr), and the
omniscient daemon bound."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from antsim.network import Packet
from antsim.routing import CostTable, LinkCostEstimator, RoutingAlgorithm, dijkstra

LSA_BASE_BYTES = 64
LSA_BYTES_PER_NEIGHBOR = 8
DV_BASE_BYTES = 24
DV_BYTES_PER_NODE = 12
FEEDBACK_BYTES = 12
FEEDBACK_BITS = FEEDBACK_BYTES * 8
SAMPLE_PACKET_BITS = 4096.0  # 512-byte reference packet for static costs


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
        if not broadcast_interval_s > 0:
            raise ValueError(f"broadcast_interval_s must be > 0, got {broadcast_interval_s!r}")
        self.broadcast_interval_s = broadcast_interval_s

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
    """Common flooding machinery for the link-state protocols."""

    def attach(self, net) -> None:
        self.net = net
        topo = net.topo
        self.seq: Dict[int, int] = {u: 0 for u in topo.nodes}
        self.lsdb_seen: Dict[int, Dict[int, int]] = {u: {} for u in topo.nodes}
        self.lsdb: Dict[int, Dict[int, Dict[int, float]]] = {u: {} for u in topo.nodes}
        self.tables: Dict[int, Dict[int, int]] = {u: {} for u in topo.nodes}
        self.dirty: Dict[int, bool] = {u: False for u in topo.nodes}
        self.fallback = _min_hop_next(topo)
        self._schedule_broadcast()

    def _link_costs(self, node: int) -> Dict[int, float]:
        raise NotImplementedError

    def _broadcast(self, node: int) -> None:
        self.seq[node] += 1
        costs = self._link_costs(node)
        payload = ("lsa", node, self.seq[node], costs)
        size = (LSA_BASE_BYTES + LSA_BYTES_PER_NEIGHBOR * len(costs)) * 8
        self._install(node, node, self.seq[node], costs)
        for link in self.net.topo.out_links[node]:
            self.net.send_routing(node, link.dst, size, payload)

    def _install(self, node: int, origin: int, seq: int, costs: Dict[int, float]) -> None:
        self.lsdb_seen[node][origin] = seq
        self.lsdb[node][origin] = costs
        self.dirty[node] = True

    def on_routing_packet(self, node: int, packet: Packet, from_node: int) -> None:
        tag, origin, seq, costs = packet.payload
        if seq <= self.lsdb_seen[node].get(origin, 0):
            return  # stale or duplicate advertisement
        self._install(node, origin, seq, costs)
        for link in self.net.topo.out_links[node]:
            if link.dst != from_node:
                self.net.send_routing(node, link.dst, packet.size, packet.payload)

    def _recompute(self, node: int) -> None:
        adjacency = {
            origin: list(costs.items()) for origin, costs in self.lsdb[node].items()
        }
        _, hop = dijkstra(self.net.topo.n_nodes, adjacency, node)
        self.tables[node] = {d: h for d, h in hop.items() if h is not None}
        self.dirty[node] = False

    def select_next_hop(self, node: int, packet: Packet) -> int:
        if self.dirty[node]:
            self._recompute(node)
        return self.tables[node].get(packet.dst) or self.fallback[node].get(packet.dst)


class OspfRouting(_LinkStateBase):
    """Static link-state routing: costs from physical link characteristics,
    tables computed once and never changed. Periodic advertisements are still
    flooded, but receivers learn nothing new from them."""

    name = "ospf"
    elab_s = 0.006

    def __init__(self, broadcast_interval_s: float = 30.0):
        super().__init__(broadcast_interval_s)

    def attach(self, net) -> None:
        super().attach(net)
        # every node knows the static map up front
        for u in net.topo.nodes:
            for v in net.topo.nodes:
                self.lsdb[u][v] = self._link_costs(v)
            self._recompute(u)

    def _link_costs(self, node: int) -> Dict[int, float]:
        return {
            l.dst: l.prop_delay_s + SAMPLE_PACKET_BITS / l.bandwidth_bps
            for l in self.net.topo.out_links[node]
        }

    def select_next_hop(self, node: int, packet: Packet) -> int:
        return self.tables[node][packet.dst]


class SpfRouting(_LinkStateBase):
    """Adaptive link-state routing with the discrete monitored-delay metric."""

    name = "spf"
    elab_s = 0.006

    def attach(self, net) -> None:
        _monitor_ports(net)
        super().attach(net)

    def _link_costs(self, node: int) -> Dict[int, float]:
        return {
            l.dst: float(self.net.port(node, l.dst).monitor.close_window())
            for l in self.net.topo.out_links[node]
        }


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
        self.net = net
        topo = net.topo
        self.cost_tables: Dict[int, CostTable] = {
            u: CostTable(u, topo.n_nodes, topo.neighbors(u)) for u in topo.nodes
        }
        self.fallback = _min_hop_next(topo)
        self.vector_bits = (DV_BASE_BYTES + DV_BYTES_PER_NODE * topo.n_nodes) * 8
        self._schedule_broadcast()

    def _broadcast(self, node: int) -> None:
        table = self.cost_tables[node]
        for link in self.net.topo.out_links[node]:
            table.set_link_cost(
                link.dst, float(self.net.port(node, link.dst).monitor.close_window())
            )
        vector = table.distance_vector()
        for link in self.net.topo.out_links[node]:
            self.net.send_routing(node, link.dst, self.vector_bits, ("dv", node, vector))

    def on_routing_packet(self, node: int, packet: Packet, from_node: int) -> None:
        tag, origin, vector = packet.payload
        self.cost_tables[node].merge(origin, vector)

    def select_next_hop(self, node: int, packet: Packet) -> int:
        _, nxt = self.cost_tables[node].best(packet.dst)
        if nxt is None:
            return self.fallback[node][packet.dst]
        return nxt


class QRouting(RoutingAlgorithm):
    """Online asynchronous distance-vector learner: per-hop feedback packets
    carry the downstream time-to-go estimate; forwarding is a deterministic
    arg min over the learned per-neighbor estimates, ranked by ``(value, id)``
    so ties go to the smallest id. Feedback goes back for
    every arriving data packet, even one the network then drops for TTL.
    Each feedback moves its estimate by the fixed ``learning_rate``."""

    name = "qr"
    elab_s = 0.003
    learning_rate = 0.5

    def attach(self, net) -> None:
        self.net = net
        topo = net.topo
        hops = {u: topo.hop_distances(u) for u in topo.nodes}
        # seed with hop-count x per-hop time so the initial arg min is sane
        self.q: Dict[int, Dict[int, Dict[int, float]]] = {}
        for u in topo.nodes:
            self.q[u] = {}
            for d in topo.nodes:
                if d == u:
                    continue
                entry = {}
                for link in topo.out_links[u]:
                    t_hop = SAMPLE_PACKET_BITS / link.bandwidth_bps + link.prop_delay_s
                    entry[link.dst] = t_hop * (1 + hops[link.dst][d])
                self.q[u][d] = entry
        # prop[u][v]: propagation delay of link u -> v, read on every data hop
        self.prop: Dict[int, Dict[int, float]] = {
            u: {l.dst: l.prop_delay_s for l in topo.out_links[u]} for u in topo.nodes
        }

    def select_next_hop(self, node: int, packet: Packet) -> int:
        # rows run in ascending neighbor order (attach builds them from the
        # sorted out_links), so the strict < keeps the smallest id on a tie
        nxt = None
        for n, q in self.q[node][packet.dst].items():
            if nxt is None or q < least:
                nxt, least = n, q
        return nxt

    def on_data_arrival(self, node: int, packet: Packet, from_node: int) -> None:
        """Send ``from_node`` this node's least time-to-go for the packet's
        destination (0 at the destination) plus the hop's queueing and
        transmission time."""
        dst = packet.dst
        to_go = 0.0 if node == dst else min(self.q[node][dst].values())
        net = self.net
        hop_time = net.sim.now - packet.node_arrival - self.prop[from_node][node]
        net.send_routing(node, from_node, FEEDBACK_BITS, ("qfb", dst, to_go + hop_time))

    def on_routing_packet(self, node: int, packet: Packet, from_node: int) -> None:
        payload = packet.payload  # ("qfb", dst, q_new)
        self._apply_feedback(node, payload[1], from_node, payload[2])

    def _apply_feedback(self, node: int, dst: int, via: int, q_new: float) -> None:
        entry = self.q[node][dst]
        entry[via] += self.learning_rate * (q_new - entry[via])


class PQRouting(QRouting):
    """Predictive extension of the feedback learner. Each Q entry
    ``q[u][d][n]`` has a record ``stats[u][d][n] = [best, rate, last]``: the
    lowest value the entry has reached, its recovery rate (<= 0) and the time
    of its last feedback. Forwarding picks the neighbor with the least
    predicted estimate ``max(best, q + rate * (now - last))``, the current
    value relaxed toward the best while the entry sits idle, ranked by
    ``(predicted, id)`` so ties go to the smallest id. The rate learns from
    improving feedback by the fixed ``recovery_learning`` and decays by the
    fixed ``recovery_decay`` otherwise.

    A rate the learner produces never becomes positive: it starts at 0.0,
    improving feedback adds a negative amount and any other feedback scales
    it by ``recovery_decay``. So the clamp to ``rate <= 0`` in
    ``_apply_feedback`` changes only a rate set from outside."""

    name = "pqr"
    elab_s = 0.003
    recovery_learning = 0.7
    recovery_decay = 0.95

    def attach(self, net) -> None:
        super().attach(net)
        self.stats: Dict[int, Dict[int, Dict[int, List[float]]]] = {
            u: {d: {n: [q0, 0.0, 0.0] for n, q0 in entry.items()} for d, entry in per_dst.items()}
            for u, per_dst in self.q.items()
        }

    def select_next_hop(self, node: int, packet: Packet) -> int:
        now = self.net.sim.now
        dst = packet.dst
        stats = self.stats[node][dst]
        nxt = None
        for n, q in self.q[node][dst].items():
            best, rate, last = stats[n]
            predicted = q + rate * (now - last)
            if predicted < best:
                predicted = best
            if nxt is None or predicted < least:
                nxt, least = n, predicted
        return nxt

    def _apply_feedback(self, node: int, dst: int, via: int, q_new: float) -> None:
        # qr's Q step, then the record; each `if` returns what min/max would,
        # ties and -0.0 included
        entry = self.q[node][dst]
        old = entry[via]
        q = old + self.learning_rate * (q_new - old)
        entry[via] = q
        record = self.stats[node][dst][via]
        now = self.net.sim.now
        if q < record[0]:
            record[0] = q
        rate = record[1]
        delta = q - old
        if delta < 0:
            # learn how fast this link's estimate recovers when load drains
            dt = now - record[2]
            if dt < 1e-9:
                dt = 1e-9
            rate += self.recovery_learning * (delta / dt)
        else:
            rate *= self.recovery_decay
        if rate > 0.0:
            rate = 0.0
        record[1] = rate
        record[2] = now


class DaemonRouting(RoutingAlgorithm):
    """Empirical performance bound: reads every queue in the network at each
    hop and routes the packet over a network-wide shortest path. Generates no
    routing packets.

    A link costs ``prop + bits/bw + (1-mix)*all_bits/bw + mix*s_bar/bw``, where
    ``all_bits`` is the bits waiting at its port, ``s_bar`` their smoothed
    value and ``mix`` the fixed ``queue_mix``. Each next-hop decision runs one
    Dijkstra from ``node`` that prices a link only when it relaxes it and stops
    as soon as ``packet.dst`` is settled; equal-cost ties go to the smallest
    first-hop id, as in ``routing.dijkstra``. After the search every port's
    ``s_bar`` advances one step, ``decay*s_bar + (1-decay)*all_bits``, with
    the fixed ``queue_mean_decay`` as ``decay``. That is once per decision, so
    the averaging window depends on the packet rate, not on time.
    """

    name = "daemon"
    elab_s = 0.0
    queue_mix = 0.4
    queue_mean_decay = 0.9

    def attach(self, net) -> None:
        self.net = net
        self.ports = list(net.ports.values())
        slot = {key: i for i, key in enumerate(net.ports)}
        # edges[u]: (dst, prop_delay_s, bandwidth_bps, port, index) per
        # out-link of u, by dst; index is the link's slot in ports and
        # smoothed_queue. Node ids are 1..n, so edges[0] stays empty.
        self.edges: List[Tuple] = [()] + [
            tuple(
                (l.dst, l.prop_delay_s, l.bandwidth_bps, net.ports[(u, l.dst)], slot[(u, l.dst)])
                for l in net.topo.out_links[u]
            )
            for u in net.topo.nodes
        ]
        self.smoothed_queue: List[float] = [0.0] * len(self.ports)

    def link_cost(self, link, packet_bits: float) -> float:
        """Cost of one link, as ``select_next_hop`` prices it inline."""
        port = self.net.port(link.src, link.dst)
        s_q = port.all_bits
        s_bar = self.smoothed_queue[self.ports.index(port)]
        return (
            link.prop_delay_s
            + packet_bits / link.bandwidth_bps
            + (1.0 - self.queue_mix) * s_q / link.bandwidth_bps
            + self.queue_mix * s_bar / link.bandwidth_bps
        )

    def select_next_hop(self, node: int, packet: Packet) -> int:
        bits = packet.size
        dst = packet.dst
        mix = self.queue_mix
        rest = 1.0 - mix
        edges = self.edges
        smoothed = self.smoothed_queue
        settled = [False] * len(edges)
        heap = [(0.0, 0, node)]  # (distance, first hop, node); 0 marks the source
        while heap:
            d, first, u = heappop(heap)
            if settled[u]:
                continue
            if u == dst:
                break
            settled[u] = True
            for v, prop, bw, port, i in edges[u]:
                cost = prop + bits / bw + rest * port.all_bits / bw + mix * smoothed[i] / bw
                if cost <= 0:
                    raise ValueError(f"nonpositive cost on link {u}->{v}")
                if not settled[v]:
                    heappush(heap, (d + cost, first or v, v))
        decay = self.queue_mean_decay
        keep = 1.0 - decay
        self.smoothed_queue = [
            decay * s + keep * port.all_bits for s, port in zip(smoothed, self.ports)
        ]
        return first
