"""The communication network model: store-and-forward nodes, two-priority
FIFO link queues over a shared buffer, packet lifecycle, sessions."""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Dict, Optional, Tuple

from antsim.engine import Simulator
from antsim.metrics import MetricsCollector
from antsim.routing import LinkCostEstimator, RoutingAlgorithm
from antsim.topology import Link, Topology

DATA = "data"
FORWARD_ANT = "forward_ant"
BACKWARD_ANT = "backward_ant"
ROUTING_INFO = "routing_info"


class Packet:
    __slots__ = (
        "kind",
        "size",
        "src",
        "dst",
        "created_at",
        "payload",
        "prev_node",
        "node_arrival",
        "port_enqueue",
    )

    def __init__(self, kind, size, src, dst, created_at, payload=None):
        if size <= 0:
            raise ValueError("packet size must be positive")
        self.kind = kind
        self.size = size
        self.src = src
        self.dst = dst
        self.created_at = created_at
        self.payload = payload
        self.prev_node = None  # node this packet last arrived from
        self.node_arrival = created_at  # arrival time at the current node
        self.port_enqueue = created_at


class Port:
    """State of one outgoing link, ``src`` -> ``dst``: the link's bandwidth
    and propagation delay, two FIFO queues and the transmitter.

    ``monitor`` belongs to the routing algorithms that price links by their
    measured delay (spf and bf): their ``attach`` gives each port a
    ``LinkCostEstimator``, which every data transmission then feeds. Under
    the other algorithms it stays ``None`` and nothing is recorded.
    """

    __slots__ = (
        "src",
        "dst",
        "bandwidth_bps",
        "prop_delay_s",
        "hi",
        "lo",
        "busy",
        "lo_bits",
        "all_bits",
        "monitor",
    )

    def __init__(self, link: Link):
        self.src = link.src
        self.dst = link.dst
        self.bandwidth_bps = link.bandwidth_bps
        self.prop_delay_s = link.prop_delay_s
        self.hi: deque = deque()
        self.lo: deque = deque()
        self.busy = False
        self.lo_bits = 0.0  # low-priority bits waiting (ant heuristic input)
        self.all_bits = 0.0  # all bits waiting (daemon queue reads)
        self.monitor: Optional[LinkCostEstimator] = None


class Network:
    """Event-driven network owned by a single simulator instance."""

    buffer_bits = 1e9  # shared buffer of each node
    ttl_s = 15.0  # maximum packet age, for every packet kind
    node_service_s = 0.0003  # per-hop processing delay of a data packet

    def __init__(self, sim: Simulator, topo: Topology, metrics: MetricsCollector):
        self.sim = sim
        self.topo = topo
        self.metrics = metrics
        self.buffer_used: Dict[int, float] = {u: 0.0 for u in topo.nodes}
        self.ports: Dict[Tuple[int, int], Port] = {
            (l.src, l.dst): Port(l) for l in topo.links
        }
        self.total_bw_bps = sum(l.bandwidth_bps for l in topo.links)
        self.algorithm: Optional[RoutingAlgorithm] = None

    def set_algorithm(self, algo: RoutingAlgorithm) -> None:
        self.algorithm = algo
        algo.attach(self)

    def port(self, src: int, dst: int) -> Port:
        return self.ports[(src, dst)]

    # -- packet entry points ------------------------------------------------

    def inject_data(self, src: int, dst: int, size: float) -> None:
        now = self.sim.now
        packet = Packet(DATA, size, src, dst, now)
        self.metrics.on_generated(now, DATA, size)
        self.algorithm.on_local_data(src, dst, size)
        self.sim.schedule(now + self.node_service_s, self.dispatch, src, packet)

    def send_ant(self, node: int, next_hop: int, packet: Packet) -> None:
        high = packet.kind == BACKWARD_ANT
        self.enqueue_for_link(node, self.ports[(node, next_hop)], packet, high)

    def send_routing(self, node: int, next_hop: int, size: float, payload) -> None:
        now = self.sim.now
        packet = Packet(ROUTING_INFO, size, node, next_hop, now, payload)
        self.metrics.on_generated(now, ROUTING_INFO, size)
        self.enqueue_for_link(node, self.ports[(node, next_hop)], packet, True)

    # -- queueing and transmission ------------------------------------------

    def enqueue_for_link(self, node: int, port: Port, packet: Packet, high: bool) -> None:
        size = packet.size
        used = self.buffer_used[node] + size
        if used > self.buffer_bits:
            self.metrics.on_dropped("buffer", packet.kind)
            return
        self.buffer_used[node] = used
        now = self.sim.now
        packet.port_enqueue = now
        if high:
            port.hi.append(packet)
        else:
            port.lo.append(packet)
            port.lo_bits += size
        port.all_bits += size
        if not port.busy:
            self._start_tx(port, now)

    def _start_tx(self, port: Port, now: float) -> None:
        while True:
            if port.hi:
                packet = port.hi.popleft()
                size = packet.size
            elif port.lo:
                packet = port.lo.popleft()
                size = packet.size
                port.lo_bits -= size
            else:
                return
            port.all_bits -= size
            if now - packet.created_at > self.ttl_s:
                # expired while queued: discard instead of wasting the link
                self.buffer_used[port.src] -= size
                self.metrics.on_dropped("ttl", packet.kind)
                continue
            break
        port.busy = True
        tx_time = size / port.bandwidth_bps
        if packet.kind != DATA:
            self.metrics.on_routing_tx(now, size)
        self.sim.schedule(now + tx_time, self._tx_done, port, packet, tx_time)

    def _tx_done(self, port: Port, packet: Packet, tx_time: float) -> None:
        now = self.sim.now
        port.busy = False
        self.buffer_used[port.src] -= packet.size  # last bit has left the node
        if port.monitor is not None and packet.kind == DATA:
            # only data traffic feeds the utilization monitor; an abandoned
            # link keeps its last cost instead of decaying on idle chatter
            port.monitor.record(now - packet.port_enqueue, tx_time)
        self.sim.schedule(now + port.prop_delay_s, self._arrive, port, packet)
        if port.hi or port.lo:
            self._start_tx(port, now)

    # -- reception -----------------------------------------------------------

    def _arrive(self, port: Port, packet: Packet) -> None:
        now = self.sim.now
        node = port.dst
        from_node = port.src
        packet.prev_node = from_node
        kind = packet.kind
        if kind == DATA:
            # hook runs while node_arrival still refers to the previous node,
            # so per-hop residence time is measurable (feedback-based routing)
            self.algorithm.on_data_arrival(node, packet, from_node)
            packet.node_arrival = now
            if now - packet.created_at > self.ttl_s:
                self.metrics.on_dropped("ttl", DATA)
            elif node == packet.dst:
                self.metrics.on_delivered(now, DATA, packet.size, now - packet.created_at)
            else:
                self.sim.schedule(now + self.node_service_s, self.dispatch, node, packet)
            return
        packet.node_arrival = now
        algo = self.algorithm
        if kind == ROUTING_INFO:
            self.metrics.on_delivered(now, ROUTING_INFO, packet.size, now - packet.created_at)
            self.sim.schedule(now + algo.elab_s, algo.on_routing_packet, node, packet, from_node)
        elif now - packet.created_at > self.ttl_s:
            self.metrics.on_dropped("ttl", kind)
        else:
            self.sim.schedule(now + algo.elab_s, algo.on_ant, node, packet, from_node)

    def dispatch(self, node: int, packet: Packet) -> None:
        """Route a data packet out of ``node`` after its service delay."""
        if self.sim.now - packet.created_at > self.ttl_s:
            self.metrics.on_dropped("ttl", packet.kind)
            return
        nxt = self.algorithm.select_next_hop(node, packet)
        self.enqueue_for_link(node, self.ports[(node, nxt)], packet, False)


class Session:
    """One traffic session: a stream of data packets from src to dst.

    The stream type picks the size and interval draws once, at construction:
    CBR sends ``mean_packet_bits`` every ``mpia_s``, and GVBR draws both from
    exponentials with those means."""

    def __init__(
        self,
        net: Network,
        src: int,
        dst: int,
        stream: str,  # "CBR" | "GVBR"
        mpia_s: float,
        mean_packet_bits: float,
        packets_remaining: Optional[int],  # None = until end_time
        end_time: float,
        size_rng,
        interval_rng,
    ):
        self.net = net
        self.src = src
        self.dst = dst
        self.packets_remaining = packets_remaining
        self.end_time = end_time
        if stream == "CBR":
            self._interval = lambda: mpia_s
            self._size = lambda: mean_packet_bits
        else:
            self._interval = partial(interval_rng.expovariate, 1.0 / mpia_s)
            self._size = partial(size_rng.expovariate, 1.0 / mean_packet_bits)

    def start(self) -> None:
        self.net.sim.schedule(self.net.sim.now + self._interval(), self._generate)

    def _generate(self) -> None:
        net = self.net
        now = net.sim.now
        if now > self.end_time:
            return
        if self.packets_remaining is not None:
            if self.packets_remaining <= 0:
                return
            self.packets_remaining -= 1
        net.inject_data(self.src, self.dst, self._size())
        net.sim.schedule(now + self._interval(), self._generate)
