"""The communication network model: store-and-forward nodes, two-priority
FIFO link queues over a shared buffer, packet lifecycle, sessions."""

from __future__ import annotations

from collections import deque
from functools import reduce
from operator import add
from typing import Callable, Dict, List, Optional, Tuple

from antsim.engine import Simulator
from antsim.metrics import MetricsCollector
from antsim.routing import INFINITY, LinkCostEstimator, RoutingAlgorithm
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
        if not 0 < size < INFINITY:  # false for NaN too
            raise ValueError("packet size must be positive and finite")
        self.kind = kind
        self.size = size
        self.src = src
        self.dst = dst
        self.created_at = created_at
        self.payload = payload
        self.prev_node = None  # for data dispatched at another node: the node it came from
        self.node_arrival = created_at  # Q-routing's hop clock, stamped by on_data_arrival
        self.port_enqueue = created_at


class Port:
    """State of one outgoing link, ``src`` -> ``dst``: the link's bandwidth
    and propagation delay, two FIFO queues and the transmitter.

    ``monitor`` belongs to the routing algorithms that price links by their
    measured delay (spf and bf): their ``attach`` gives each port a
    ``LinkCostEstimator``, which every data transmission then feeds. Under
    the other algorithms it stays ``None`` and nothing is recorded.

    ``lo_bits``, the bits waiting in ``lo``, feeds AntNet's queue heuristic
    and the daemon's reads; the daemon sends no ants or routing packets, so
    under it ``hi`` stays empty. ``mean`` belongs to the daemon the same way:
    its ``attach`` gives each port a ``QueueMean``, which the network then
    advances just before ``lo_bits`` first changes at an instant the mean
    has not reached (``mean.at``). Under the other algorithms it stays
    ``None``.
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
        "monitor",
        "mean",
    )

    def __init__(self, link: Link):
        self.src = link.src
        self.dst = link.dst
        self.bandwidth_bps = link.bandwidth_bps
        self.prop_delay_s = link.prop_delay_s
        self.hi: deque = deque()
        self.lo: deque = deque()
        self.busy = False
        self.lo_bits = 0.0  # bits waiting in lo (ant heuristic, daemon reads and mean)
        self.monitor: Optional[LinkCostEstimator] = None
        self.mean = None  # the daemon's QueueMean


class Network:
    """Event-driven network owned by a single simulator instance.

    A data packet's visit to a node on its way is one event when its arrival
    has no observable effect: under an algorithm that does not override
    ``on_data_arrival`` (decided in ``set_algorithm``), for a packet not at
    its destination and within its TTL on arrival. When its transmission
    ends, ``_tx_done`` sets ``prev_node`` as the arrival would have, and
    schedules ``dispatch`` at the arrival time plus the service delay.

    A routing packet's visit is one event too, ``on_routing_packet`` at the
    end of its elaboration, its arrival time plus ``elab_s``, since nothing
    observable happens at its arrival. ``_tx_done`` reports the delivery to
    the collector when the transmission ends, with the arrival time; which
    of those deliveries a trial counts is ``MetricsCollector``'s rule.

    Every other arrival is a ``_arrive`` event at the arrival time, and a
    second event after the service or elaboration delay, because something
    happens at arrival: a data delivery, a TTL drop (counted even when the
    run ends before the delay is over) or qr's and pqr's
    ``on_data_arrival`` feedback. Ants are not folded either. A folded
    event takes its place among equal-time events when its transmission
    ends, not when it arrives. Ants are launched on a shared clock and have
    fixed sizes, so two of them can arrive a rounding step apart and finish
    their elaboration at the same time; folded, they would reach ``on_ant``
    in the order their transmissions ended, not the order they arrived,
    which changes AntNet's draws.

    The network sets ``prev_node`` only on data it dispatches past its
    source, for AntNet; qr and pqr stamp their own hop clock.

    ``out_ports[u]`` lists u's ports in ascending neighbour-id order, the
    order of ``topo.out_links[u]`` and ``topo.neighbors(u)``.
    """

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
        self.out_ports: Dict[int, List[Port]] = {
            u: [self.ports[(u, l.dst)] for l in topo.out_links[u]] for u in topo.nodes
        }
        self.total_bw_bps = reduce(add, (l.bandwidth_bps for l in topo.links), 0.0)
        self.algorithm: Optional[RoutingAlgorithm] = None
        self._local_data_hook = False  # call on_local_data per injected packet
        self._arrival_hook = False  # call on_data_arrival per data arrival

    def set_algorithm(self, algo: RoutingAlgorithm) -> None:
        self.algorithm = algo
        # a hook left as the base no-op is never called
        cls = type(algo)
        self._local_data_hook = cls.on_local_data is not RoutingAlgorithm.on_local_data
        self._arrival_hook = cls.on_data_arrival is not RoutingAlgorithm.on_data_arrival
        algo.attach(self)

    # -- packet entry points ------------------------------------------------

    def inject_data(self, src: int, dst: int, size: float) -> None:
        now = self.sim.now
        packet = Packet(DATA, size, src, dst, now)
        self.metrics.on_generated(now, DATA, size)
        if self._local_data_hook:
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
            mean = port.mean
            if mean is not None and mean.at != now:
                mean.advance(now, port.lo_bits)
            port.lo_bits += size
        if not port.busy:
            self._start_tx(port, now)

    def _start_tx(self, port: Port, now: float) -> None:
        while True:
            if port.hi:
                packet = port.hi.popleft()
            elif port.lo:
                packet = port.lo.popleft()
                port.lo_bits -= packet.size
            else:
                return
            size = packet.size
            if now - packet.created_at > self.ttl_s:
                # expired while queued: discard instead of wasting the link
                self.buffer_used[port.src] -= size
                self.metrics.on_dropped("ttl", packet.kind)
                continue
            break
        port.busy = True
        if packet.kind != DATA:
            self.metrics.on_routing_tx(now, size)
        self.sim.schedule(now + size / port.bandwidth_bps, self._tx_done, port, packet)

    def _tx_done(self, port: Port, packet: Packet) -> None:
        now = self.sim.now
        port.busy = False
        self.buffer_used[port.src] -= packet.size  # last bit has left the node
        if port.monitor is not None and packet.kind == DATA:
            # only data traffic feeds the utilization monitor; an abandoned
            # link keeps its last cost instead of decaying on idle chatter
            port.monitor.record(now - packet.port_enqueue, packet.size / port.bandwidth_bps)
        t_arr = now + port.prop_delay_s
        if (
            not self._arrival_hook
            and packet.kind == DATA
            and port.dst != packet.dst
            and t_arr - packet.created_at <= self.ttl_s
        ):
            # nothing reads prev_node while the packet is on the link
            packet.prev_node = port.src
            self.sim.schedule(t_arr + self.node_service_s, self.dispatch, port.dst, packet)
        elif packet.kind == ROUTING_INFO:
            # the collector keeps the delay of data deliveries only
            self.metrics.on_delivered(t_arr, ROUTING_INFO, packet.size, 0.0)
            algo = self.algorithm
            self.sim.schedule(
                t_arr + algo.elab_s, algo.on_routing_packet, port.dst, packet, port.src
            )
        else:
            self.sim.schedule(t_arr, self._arrive, port, packet)
        if port.hi or port.lo:
            mean = port.mean
            if mean is not None and mean.at != now:
                mean.advance(now, port.lo_bits)
            self._start_tx(port, now)

    # -- reception -----------------------------------------------------------

    def _arrive(self, port: Port, packet: Packet) -> None:
        now = self.sim.now
        node = port.dst
        if now - packet.created_at > self.ttl_s:
            # data and ants past their TTL are dropped before the algorithm sees
            # them, so no feedback goes back for an expired data packet
            self.metrics.on_dropped("ttl", packet.kind)
            return
        algo = self.algorithm
        if packet.kind != DATA:
            self.sim.schedule(now + algo.elab_s, algo.on_ant, node, packet, port.src)
            return
        if self._arrival_hook:
            algo.on_data_arrival(node, packet, port.src)
        if node == packet.dst:
            self.metrics.on_delivered(now, DATA, packet.size, now - packet.created_at)
        else:
            packet.prev_node = port.src
            self.sim.schedule(now + self.node_service_s, self.dispatch, node, packet)

    def dispatch(self, node: int, packet: Packet) -> None:
        """Route a data packet out of ``node`` after its service delay."""
        if self.sim.now - packet.created_at > self.ttl_s:
            self.metrics.on_dropped("ttl", packet.kind)
            return
        nxt = self.algorithm.select_next_hop(node, packet)
        self.enqueue_for_link(node, self.ports[(node, nxt)], packet, False)


class Session:
    """One traffic session: a stream of data packets from src to dst.

    ``interval`` and ``size`` are called once per packet for the gap to the
    next packet and the packet's bits; ``traffic.TrafficSource`` picks them
    from the stream type. The session sends until it has sent
    ``packets_remaining`` packets or passed ``end_time``; a persistent
    session passes ``math.inf`` packets, so only ``end_time`` stops it."""

    def __init__(
        self,
        net: Network,
        src: int,
        dst: int,
        interval: Callable[[], float],
        size: Callable[[], float],
        packets_remaining: float,
        end_time: float,
    ):
        self.net = net
        self.src = src
        self.dst = dst
        self._interval = interval
        self._size = size
        self.packets_remaining = packets_remaining
        self.end_time = end_time

    def start(self) -> None:
        self.net.sim.schedule(self.net.sim.now + self._interval(), self._generate)

    def _generate(self) -> None:
        net = self.net
        now = net.sim.now
        if now > self.end_time or self.packets_remaining <= 0:
            return
        self.packets_remaining -= 1
        net.inject_data(self.src, self.dst, self._size())
        net.sim.schedule(now + self._interval(), self._generate)
