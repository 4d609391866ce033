"""Workload generation: session arrival processes (Poisson / Fixed /
temporary hot spots), spatial distributions and per-session bit streams."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple

from antsim.checks import check_number
from antsim.network import Network, Session
from antsim.topology import Topology

DEFAULT_MEAN_PACKET_BITS = 4096.0
DEFAULT_PACKETS_PER_SESSION = 50


def _check_node_list(key: str, ids) -> None:
    """Reject ``ids`` unless it is a list of distinct integer node ids."""
    if not isinstance(ids, (list, tuple)):
        raise ValueError(f"{key}: {ids!r} must be a list of node ids")
    for u in ids:
        check_number(f"{key} node id", u, integer=True)
    if len(set(ids)) < len(ids):
        raise ValueError(f"{key}: {ids!r} names a node twice")


@dataclass
class TrafficSpec:
    temporal: str = "P"  # P | F | TMPHS (TMPHS = P base + timed hot-spot overlay)
    spatial: str = "U"  # U | R, optionally with an HS overlay via hs_count
    stream: str = "GVBR"  # CBR | GVBR
    msia_s: float = 2.4
    mpia_s: float = 0.005
    mean_packet_bits: float = DEFAULT_MEAN_PACKET_BITS
    packets_per_session: int = DEFAULT_PACKETS_PER_SESSION
    hs_count: int = 0
    mpia_hs_s: float = 0.04
    hot_spot_on_s: Optional[float] = None  # TMPHS only: offsets from traffic start
    hot_spot_off_s: Optional[float] = None
    fixed_pairs: Optional[List[Tuple[int, int]]] = None  # overrides F one-to-all
    hot_spot_nodes: Optional[List[int]] = None  # names the hs_count hot spots

    def __post_init__(self):
        for key in ("msia_s", "mpia_s", "mpia_hs_s", "mean_packet_bits"):
            check_number(key, getattr(self, key), 0)
        models = {"temporal": ("P", "F", "TMPHS"), "spatial": ("U", "R"), "stream": ("CBR", "GVBR")}
        for key, allowed in models.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(f"{key}: unknown value {value!r}")
        check_number("packets_per_session", self.packets_per_session, 0, integer=True)
        check_number("hs_count", self.hs_count, 0, strict=False, integer=True)
        for key in ("hot_spot_on_s", "hot_spot_off_s"):
            if getattr(self, key) is not None:
                if self.temporal != "TMPHS":
                    raise ValueError(f"{key}: only temporal TMPHS reads it, not {self.temporal!r}")
                check_number(key, getattr(self, key), 0, strict=False)
        if self.temporal == "TMPHS" and None in (self.hot_spot_on_s, self.hot_spot_off_s):
            raise ValueError("TMPHS requires hot_spot_on_s and hot_spot_off_s")
        if self.temporal == "TMPHS" and self.hs_count == 0:
            raise ValueError("TMPHS requires a hot spot: hs_count > 0")
        if self.hot_spot_nodes is not None:
            _check_node_list("hot_spot_nodes", self.hot_spot_nodes)
            if not self.hot_spot_nodes:
                raise ValueError("hot_spot_nodes: must name at least one node")
            if len(self.hot_spot_nodes) != self.hs_count:
                raise ValueError(f"hot_spot_nodes: {self.hot_spot_nodes!r} must hold exactly "
                                 f"hs_count = {self.hs_count} ids")
        if self.fixed_pairs is not None:
            if not isinstance(self.fixed_pairs, (list, tuple)):
                raise ValueError(f"fixed_pairs: {self.fixed_pairs!r} must be a list of pairs")
            seen = set()
            for pair in self.fixed_pairs:
                _check_node_list("fixed_pairs", pair)
                if len(pair) != 2:
                    raise ValueError(f"fixed_pairs: {pair!r} must be a pair of node ids")
                if tuple(pair) in seen:  # a second session would double the pair's load
                    raise ValueError(f"fixed_pairs: {pair!r} is named twice")
                seen.add(tuple(pair))
            if not self.fixed_pairs:
                raise ValueError("fixed_pairs: must name at least one pair")
            if self.temporal != "F":
                raise ValueError(f"fixed_pairs: only temporal F reads it, not {self.temporal!r}")

    def check_topology(self, topo: Topology) -> None:
        """Reject settings that name nodes the topology does not have."""
        if self.hs_count >= topo.n_nodes:
            raise ValueError(f"hs_count must be smaller than the node count {topo.n_nodes}")
        nodes = set(topo.nodes)
        for u in self.hot_spot_nodes or ():
            if u not in nodes:
                raise ValueError(f"hot_spot_nodes: no node with id {u!r}")
        for pair in self.fixed_pairs or ():
            if not nodes.issuperset(pair):
                raise ValueError(f"fixed_pairs: {pair!r} names a node the topology lacks")


class TrafficSource:
    """Drives session creation on a network between t_start and t_end."""

    def __init__(self, net: Network, spec: TrafficSpec, t_start: float, t_end: float):
        self.net = net
        self.spec = spec
        self.t_start = t_start
        self.t_end = t_end
        sim = net.sim
        self.arrival_rng = sim.stream("session_arrivals")
        self.endpoint_rng = sim.stream("session_endpoints")
        self.size_rng = sim.stream("packet_sizes")
        self.interval_rng = sim.stream("packet_intervals")
        self._size = self._per_packet(self.size_rng, spec.mean_packet_bits)
        nodes = net.topo.nodes
        # Per-node session inter-arrival means: identical for U, randomized
        # multipliers in [0.5, 1.5] for R, drawn once per trial.
        if spec.spatial == "R":
            self.node_msia = {
                u: spec.msia_s * self.arrival_rng.uniform(0.5, 1.5) for u in nodes
            }
        else:
            self.node_msia = {u: spec.msia_s for u in nodes}
        if spec.hot_spot_nodes is not None:
            self.hot_spots = list(spec.hot_spot_nodes)
        else:
            self.hot_spots = sorted(self.endpoint_rng.sample(nodes, spec.hs_count))

    def start(self) -> None:
        sim = self.net.sim
        spec = self.spec
        nodes = self.net.topo.nodes
        if spec.temporal == "F":
            pairs = spec.fixed_pairs
            if pairs is None:
                pairs = [(s, d) for s in nodes for d in nodes if s != d]
            sim.schedule(self.t_start, self._open_persistent, pairs, spec.mpia_s, self.t_end)
        else:  # P base, with or without the TMPHS overlay
            for node in nodes:
                self._schedule_next_arrival(node)
        # Each of the hs_count hot spots sends to every other node from `on` to
        # `off`, cut at t_end: the TMPHS offsets from t_start, otherwise the
        # whole span (UP-HS); no overlay when off <= on.
        if spec.temporal == "TMPHS":
            on, off = self.t_start + spec.hot_spot_on_s, self.t_start + spec.hot_spot_off_s
        else:
            on, off = self.t_start, self.t_end
        if spec.hs_count > 0 and off > on:
            pairs = [(hs, d) for hs in self.hot_spots for d in nodes if d != hs]
            sim.schedule(on, self._open_persistent, pairs, spec.mpia_hs_s, min(self.t_end, off))

    # -- Poisson sessions ----------------------------------------------------

    def _schedule_next_arrival(self, node: int) -> None:
        gap = self.arrival_rng.expovariate(1.0 / self.node_msia[node])
        t = max(self.net.sim.now, self.t_start) + gap
        if t <= self.t_end:
            self.net.sim.schedule(t, self._session_arrival, node)

    def _session_arrival(self, node: int) -> None:
        src, dst = self.pick_session_endpoints(node)
        spec = self.spec
        self._open_session(src, dst, spec.mpia_s, spec.packets_per_session, self.t_end)
        self._schedule_next_arrival(node)

    def pick_session_endpoints(self, node: int) -> Tuple[int, int]:
        others = [v for v in self.net.topo.nodes if v != node]
        return node, self.endpoint_rng.choice(others)

    # -- session plumbing ----------------------------------------------------

    def _per_packet(self, rng, mean: float) -> Callable[[], float]:
        """A draw made once per packet (its bits, or the gap to the next
        packet) with the given mean: CBR sends the mean itself, GVBR draws
        it from an exponential."""
        if self.spec.stream == "CBR":
            return lambda: mean
        return partial(rng.expovariate, 1.0 / mean)

    def _open_persistent(self, pairs, mpia_s: float, end_time: float) -> None:
        """Open one session per ``(src, dst)`` pair that sends until ``end_time``."""
        for src, dst in pairs:
            self._open_session(src, dst, mpia_s, math.inf, end_time)

    def _open_session(
        self, src: int, dst: int, mpia_s: float, packets: float, end_time: float
    ) -> None:
        interval = self._per_packet(self.interval_rng, mpia_s)
        Session(self.net, src, dst, interval, self._size, packets, end_time).start()
