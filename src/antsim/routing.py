"""Shared routing infrastructure: algorithm interface, shortest-path kernels,
distance-vector tables and the adaptive discrete link-cost estimator."""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

INFINITY = math.inf


class RoutingAlgorithm:
    """Interface every routing protocol implements.

    The network model calls back into the active algorithm for next-hop
    selection and hands it every routing-class packet after the per-protocol
    elaboration delay.
    """

    name = "base"
    elab_s = 0.0  # per-node elaboration delay for this protocol's packets

    def attach(self, net) -> None:
        self.net = net

    def select_next_hop(self, node: int, packet) -> int:
        """Id of the neighbor of ``node`` to send ``packet`` to; the network
        maps it to that link's port (``KeyError`` for a non-neighbor)."""
        raise NotImplementedError

    def on_routing_packet(self, node: int, packet, from_node: int) -> None:
        pass

    def on_ant(self, node: int, packet, from_node: int) -> None:
        pass

    def on_data_arrival(self, node: int, packet, from_node: int) -> None:
        pass

    def on_local_data(self, node: int, dst: int, bits: float) -> None:
        pass


def dijkstra(
    adjacency: Dict[int, List[Tuple[int, float]]],
    src: int,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Single-source shortest paths over ``{node: [(neighbor, cost), ...]}``.

    Returns the distance of every node reached from ``src`` and the first-hop
    neighbor of every reached node except ``src``; an unreachable node is in
    neither dict. Ties between equal-cost paths resolve to the smallest
    first-hop neighbor id; the lexicographic (distance, first_hop) heap order
    makes that exact. A cost may be 0; a negative or NaN cost is a
    ``ValueError``.
    """
    dist: Dict[int, float] = {}
    hop: Dict[int, int] = {}
    # (distance, first hop, node); node ids are >= 1, so 0 marks the source
    heap: List[Tuple[float, int, int]] = [(0.0, 0, src)]
    while heap:
        d, first, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        if first:
            hop[u] = first
        for v, cost in adjacency.get(u, ()):
            if not cost >= 0:
                raise ValueError(f"negative or NaN cost on link {u}->{v}")
            if v not in dist:
                heapq.heappush(heap, (d + cost, first or v, v))
    return dist, hop


class CostTable:
    """Distance-vector state for one node: neighbor vectors plus link costs.

    ``best`` caches its ``(distance, next hop)`` per destination. ``merge``
    clears the whole cache, and so does ``set_link_cost``, the one writer of
    ``link_cost``, when a cost actually changes.
    """

    def __init__(self, node: int, n_nodes: int, neighbors: List[int]):
        self.node = node
        self.n_nodes = n_nodes
        self.neighbors = sorted(neighbors)
        self.link_cost: Dict[int, float] = {j: 1.0 for j in self.neighbors}
        self.vectors: Dict[int, Dict[int, float]] = {}  # neighbor -> their distances
        self._cache: Dict[int, Tuple[float, Optional[int]]] = {}

    def set_link_cost(self, neighbor: int, cost: float) -> None:
        if self.link_cost[neighbor] != cost:
            self.link_cost[neighbor] = cost
            self._cache.clear()

    def merge(self, neighbor: int, vector: Dict[int, float]) -> None:
        """Store ``vector`` as ``neighbor``'s distances; the table only reads it."""
        self.vectors[neighbor] = vector
        self._cache.clear()

    def best(self, dst: int) -> Tuple[float, Optional[int]]:
        """(distance, next hop) = min over neighbors of link cost + their estimate."""
        if dst == self.node:
            return 0.0, None
        cached = self._cache.get(dst)
        if cached is not None:
            return cached
        best_d, best_j = INFINITY, None
        for j in self.neighbors:
            d = self.link_cost[j] + self.vectors.get(j, {}).get(dst, INFINITY)
            if d < best_d:
                best_d, best_j = d, j
        cached = self._cache[dst] = best_d, best_j
        return cached

    def distance_vector(self) -> Dict[int, float]:
        return {d: self.best(d)[0] for d in range(1, self.n_nodes + 1)}


class LinkCostEstimator:
    """Discrete 1..20 link cost from monitored per-window delay statistics.

    Per transmitted packet the monitor records the total delay d (queueing +
    transmission at this node) and the transmission time t. At each window
    boundary an M/M/1-style utilization measure 1 - t_mean/d_mean is combined
    as an equal-weight sum of the window arithmetic mean and an exponential
    mean with decay 0.9, rescaled with slope 20, and clamped so consecutive
    discrete costs differ by at most 1.
    """

    DECAY = 0.9
    WINDOW_WEIGHT = 0.5
    SLOPE = 20

    def __init__(self):
        self.sum_d = 0.0
        self.sum_t = 0.0
        self.count = 0
        self.exp_mean: Optional[float] = None
        self.cost = 1

    def record(self, delay: float, tx_time: float) -> None:
        self.sum_d += delay
        self.sum_t += tx_time
        self.count += 1

    def close_window(self) -> int:
        """Advance one window and return the new discrete cost."""
        if self.count == 0:
            return self.cost  # idle window keeps the previous cost
        u = 1.0 - self.sum_t / self.sum_d if self.sum_d > 0 else 0.0
        u = min(max(u, 0.0), 1.0)
        if self.exp_mean is None:
            self.exp_mean = u
        else:
            self.exp_mean = self.DECAY * self.exp_mean + (1.0 - self.DECAY) * u
        raw = self.WINDOW_WEIGHT * u + (1.0 - self.WINDOW_WEIGHT) * self.exp_mean
        target = min(max(round(1 + self.SLOPE * raw), 1), 20)
        step = min(1, max(-1, target - self.cost))
        self.cost += step
        self.sum_d = self.sum_t = 0.0
        self.count = 0
        return self.cost
