"""Ant-based adaptive routing: forward/backward agent lifecycle, per-node
probabilistic routing tables, local trip-time models, reinforcement updates
and probabilistic data forwarding."""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Dict, List, Optional, Tuple

from antsim.checks import check_number
from antsim.network import BACKWARD_ANT, FORWARD_ANT, Packet
from antsim.routing import RoutingAlgorithm

ANT_BASE_BYTES = 24
ANT_BYTES_PER_HOP = 8


def ant_bits(hops: int) -> int:
    """Size in bits of an ant whose trail holds ``hops`` hops."""
    return (ANT_BASE_BYTES + ANT_BYTES_PER_HOP * hops) * 8


# The paper's fixed AntNet constants.
HEURISTIC_WEIGHT = 0.3  # alpha: queue-state correction weight, sane in 0.2-0.5
MODEL_DECAY = 0.005  # eta of the exponential trip-time model
WINDOW_MAX = round(5.0 * 0.3 / MODEL_DECAY)  # short-term window: c = 0.3 of 5/eta
CONFIDENCE_Z = 1.70  # by z = 1/sqrt(1-gamma), gamma = 1 - 1/1.70**2 ~ 0.65 (0.95 needs z 4.47)
REWARD_W1 = 0.7
REWARD_W2 = 0.3
SQUASH_GAIN = 10.0
DATA_POWER_EXPONENT = 1.2


class TripModel:
    """Per-destination trip-time statistics: exponential mean/variance plus a
    short observation window tracking the best trip time."""

    __slots__ = ("mu", "var", "w_count", "w_best")

    def __init__(self, first_sample: float):
        self.mu = first_sample
        self.var = 0.0
        self.w_count = 1
        self.w_best = first_sample

    def update(self, trip: float, eta: float, window_max: int) -> None:
        self.mu += eta * (trip - self.mu)
        # variance update uses the post-update mean
        self.var += eta * ((trip - self.mu) ** 2 - self.var)
        if self.w_count >= window_max:
            self.w_count = 1
            self.w_best = trip  # window wrap: best resets to the next sample
        else:
            self.w_count += 1
            if trip < self.w_best:
                self.w_best = trip

    def upper_bound(self) -> float:
        """Upper end of the confidence interval around the mean trip time."""
        return self.mu + CONFIDENCE_Z * math.sqrt(self.var) / math.sqrt(self.w_count)


def score_trip(trip: float, model: TripModel, n_neighbors: int) -> float:
    """Reinforcement in (0, 1] for an observed trip time, squashed so that
    good (small) times are sharply rewarded and poor ones saturate low."""
    if trip <= 0:
        raise ValueError("trip time must be positive")
    i_inf = model.w_best
    width = model.upper_bound() - i_inf
    if trip <= i_inf:
        second = 1.0  # at least as good as the window best
    elif width > 0:
        second = width / (width + (trip - i_inf))
    else:
        second = 0.0
    raw = REWARD_W1 * (model.w_best / trip) + REWARD_W2 * second
    raw = min(max(raw, 1e-12), 1.0)
    return _squash(raw, n_neighbors) / _squash(1.0, n_neighbors)


def _squash(x: float, n_neighbors: int) -> float:
    exponent = min(SQUASH_GAIN / (x * n_neighbors), 700.0)
    return 1.0 / (1.0 + math.exp(exponent))


def reinforce_row(row: List[float], chosen_idx: int, r: float) -> None:
    """Push probability toward the chosen neighbor; the compensating decay of
    the other entries keeps the row sum at exactly 1 in real arithmetic."""
    for i in range(len(row)):
        if i == chosen_idx:
            row[i] += r * (1.0 - row[i])
        else:
            row[i] -= r * row[i]


def queue_heuristic(queue_bits: List[float]) -> List[float]:
    """Per-neighbor queue correction; entries sum to n-1 (uniform when idle)."""
    n = len(queue_bits)
    total = reduce(add, queue_bits, 0.0)
    if total <= 0:
        return [(n - 1) / n] * n
    return [1.0 - q / total for q in queue_bits]


def blend_probabilities(row: List[float], heuristic: List[float], alpha: float) -> List[float]:
    n = len(row)
    denom = 1.0 + alpha * (n - 1)
    return [(row[i] + alpha * heuristic[i]) / denom for i in range(n)]


def _draw(rng, items, bounds, total):
    """The first item whose running weight sum reaches ``random() * total``,
    found by bisecting ``bounds``, the running maximum of those sums; a
    uniform ``choice`` when ``total`` is not positive."""
    if total <= 0:
        return rng.choice(items)
    return items[bisect_left(bounds, rng.random() * total)]


class _Trail:
    """Forward-ant memory: visited nodes with elapsed times since launch."""

    __slots__ = ("stack", "index", "pos")

    def __init__(self, source: int):
        self.stack: List[Tuple[int, float]] = [(source, 0.0)]
        self.index: Dict[int, int] = {source: 0}
        self.pos = 0  # backward-travel cursor

    def push(self, node: int, elapsed: float) -> None:
        self.index[node] = len(self.stack)
        self.stack.append((node, elapsed))

    def truncate_cycle(self, node: int) -> None:
        """Pop the cycle ending at ``node``, destroying its nodes' memory.

        The original entry for ``node`` survives with its first-visit
        elapsed time.
        """
        idx = self.index[node]
        del self.stack[idx + 1 :]
        self.index = {n: i for i, (n, _) in enumerate(self.stack)}


class AntNetRouting(RoutingAlgorithm):
    """AntNet: ants learn per-node routing tables, data follows them.

    Data and forward ants move by one stochastic rule over a node's
    routing-table row, stated once in ``_distribution``: the candidates are
    the neighbours not excluded, or all of them when none is left. Data
    weighs neighbour ``i`` by ``row[i] ** 1.2`` and excludes the neighbour it
    arrived from (``prev_node``, ``None`` at its source). A forward ant
    weighs it by the row blended with the queue heuristic and excludes the
    nodes on its trail.

    Data, forward ants and ant destinations all draw with ``_draw``.

    Data draws from a cached distribution. ``picks[node][dst]`` maps a
    previous hop to the ``(candidates, bounds, total)`` that
    ``_distribution`` built. ``reinforce_row`` in ``backward_update`` is the
    only writer of a row, and the row's entries are cleared right after it,
    so an entry always reflects its row.
    """

    name = "antnet"
    elab_s = 0.003

    def __init__(self, launch_interval_s: float = 0.3):
        check_number("launch_interval_s", launch_interval_s, 0, finite=False)  # inf: no ants
        self.launch_interval_s = launch_interval_s

    def attach(self, net) -> None:
        self.net = net
        topo = net.topo
        self.neighbors: Dict[int, List[int]] = {u: topo.neighbors(u) for u in topo.nodes}
        # Routing tables start uniform per destination.
        self.tables: Dict[int, Dict[int, List[float]]] = {}
        for u in topo.nodes:
            nbrs = self.neighbors[u]
            self.tables[u] = {
                d: [1.0 / len(nbrs)] * len(nbrs) for d in topo.nodes if d != u
            }
        # node -> dst -> previous hop -> (candidates, bounds, total)
        self.picks: Dict[int, Dict[int, Dict[Optional[int], tuple]]] = {
            u: {d: {} for d in self.tables[u]} for u in topo.nodes
        }
        self.models: Dict[int, Dict[int, TripModel]] = {u: {} for u in topo.nodes}
        self.flows: Dict[int, Dict[int, float]] = {u: {} for u in topo.nodes}
        self.ant_rng = net.sim.stream("ant_routing")
        self.data_rng = net.sim.stream("data_routing")
        if self.launch_interval_s != math.inf:
            for u in topo.nodes:
                self._schedule_launch(u)

    # -- ant launching -------------------------------------------------------

    def _schedule_launch(self, node: int) -> None:
        t = self.net.sim.now + self.launch_interval_s
        self.net.sim.schedule(t, self._launch, node)

    def _launch(self, node: int) -> None:
        dst = self.pick_ant_destination(node)
        packet = Packet(
            FORWARD_ANT,
            ant_bits(0),
            node,
            dst,
            self.net.sim.now,
            payload=_Trail(node),
        )
        self._forward_move(node, packet)
        self._schedule_launch(node)

    def pick_ant_destination(self, node: int) -> int:
        """Destination biased by locally generated data flow per destination;
        uniform over the other nodes when no data has been observed."""
        flows = self.flows[node]
        sums = list(accumulate(flows.values()))
        if sums and sums[-1] > 0:  # flow bits are never negative: sums are bounds
            return _draw(self.ant_rng, list(flows), sums, sums[-1])
        others = [v for v in self.net.topo.nodes if v != node]
        return self.ant_rng.choice(others)

    def on_local_data(self, node: int, dst: int, bits: float) -> None:
        self.flows[node][dst] = self.flows[node].get(dst, 0.0) + bits

    # -- forward ants --------------------------------------------------------

    def on_ant(self, node: int, packet: Packet, from_node: int) -> None:
        if packet.kind == FORWARD_ANT:
            self._forward_arrive(node, packet)
        else:
            self._backward_arrive(node, packet)

    def _forward_arrive(self, node: int, packet: Packet) -> None:
        trail: _Trail = packet.payload
        elapsed = self.net.sim.now - packet.created_at
        if node in trail.index:
            pre_cycle_age = trail.stack[trail.index[node]][1]
            cycle_time = elapsed - pre_cycle_age
            if cycle_time > pre_cycle_age:
                # the ant wasted more than half its age in the cycle
                self.net.metrics.on_dropped("cycle", FORWARD_ANT)
                return
            trail.truncate_cycle(node)
        else:
            trail.push(node, elapsed)
        if node == packet.dst:
            self._spawn_backward(node, packet)
        else:
            self._forward_move(node, packet)

    def _forward_move(self, node: int, packet: Packet) -> None:
        trail: _Trail = packet.payload
        probs = self.forward_probabilities(node, packet.dst)
        chosen = _draw(self.ant_rng, *self._distribution(node, probs, trail.index))
        packet.size = ant_bits(len(trail.stack) - 1)
        self.net.send_ant(node, chosen, packet)

    def forward_probabilities(self, node: int, dst: int) -> List[float]:
        """Routing-table row blended with the instantaneous queue heuristic."""
        queue_bits = [port.lo_bits for port in self.net.out_ports[node]]
        heuristic = queue_heuristic(queue_bits)
        return blend_probabilities(self.tables[node][dst], heuristic, HEURISTIC_WEIGHT)

    def _distribution(self, node: int, weights: List[float], excluded) -> tuple:
        """``(candidates, bounds, total)`` for a ``_draw`` at ``node``.

        ``weights`` holds one weight per neighbour, in ``neighbors[node]``
        order. The candidates are the neighbours not in ``excluded``, or all
        of them when none is left. ``total`` is the last running sum of their
        weights, and ``bounds`` the running maximum of those sums: the first
        bound to reach a pick is where the first sum does, even where a
        negative blended ant weight makes the sums fall.
        """
        nbrs = self.neighbors[node]
        kept = [i for i, n in enumerate(nbrs) if n not in excluded] or range(len(nbrs))
        sums = list(accumulate(weights[i] for i in kept))
        return [nbrs[i] for i in kept], list(accumulate(sums, max)), sums[-1]

    # -- backward ants -------------------------------------------------------

    def _spawn_backward(self, node: int, forward: Packet) -> None:
        trail: _Trail = forward.payload
        packet = Packet(
            BACKWARD_ANT,
            ant_bits(len(trail.stack) - 1),
            node,
            trail.stack[0][0],
            self.net.sim.now,
            payload=trail,
        )
        trail.pos = len(trail.stack) - 1
        self.net.send_ant(node, trail.stack[trail.pos - 1][0], packet)

    def _backward_arrive(self, node: int, packet: Packet) -> None:
        trail: _Trail = packet.payload
        trail.pos -= 1
        expected = trail.stack[trail.pos][0]
        if expected != node:
            raise RuntimeError(
                f"backward ant arrived at node {node}, but its trail leads to {expected}"
            )
        self.backward_update(node, trail)
        if trail.pos > 0:
            self.net.send_ant(node, trail.stack[trail.pos - 1][0], packet)

    def backward_update(self, node: int, trail: _Trail) -> None:
        """Model and routing-table updates for the final destination and for
        every statistically good sub-path destination beyond ``node``."""
        stack = trail.stack
        pos = trail.pos
        here_elapsed = stack[pos][1]
        from_nbr = stack[pos + 1][0]
        from_idx = self.neighbors[node].index(from_nbr)
        n_nbrs = len(self.neighbors[node])
        models = self.models[node]
        last = len(stack) - 1
        for j in range(pos + 1, last + 1):
            dst = stack[j][0]
            trip = stack[j][1] - here_elapsed
            model = models.get(dst)
            if j != last and model is not None:
                # sub-path times count only when statistically good
                if trip >= model.upper_bound():
                    continue
            if model is None:
                model = TripModel(trip)
                models[dst] = model
            else:
                model.update(trip, MODEL_DECAY, WINDOW_MAX)
            r = score_trip(trip, model, n_nbrs)
            reinforce_row(self.tables[node][dst], from_idx, r)
            self.picks[node][dst].clear()

    # -- data forwarding -----------------------------------------------------

    def select_next_hop(self, node: int, packet: Packet) -> int:
        prev = packet.prev_node
        picks = self.picks[node][packet.dst]
        try:
            candidates, bounds, total = picks[prev]
        except KeyError:
            weights = [w ** DATA_POWER_EXPONENT for w in self.tables[node][packet.dst]]
            candidates, bounds, total = picks[prev] = self._distribution(node, weights, (prev,))
        # unpacked: a positional call is cheaper than a starred one on this per-packet path
        return _draw(self.data_rng, candidates, bounds, total)
