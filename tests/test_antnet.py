import math
import random
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from antsim.antnet import (
    DATA_POWER_EXPONENT,
    MODEL_DECAY,
    WINDOW_MAX,
    AntNetRouting,
    TripModel,
    _draw,
    _Trail,
    _squash,
    blend_probabilities,
    queue_heuristic,
    reinforce_row,
    score_trip,
)
from antsim.engine import Simulator
from antsim.metrics import MetricsCollector
from antsim.network import Network
from antsim.topology import Link, Topology, builtin_topology
from antsim.traffic import TrafficSource, TrafficSpec


def test_default_window_max_is_300():
    assert WINDOW_MAX == 300  # round(5 * 0.3 / 0.005)


def test_trip_model_update_oracle():
    m = TripModel(1.0)
    assert (m.mu, m.var, m.w_best, m.w_count) == (1.0, 0.0, 1.0, 1)
    m.update(2.0, eta=0.1, window_max=300)
    # mu: 1.0 + 0.1*(2.0-1.0) = 1.1; var: 0 + 0.1*((2.0-1.1)^2 - 0) = 0.081
    assert abs(m.mu - 1.1) < 1e-12
    assert abs(m.var - 0.081) < 1e-12
    assert m.w_best == 1.0 and m.w_count == 2


def test_trip_model_window_wrap_resets_best():
    m = TripModel(1.0)
    for _ in range(2):
        m.update(0.5, eta=0.1, window_max=3)
    assert m.w_best == 0.5 and m.w_count == 3
    m.update(2.0, eta=0.1, window_max=3)  # wrap: best becomes this sample
    assert m.w_best == 2.0 and m.w_count == 1


def test_squash_ratio_oracle():
    # gain 10, 4 neighbors: s(0.55)/s(1) = (1+e^2.5)/(1+e^(10/2.2))
    m = TripModel(0.55)
    m.mu, m.var, m.w_count, m.w_best = 1.0, 0.0, 1, 0.55
    # craft raw = 0.7*(0.55/1.0) + 0.3*second; width = mu - w_best = 0.45
    # trip=1.0: second = 0.45/(0.45+0.45) = 0.5 -> raw = 0.385+0.15 = 0.535
    r = score_trip(1.0, m, 4)
    expected = (1 + math.exp(2.5)) / (1 + math.exp(10 / (0.535 * 4)))
    assert abs(r - expected) < 1e-12


def test_score_trip_in_unit_interval_and_monotone():
    rng = random.Random(8)
    for _ in range(2000):
        m = TripModel(rng.uniform(0.01, 1.0))
        for _ in range(rng.randint(0, 30)):
            m.update(rng.uniform(0.01, 2.0), MODEL_DECAY, WINDOW_MAX)
        n = rng.randint(2, 6)
        trips = sorted(rng.uniform(0.005, 3.0) for _ in range(5))
        scores = [score_trip(t, m, n) for t in trips]
        for s in scores:
            assert 0.0 < s <= 1.0
        for a, b in zip(scores, scores[1:]):
            assert a >= b - 1e-12  # nonincreasing in the trip time


def test_score_trip_rejects_nonpositive_trip():
    with pytest.raises(ValueError):
        score_trip(0.0, TripModel(1.0), 3)


def test_squash_no_overflow_for_tiny_argument():
    assert _squash(1e-12, 2) > 0.0


def test_reinforce_row_preserves_sum():
    rng = random.Random(3)
    row = [0.25, 0.25, 0.25, 0.25]
    for _ in range(100_000):
        reinforce_row(row, rng.randrange(4), rng.random())
        assert all(p >= 0 for p in row)
    assert abs(sum(row) - 1.0) < 1e-9


def test_reinforce_row_moves_mass_to_chosen():
    row = [0.5, 0.5]
    reinforce_row(row, 0, 0.5)
    assert row == [0.75, 0.25]


def test_queue_heuristic_sums_to_n_minus_one():
    rng = random.Random(4)
    for _ in range(1000):
        n = rng.randint(2, 8)
        q = [rng.uniform(0, 1e6) for _ in range(n)]
        h = queue_heuristic(q)
        assert abs(sum(h) - (n - 1)) < 1e-9
    # idle network: uniform correction
    assert queue_heuristic([0.0, 0.0, 0.0]) == [2 / 3] * 3


def test_blend_probabilities_is_a_distribution():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(2, 6)
        row = [rng.random() for _ in range(n)]
        total = sum(row)
        row = [p / total for p in row]
        h = queue_heuristic([rng.uniform(0, 100) for _ in range(n)])
        blended = blend_probabilities(row, h, 0.3)
        assert abs(sum(blended) - 1.0) < 1e-9
        assert all(p >= 0 for p in blended)


def test_trail_push_and_cycle_truncation():
    t = _Trail(1)
    t.push(2, 0.1)
    t.push(3, 0.2)
    t.push(4, 0.3)
    t.truncate_cycle(2)  # revisiting node 2 removes the 3-4 loop
    assert t.stack == [(1, 0.0), (2, 0.1)]
    assert t.index == {1: 0, 2: 1}


def ant_only_run(seed, t_end=200.0):
    sim = Simulator(master_seed=seed)
    net = Network(sim, builtin_topology("simplenet"), MetricsCollector())
    algo = AntNetRouting()
    net.set_algorithm(algo)
    sim.run_until(t_end)
    return algo


def test_tables_remain_distributions_after_ant_traffic():
    algo = ant_only_run(seed=0)
    for node, per_dst in algo.tables.items():
        for dst, row in per_dst.items():
            assert abs(sum(row) - 1.0) < 1e-9
            assert all(p >= 0 for p in row)


def test_uniform_initialization():
    sim = Simulator(0)
    net = Network(sim, builtin_topology("simplenet"), MetricsCollector())
    algo = AntNetRouting(launch_interval_s=math.inf)
    net.set_algorithm(algo)
    assert algo.tables[1][6] == [1 / 3, 1 / 3, 1 / 3]
    assert algo.tables[6][1] == [1 / 2, 1 / 2]


def test_ants_learn_short_routes_on_idle_network():
    algo = ant_only_run(seed=1, t_end=300.0)
    # from node 2, destination 1 is the direct neighbor: it must dominate
    row = algo.tables[2][1]
    nbrs = algo.neighbors[2]
    assert nbrs[row.index(max(row))] == 1


def test_forward_ant_size_grows_with_hops():
    algo = ant_only_run(seed=2, t_end=5.0)
    # launch one more ant by hand and inspect sizing bookkeeping
    from antsim.network import FORWARD_ANT, Packet
    from antsim.antnet import _Trail, ANT_BASE_BYTES, ANT_BYTES_PER_HOP

    p = Packet(FORWARD_ANT, ANT_BASE_BYTES * 8, 1, 6, algo.net.sim.now,
               payload=_Trail(1))
    p.payload.push(3, 0.001)
    algo._forward_move(3, p)
    assert p.size == (ANT_BASE_BYTES + ANT_BYTES_PER_HOP * 1) * 8


def test_data_forwarding_avoids_arrival_link():
    sim = Simulator(0)
    net = Network(sim, builtin_topology("simplenet"), MetricsCollector())
    algo = AntNetRouting(launch_interval_s=math.inf)
    net.set_algorithm(algo)
    from antsim.network import DATA, Packet

    p = Packet(DATA, 4096, 5, 6, 0.0)
    p.prev_node = 6  # arrived from 6; node 5's other neighbors are 3, 4
    for _ in range(200):
        assert algo.select_next_hop(5, p) in (3, 4)


def test_flow_biased_ant_destinations():
    sim = Simulator(0)
    net = Network(sim, builtin_topology("simplenet"), MetricsCollector())
    algo = AntNetRouting(launch_interval_s=math.inf)
    net.set_algorithm(algo)
    algo.on_local_data(1, 6, 1e9)
    algo.on_local_data(1, 2, 1.0)
    picks = [algo.pick_ant_destination(1) for _ in range(100)]
    assert picks.count(6) >= 99  # overwhelming flow share wins


def test_backward_ant_off_its_trail_raises():
    sim = Simulator(0)
    net = Network(sim, builtin_topology("simplenet"), MetricsCollector())
    algo = AntNetRouting(launch_interval_s=math.inf)
    net.set_algorithm(algo)
    from antsim.network import BACKWARD_ANT, Packet

    trail = _Trail(1)
    for node, elapsed in ((3, 0.01), (5, 0.02), (6, 0.03)):
        trail.push(node, elapsed)
    trail.pos = 3  # at the destination, as _spawn_backward leaves it
    p = Packet(BACKWARD_ANT, 512, 6, 1, 0.0, payload=trail)
    with pytest.raises(RuntimeError):
        algo.on_ant(4, p, 6)  # the trail leads from 6 back to 5, not 4


def test_cycle_death_counted():
    # heavy ant traffic on a network with many loops eventually kills some
    sim = Simulator(master_seed=6)
    metrics = MetricsCollector()
    net = Network(sim, builtin_topology("simplenet"), metrics)
    net.set_algorithm(AntNetRouting(launch_interval_s=0.05))
    sim.run_until(120.0)
    assert metrics.dropped_count.get("cycle/forward_ant", 0) > 0


def uncached_select_next_hop(algo, node, packet, rng):
    """The data-forwarding draw as computed before the per-row cache."""
    nbrs = algo.neighbors[node]
    if packet.prev_node is not None and len(nbrs) >= 2:
        candidates = [n for n in nbrs if n != packet.prev_node]
    else:
        candidates = nbrs
    row = algo.tables[node][packet.dst]
    idx = {n: i for i, n in enumerate(nbrs)}
    weights = [row[idx[n]] ** DATA_POWER_EXPONENT for n in candidates]
    total = sum(weights)
    if total <= 0:
        return rng.choice(candidates)
    pick = rng.random() * total
    acc = 0.0
    for item, w in zip(candidates, weights):
        acc += w
        if pick <= acc:
            return item
    return candidates[-1]


# a ring 1-2-3-4 with the chord 1-3, and node 5 hanging off node 4: data
# that reaches node 5 for another destination can only go back
LEAF_TOPOLOGY = Topology(
    5,
    [
        Link(u, v, 1.5e6, 0.001)
        for a, b in ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (4, 5))
        for u, v in ((a, b), (b, a))
    ],
)


def differential_forwarding_run(topo, seed, run_s):
    """Run antnet under UP traffic and check every data draw against the
    uncached computation on a copy of the data RNG; return counts of what
    the run reached."""
    sim = Simulator(master_seed=seed)
    net = Network(sim, topo, MetricsCollector())
    # ants once a second leave the one-hot rows of a first backward ant in
    # place long enough for data to meet them, and let data stray to a leaf
    algo = AntNetRouting(launch_interval_s=1.0)
    net.set_algorithm(algo)
    cached = algo.select_next_hop
    reached = dict.fromkeys(("calls", "built", "rebuilt", "choice", "source", "leaf"), 0)
    built = set()

    def checked(node, packet):
        reference_rng = random.Random()
        reference_rng.setstate(algo.data_rng.getstate())
        expected = uncached_select_next_hop(algo, node, packet, reference_rng)
        prev, nbrs, row = packet.prev_node, algo.neighbors[node], algo.tables[node][packet.dst]
        key = (node, packet.dst, prev)
        if prev not in algo.picks[node][packet.dst]:
            reached["rebuilt" if key in built else "built"] += 1
            built.add(key)
        if len(nbrs) >= 2 and all(row[i] == 0 for i, n in enumerate(nbrs) if n != prev):
            reached["choice"] += 1  # a one-hot row toward the arrival link
        reached["source"] += prev is None
        reached["leaf"] += len(nbrs) < 2 and prev is not None
        reached["calls"] += 1
        chosen = cached(node, packet)
        assert chosen == expected
        assert algo.data_rng.getstate() == reference_rng.getstate()
        return chosen

    algo.select_next_hop = checked
    spec = TrafficSpec(temporal="P", spatial="U", stream="GVBR", msia_s=0.5)
    TrafficSource(net, spec, 0.0, run_s).start()
    sim.run_until(run_s)
    return reached


def test_cached_data_forwarding_matches_uncached_draws():
    reached = Counter()
    for topo in (builtin_topology("simplenet"), builtin_topology("nsfnet"), LEAF_TOPOLOGY):
        reached.update(differential_forwarding_run(topo, seed=11, run_s=3.0))
    assert reached["rebuilt"] > 0  # entries rebuilt after backward_update changed a row
    assert reached["choice"] > 0  # one-hot rows a first backward ant leaves (r == 1.0)
    assert reached["source"] > 0  # prev_node None
    assert reached["leaf"] > 0  # a node with one neighbour sends data back
    assert reached["built"] + reached["rebuilt"] < reached["calls"]  # the cache hits


def reference_weighted_pick(rng, items, weights, total):
    """The ant draw as computed before it took cumulative sums."""
    pick = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if pick <= acc:
            return item
    return items[-1]


def reference_draw(rng, items, weights):
    """A draw as its callers made it before ``_draw``."""
    total = sum(weights)
    if total <= 0:
        return rng.choice(items)
    return reference_weighted_pick(rng, items, weights, total)


def reference_forward_hop(algo, node, packet, rng):
    """A forward ant's next hop as drawn before ``_distribution``."""
    trail = packet.payload
    nbrs = algo.neighbors[node]
    candidates = [n for n in nbrs if n not in trail.index]
    if not candidates:
        candidates = nbrs
    probs = algo.forward_probabilities(node, packet.dst)
    idx = {n: i for i, n in enumerate(nbrs)}
    weights = [probs[idx[n]] for n in candidates]
    return reference_draw(rng, candidates, weights)


def reference_ant_destination(algo, node, rng):
    flows = algo.flows[node]
    total = sum(flows.values())
    if total > 0:
        return reference_weighted_pick(rng, list(flows), list(flows.values()), total)
    others = [v for v in algo.net.topo.nodes if v != node]
    return rng.choice(others)


def bisection_differs(weights, pick):
    """Whether a bisection over the running sums of ``weights`` finds another
    index than the scan for ``pick``, as it can only where the sums fall."""
    cumulative = list(accumulate(weights))
    scan = next((i for i, acc in enumerate(cumulative) if pick <= acc), len(cumulative) - 1)
    return min(bisect_left(cumulative, pick), len(cumulative) - 1) != scan


def differential_ant_run(topo, seed, run_s):
    """Run antnet with frequent ants under UP traffic and check every forward
    hop and destination draw against the reference on a copy of the ant RNG;
    return counts of what the run reached."""
    sim = Simulator(master_seed=seed)
    net = Network(sim, topo, MetricsCollector())
    algo = AntNetRouting(launch_interval_s=0.006)
    net.set_algorithm(algo)
    forward_move, pick_destination, send_ant = (
        algo._forward_move, algo.pick_ant_destination, net.send_ant
    )
    sent = []
    reached = Counter()

    def reference_rng():
        rng = random.Random()
        rng.setstate(algo.ant_rng.getstate())
        return rng

    def checked_move(node, packet):
        pick = reference_rng().random()
        rng = reference_rng()
        expected = reference_forward_hop(algo, node, packet, rng)
        nbrs = algo.neighbors[node]
        probs = algo.forward_probabilities(node, packet.dst)
        weights = [w for n, w in zip(nbrs, probs) if n not in packet.payload.index] or probs
        reached["moves"] += 1
        reached["fallback"] += all(n in packet.payload.index for n in nbrs)
        reached["leaf"] += len(nbrs) == 1
        reached["negative"] += min(probs) < 0
        total = sum(weights)
        reached["bisection_differs"] += total > 0 and bisection_differs(weights, pick * total)
        forward_move(node, packet)
        assert sent[-1] == expected
        assert algo.ant_rng.getstate() == rng.getstate()

    def checked_destination(node):
        rng = reference_rng()
        expected = reference_ant_destination(algo, node, rng)
        reached["flow_biased"] += sum(algo.flows[node].values()) > 0
        chosen = pick_destination(node)
        assert chosen == expected
        assert algo.ant_rng.getstate() == rng.getstate()
        return chosen

    net.send_ant = lambda node, nbr, packet: sent.append(nbr) or send_ant(node, nbr, packet)
    algo._forward_move = checked_move
    algo.pick_ant_destination = checked_destination
    spec = TrafficSpec(temporal="P", spatial="U", stream="GVBR", msia_s=0.5)
    TrafficSource(net, spec, 0.0, run_s).start()
    sim.run_until(run_s)
    return reached


def test_ant_draws_match_the_reference_candidate_rule():
    reached = Counter()
    for topo in (builtin_topology("nsfnet"), LEAF_TOPOLOGY):
        reached.update(differential_ant_run(topo, seed=7, run_s=2.0))
    assert reached["fallback"] > 0  # every neighbour already on the trail
    assert reached["leaf"] > 0  # a node with one neighbour
    assert reached["flow_biased"] > 0  # destinations drawn by local data flow
    assert reached["negative"] > 0  # a blended weight below zero
    assert reached["bisection_differs"] > 0  # falling sums, which the bounds must cover


def distribution_of(weights):
    """``_distribution`` over ``weights`` at a node whose neighbours are
    1..n, none of them excluded."""
    owner = SimpleNamespace(neighbors={0: list(range(1, len(weights) + 1))})
    return AntNetRouting._distribution(owner, 0, weights, ())


def assert_draw_matches_reference(weights, rng):
    """``_draw`` over the bounds ``_distribution`` builds picks the item the
    reference scan picks and leaves ``rng`` in the same state."""
    reference_rng = random.Random()
    reference_rng.setstate(rng.getstate())
    items, bounds, total = distribution_of(weights)
    expected = reference_draw(reference_rng, items, weights)
    assert _draw(rng, items, bounds, total) == expected
    assert rng.getstate() == reference_rng.getstate()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    weights=st.lists(st.floats(-0.5, 1.0), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_matches_the_reference_scan(weights, seed):
    assert_draw_matches_reference(weights, random.Random(seed))


class FixedRandom:
    """An RNG stand-in whose ``random()`` returns ``u`` and whose ``choice``
    takes the last item; it records which of the two was called."""

    def __init__(self, u):
        self.u = u
        self.calls = []

    def random(self):
        self.calls.append("random")
        return self.u

    def choice(self, items):
        self.calls.append("choice")
        return items[-1]


def test_draw_over_falling_sums():
    # sums 0.5, 0.1, 0.6: the pick 0.3 is first reached at item 1, while a
    # bisection over the sums themselves lands on item 3
    weights = [0.5, -0.4, 0.5]
    items, bounds, total = distribution_of(weights)
    pick = 0.5 * total
    assert items[bisect_left(list(accumulate(weights)), pick)] == 3
    rng = FixedRandom(0.5)
    assert _draw(rng, items, bounds, total) == 1
    assert rng.calls == ["random"]
    assert reference_draw(FixedRandom(0.5), items, weights) == 1


@pytest.mark.parametrize("weights", [[0.25, 0.75], [0.5, 0.75, -0.25], [0.75, -0.5, 0.75]])
def test_draw_of_the_largest_pick(weights):
    items, bounds, total = distribution_of(weights)
    u = math.nextafter(1.0, 0.0)
    assert u * total == math.nextafter(total, 0.0)
    expected = reference_draw(FixedRandom(u), items, weights)
    assert _draw(FixedRandom(u), items, bounds, total) == expected


@pytest.mark.parametrize("weights", [[-0.5, 0.25], [0.0, 0.0], [-0.5]])
def test_draw_with_a_total_not_positive_takes_choice(weights):
    items, bounds, total = distribution_of(weights)
    assert total <= 0
    rng = FixedRandom(0.5)
    assert _draw(rng, items, bounds, total) == items[-1]
    assert rng.calls == ["choice"]
    assert_draw_matches_reference(weights, random.Random(3))
