import pytest

from antsim.cli import ALGORITHMS
from antsim.engine import Simulator
from antsim.metrics import MetricsCollector
from antsim.network import (
    DATA,
    ROUTING_INFO,
    Network,
    Packet,
    Session,
)
from antsim.routing import LinkCostEstimator, RoutingAlgorithm
from antsim.topology import builtin_topology, from_edge_list


class FixedNextHop(RoutingAlgorithm):
    """Always forwards toward the smallest neighbor id (test stub)."""

    name = "fixed"

    def select_next_hop(self, node, packet):
        return self.net.topo.neighbors(node)[0]


def two_node_net(bandwidth=1.5e6, delay=0.004, **constants):
    """``constants`` override Network's fixed model constants on the instance."""
    sim = Simulator()
    topo = from_edge_list(2, [(1, 2)], bandwidth, delay)
    metrics = MetricsCollector()
    net = Network(sim, topo, metrics)
    for name, value in constants.items():
        assert hasattr(Network, name), name
        setattr(net, name, value)
    net.set_algorithm(FixedNextHop())
    return sim, net, metrics


def test_single_hop_timing_oracle():
    sim, net, metrics = two_node_net()
    delivered = []
    metrics.on_delivered = lambda t, kind, bits, delay: delivered.append((t, delay))
    net.inject_data(1, 2, 4096)
    sim.run_until(1.0)
    # service 0.0003 + transmission 4096/1.5e6 + propagation 0.004
    expected = 0.0003 + 4096 / 1.5e6 + 0.004
    assert delivered and abs(delivered[0][1] - expected) < 1e-12


def test_back_to_back_packets_queue_behind_transmitter():
    sim, net, metrics = two_node_net()
    times = []
    metrics.on_delivered = lambda t, kind, bits, delay: times.append(t)
    net.inject_data(1, 2, 4096)
    net.inject_data(1, 2, 4096)
    sim.run_until(1.0)
    tx = 4096 / 1.5e6
    assert len(times) == 2
    assert abs((times[1] - times[0]) - tx) < 1e-12  # second waits one tx time


def test_high_priority_departs_before_queued_data():
    sim, net, metrics = two_node_net()
    order = []
    net.inject_data(1, 2, 4096)
    net.inject_data(1, 2, 4096)

    class Spy(FixedNextHop):
        def on_routing_packet(self, node, packet, from_node):
            order.append(("routing", self.net.sim.now))

    spy = Spy()
    net.algorithm = spy
    spy.net = net

    def delivered(t, kind, bits, delay):
        if kind == DATA:
            order.append(("data", t))

    metrics.on_delivered = delivered
    # enqueue the routing packet while the first data packet is in service;
    # it must overtake the second data packet waiting in the low queue
    sim.schedule(0.0004, lambda: net.send_routing(1, 2, 4096, None))
    sim.run_until(1.0)
    kinds = [k for k, _ in order]
    assert kinds == ["data", "routing", "data"]


def test_dispatch_to_a_non_neighbor_raises_and_charges_no_buffer():
    sim = Simulator()
    topo = from_edge_list(3, [(1, 2), (2, 3)], 1.5e6, 0.004)
    net = Network(sim, topo, MetricsCollector())

    class NonNeighbor(RoutingAlgorithm):
        def select_next_hop(self, node, packet):
            return 3  # node 1's only neighbor is 2

    net.set_algorithm(NonNeighbor())
    before = dict(net.buffer_used)
    with pytest.raises(KeyError):
        net.dispatch(1, Packet(DATA, 4096, 1, 3, 0.0))
    assert net.buffer_used == before
    assert not any(port.busy or port.lo for port in net.ports.values())


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_only_spf_and_bf_give_ports_a_delay_monitor(name):
    net = Network(Simulator(), builtin_topology("simplenet"), MetricsCollector())
    net.set_algorithm(ALGORITHMS[name]())
    monitors = [port.monitor for port in net.ports.values()]
    if name in ("spf", "bf"):
        assert all(isinstance(m, LinkCostEstimator) for m in monitors)
        assert len({id(m) for m in monitors}) == len(monitors)
    else:
        assert monitors == [None] * len(monitors)


def test_buffer_exhaustion_drops():
    sim, net, metrics = two_node_net(buffer_bits=10_000)
    for _ in range(5):
        net.inject_data(1, 2, 4096)
    sim.run_until(1.0)
    s = metrics.summarize(1.0, net.total_bw_bps)
    assert s["dropped"].get("buffer/data", 0) >= 1
    assert metrics.delivered_count["data"] + sum(
        metrics.dropped_count.values()
    ) == metrics.generated_count["data"]


def test_buffer_charged_until_last_bit_leaves():
    sim, net, _ = two_node_net()
    net.inject_data(1, 2, 4096)
    sim.run_until(0.0004)  # in service, not yet fully transmitted
    assert net.buffer_used[1] == 4096
    sim.run_until(0.0003 + 4096 / 1.5e6 + 1e-9)
    assert net.buffer_used[1] == 0


def test_ttl_expiry_drops_stale_packet():
    sim, net, metrics = two_node_net(ttl_s=0.001)
    net.inject_data(1, 2, 4096)  # service alone is 0.0003, then 2.7ms tx
    sim.run_until(1.0)
    assert metrics.delivered_count.get("data", 0) == 0
    assert sum(
        v for k, v in metrics.dropped_count.items() if k.startswith("ttl/")
    ) == 1


def test_expired_packets_discarded_at_dequeue_without_using_link():
    sim, net, metrics = two_node_net(ttl_s=0.01)
    times = []
    metrics.on_delivered = lambda t, kind, bits, delay: times.append(t)
    for _ in range(10):
        net.inject_data(1, 2, 4096)  # tx is 2.73 ms, so trailing packets expire
    sim.run_until(1.0)
    assert 0 < len(times) < 10
    ttl_drops = sum(
        v for k, v in metrics.dropped_count.items() if k.startswith("ttl/")
    )
    assert ttl_drops == 10 - len(times)


def test_packet_conservation_across_kinds():
    sim, net, metrics = two_node_net()
    for _ in range(20):
        net.inject_data(1, 2, 4096)
    net.send_routing(1, 2, 512, None)
    sim.run_until(5.0)
    for kind in (DATA, ROUTING_INFO):
        generated = metrics.generated_count.get(kind, 0)
        finished = metrics.delivered_count.get(kind, 0) + sum(
            v for k, v in metrics.dropped_count.items() if k.endswith("/" + kind)
        )
        assert generated == finished


def test_routing_info_counts_toward_routing_bits_but_not_data():
    sim, net, metrics = two_node_net()
    net.send_routing(1, 2, 512, None)
    net.inject_data(1, 2, 4096)
    sim.run_until(1.0)
    assert metrics.routing_bits == 512


def test_packet_size_must_be_positive():
    with pytest.raises(ValueError):
        Packet(DATA, 0, 1, 2, 0.0)


def test_session_cbr_is_periodic_with_fixed_sizes():
    sim, net, metrics = two_node_net()
    gen = []
    original = metrics.on_generated
    metrics.on_generated = lambda t, kind, bits: (gen.append((t, bits)), original(t, kind, bits))
    s = Session(net, 1, 2, "CBR", mpia_s=0.01, mean_packet_bits=4096,
                packets_remaining=5, end_time=10.0, size_rng=sim.stream("packet_sizes"),
                interval_rng=sim.stream("packet_intervals"))
    s.start()
    sim.run_until(10.0)
    assert len(gen) == 5
    gaps = [round(b - a, 9) for (a, _), (b, _) in zip(gen, gen[1:])]
    assert all(g == 0.01 for g in gaps)
    assert all(bits == 4096 for _, bits in gen)


def test_session_gvbr_draws_vary_and_average_out():
    sim, net, metrics = two_node_net(buffer_bits=1e12)
    sizes = []
    original = metrics.on_generated
    metrics.on_generated = lambda t, kind, bits: (sizes.append(bits), original(t, kind, bits))
    s = Session(net, 1, 2, "GVBR", mpia_s=0.001, mean_packet_bits=4096,
                packets_remaining=20_000, end_time=1e9,
                size_rng=sim.stream("packet_sizes"),
                interval_rng=sim.stream("packet_intervals"))
    s.start()
    sim.run_until(1e9)
    assert len(sizes) == 20_000
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 4096) / 4096 < 0.02
    assert len(set(sizes)) > 1000  # genuinely variable
    assert min(sizes) > 0


def test_session_stops_at_end_time():
    sim, net, metrics = two_node_net()
    s = Session(net, 1, 2, "CBR", mpia_s=0.1, mean_packet_bits=4096,
                packets_remaining=None, end_time=1.0,
                size_rng=sim.stream("packet_sizes"),
                interval_rng=sim.stream("packet_intervals"))
    s.start()
    sim.run_until(5.0)
    assert metrics.generated_count["data"] == 10
