import json
import math
import random

import pytest

from antsim.baselines import QueueMean
from antsim.cli import ALGORITHMS
from antsim.engine import Simulator
from antsim.metrics import MetricsCollector
from antsim.network import (
    DATA,
    FORWARD_ANT,
    ROUTING_INFO,
    Network,
    Packet,
    Session,
)
from antsim.routing import LinkCostEstimator, RoutingAlgorithm
from antsim.topology import builtin_topology, from_edge_list, load_topology_file


class FixedNextHop(RoutingAlgorithm):
    """Always forwards toward the smallest neighbor id (test stub)."""

    name = "fixed"

    def select_next_hop(self, node, packet):
        return self.net.topo.neighbors(node)[0]


class Onward(RoutingAlgorithm):
    """Forwards toward the largest neighbor id: along a line, to its end."""

    elab_s = 0.003

    def select_next_hop(self, node, packet):
        return self.net.topo.neighbors(node)[-1]


def two_node_net(bandwidth=1.5e6, delay=0.004, **constants):
    return line_net(2, bandwidth, delay, FixedNextHop(), **constants)


def line_net(n, bandwidth=1.5e6, delay=0.004, algo=None, **constants):
    """Nodes 1..n in a line; ``constants`` override Network's fixed model
    constants on the instance."""
    sim = Simulator()
    topo = from_edge_list(n, [(u, u + 1) for u in range(1, n)], bandwidth, delay)
    metrics = MetricsCollector()
    net = Network(sim, topo, metrics)
    for name, value in constants.items():
        assert hasattr(Network, name), name
        setattr(net, name, value)
    net.set_algorithm(algo or Onward())
    return sim, net, metrics


def drop_times(sim, metrics):
    """Record ``(sim.now, cause, kind)`` for every drop ``metrics`` counts."""
    times = []
    on_dropped = metrics.on_dropped

    def record(cause, kind):
        times.append((sim.now, cause, kind))
        on_dropped(cause, kind)

    metrics.on_dropped = record
    return times


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


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: Port.lo_bits is a running float sum, so a drained queue "
    "keeps a residue that AntNet's queue heuristic and the daemon read",
)
def test_drained_port_reads_zero_queue_bits():
    sim, net, metrics = two_node_net()
    rng = random.Random(1)
    for _ in range(20):
        net.inject_data(1, 2, rng.expovariate(1 / 4096))
    sim.run_until(5.0)
    port = net.ports[(1, 2)]
    assert metrics.delivered_count[DATA] == 20 and not port.lo and not port.hi
    assert port.lo_bits == 0.0  # 5.68e-12


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


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_only_the_daemon_gives_ports_a_queue_mean(name):
    sim = Simulator(master_seed=5)
    net = Network(sim, builtin_topology("simplenet"), MetricsCollector())
    net.set_algorithm(ALGORITHMS[name]())
    rng = random.Random(name)
    for _ in range(300):
        net.inject_data(*rng.sample(net.topo.nodes, 2), 4096)
    sim.run_until(2.0)
    assert net.metrics.delivered_count["data"] > 0
    means = [port.mean for port in net.ports.values()]
    if name == "daemon":
        assert all(isinstance(m, QueueMean) for m in means)
        assert len({id(m) for m in means}) == len(means)
        assert {m.tau for m in means} == {ALGORITHMS[name].queue_mean_tau_s}
        assert any(m.bits > 0.0 for m in means)
    else:
        assert means == [None] * len(means)


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


# a 5-node graph whose links are listed from the largest endpoints down
DESCENDING_TOPOLOGY = {
    "nodes": 5,
    "links": [
        {"a": a, "b": b, "bandwidth_bps": 1e6, "prop_delay_s": 0.001}
        for a, b in [(5, 4), (5, 2), (4, 3), (4, 1), (3, 2), (2, 1)]
    ],
}


@pytest.mark.parametrize("name", ["simplenet", "nsfnet", "nttnet", "descending"])
def test_out_ports_follow_neighbor_order(tmp_path, name):
    if name == "descending":
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(DESCENDING_TOPOLOGY))
        topo = load_topology_file(str(path))
    else:
        topo = builtin_topology(name)
    net = Network(Simulator(), topo, MetricsCollector())
    assert sorted(net.out_ports) == topo.nodes
    for u in topo.nodes:
        assert [p.dst for p in net.out_ports[u]] == topo.neighbors(u), u
        assert all(p.src == u for p in net.out_ports[u]), u


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


TX_4096 = 4096 / 1.5e6  # transmission time of a 4096-bit packet


def test_data_expiring_on_the_link_is_dropped_at_arrival():
    # sent at 0.0003, the packet is 0.0030 s old when its last bit leaves
    # node 1 and 0.0070 s old when it reaches node 2, on its way to node 3
    sim, net, metrics = line_net(3, ttl_s=0.005)
    drops = drop_times(sim, metrics)
    net.inject_data(1, 3, 4096)
    t_arr = (0.0 + Network.node_service_s + TX_4096) + 0.004
    # the run ends at the arrival, before the service delay that follows it
    sim.run_until(t_arr)
    assert drops == [(t_arr, "ttl", DATA)]
    sim.run_until(1.0)
    assert len(drops) == 1 and metrics.delivered_count["data"] == 0


@pytest.mark.parametrize("name", ["qr", "pqr"])
def test_data_expiring_on_the_link_sends_no_feedback(name):
    # the packet passes ttl_s on its way into node 2, as in the test above:
    # the learner sends node 1 no feedback for it
    sim, net, metrics = line_net(3, algo=ALGORITHMS[name](), ttl_s=0.005)
    net.inject_data(1, 3, 4096)
    sim.run_until(1.0)
    assert metrics.dropped_count == {"ttl/data": 1}
    assert ROUTING_INFO not in metrics.generated_count


def test_ant_expiring_on_the_link_is_dropped_at_arrival():
    class AntSink(Onward):
        def on_ant(self, node, packet, from_node):
            seen.append(node)

    seen = []
    sim, net, metrics = line_net(2, algo=AntSink(), ttl_s=0.005)
    drops = drop_times(sim, metrics)
    net.send_ant(1, 2, Packet(FORWARD_ANT, 4096, 1, 2, 0.0))
    t_arr = (0.0 + TX_4096) + 0.004
    sim.run_until(t_arr)
    assert drops == [(t_arr, "ttl", FORWARD_ANT)]
    sim.run_until(1.0)
    assert seen == [] and len(drops) == 1


def test_ants_reach_on_ant_in_arrival_order_when_elaboration_ends_together():
    class AntSink(Onward):
        def on_ant(self, node, packet, from_node):
            seen.append((self.net.sim.now, packet.src, from_node, packet.node_arrival))

    seen = []
    # ant b leaves node 3 first, over the slower link; ant a leaves node 1
    # later and reaches node 2 one rounding step earlier
    sim, net, _ = line_net(3, delay=[0.004, 0.01], algo=AntSink())
    net.send_ant(3, 2, Packet(FORWARD_ANT, 4096, 3, 2, 0.0))
    send_a = math.nextafter(0.006, 0.0)
    sim.schedule(send_a, net.send_ant, 1, 2, Packet(FORWARD_ANT, 4096, 1, 2, send_a))
    t_arr_a = (send_a + TX_4096) + 0.004
    t_arr_b = (0.0 + TX_4096) + 0.01
    t_on = t_arr_b + AntSink.elab_s
    assert t_arr_a < t_arr_b and t_arr_a + AntSink.elab_s == t_on
    sim.run_until(1.0)
    # both elaborations end at t_on; on_ant follows the arrivals, not the
    # order in which the transmissions ended
    assert seen == [(t_on, 1, 1, t_arr_a), (t_on, 3, 3, t_arr_b)]


def test_transit_costs_one_event_per_node_visit():
    sim, net, metrics = line_net(4)
    delivered = []
    metrics.on_delivered = lambda t, kind, bits, delay: delivered.append(delay)
    net.inject_data(1, 4, 4096)
    # dispatch at node 1, then per hop the end of its transmission and the
    # visit: a folded arrival and service at nodes 2 and 3, the delivery at 4
    assert sim.run_until(1.0) == 1 + 2 * 3
    expected = 3 * (Network.node_service_s + TX_4096 + 0.004)
    assert len(delivered) == 1 and abs(delivered[0] - expected) < 1e-12


def test_on_data_arrival_runs_at_arrival_before_node_arrival_moves():
    class Watcher(Onward):
        def on_data_arrival(self, node, packet, from_node):
            seen.append((self.net.sim.now, node, from_node, packet.node_arrival))

    seen = []
    sim, net, _ = line_net(3, algo=Watcher())
    net.inject_data(1, 3, 4096)
    sim.run_until(1.0)
    t_arr2 = (0.0 + Network.node_service_s + TX_4096) + 0.004
    t_arr3 = (t_arr2 + Network.node_service_s + TX_4096) + 0.004
    assert seen == [(t_arr2, 2, 1, 0.0), (t_arr3, 3, 2, t_arr2)]


def test_base_on_data_arrival_is_never_called(monkeypatch):
    calls = []
    monkeypatch.setattr(RoutingAlgorithm, "on_data_arrival", lambda self, *args: calls.append(args))
    # a delivery at node 3, then a packet that expires on its way into node 2
    for ttl_s, delivered, expired in ((Network.ttl_s, 1, 0), (0.005, 0, 1)):
        sim, net, metrics = line_net(3, ttl_s=ttl_s)
        net.inject_data(1, 3, 4096)
        sim.run_until(1.0)
        assert metrics.delivered_count["data"] == delivered
        assert metrics.dropped_count["ttl/data"] == expired
    assert calls == []


def test_on_local_data_reaches_an_algorithm_that_overrides_it():
    class Listener(Onward):
        def on_local_data(self, node, dst, bits):
            seen.append((node, dst, bits))

    seen = []
    sim, net, _ = line_net(3, algo=Listener())
    net.inject_data(1, 3, 4096)
    net.inject_data(2, 3, 512)
    assert seen == [(1, 3, 4096), (2, 3, 512)]


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


def test_session_draws_each_packet_and_stops_after_packets_remaining():
    sim, net, metrics = two_node_net()
    gen = []
    original = metrics.on_generated
    metrics.on_generated = lambda t, kind, bits: (gen.append((t, bits)), original(t, kind, bits))
    gaps = iter([0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 1.0])
    sizes = iter([100.0, 200.0, 300.0, 400.0, 500.0, 600.0])
    s = Session(net, 1, 2, gaps.__next__, sizes.__next__, packets_remaining=5, end_time=10.0)
    s.start()
    sim.run_until(10.0)
    assert gen == [(0.5, 100.0), (0.75, 200.0), (0.875, 300.0), (0.9375, 400.0), (0.96875, 500.0)]
    assert s.packets_remaining == 0
    # the first gap is drawn before the first packet, and the last packet
    # still draws the gap to a next one, which sends nothing and draws nothing
    assert next(gaps) == 1.0 and next(sizes) == 600.0


def test_session_stops_at_end_time():
    sim, net, metrics = two_node_net()
    s = Session(net, 1, 2, lambda: 0.1, lambda: 4096.0, packets_remaining=math.inf, end_time=1.0)
    s.start()
    sim.run_until(5.0)
    assert metrics.generated_count["data"] == 10
