import hashlib
import math

import pytest

from antsim.cli import ALGORITHMS, ExperimentConfig, run_trial
from antsim.engine import Simulator
from antsim.metrics import MetricsCollector
from antsim.network import Network
from antsim.routing import RoutingAlgorithm
from antsim.topology import builtin_topology
from antsim.traffic import TrafficSource, TrafficSpec

from test_golden import HOTSPOT_TRAFFIC


class Sink(RoutingAlgorithm):
    """Delivers everything over the first outgoing link (test stub)."""

    name = "sink"

    def select_next_hop(self, node, packet):
        return self.net.topo.neighbors(node)[0]


def make_net(seed=0, topo_name="simplenet"):
    sim = Simulator(master_seed=seed)
    net = Network(sim, builtin_topology(topo_name), MetricsCollector())
    net.set_algorithm(Sink())
    return sim, net


def test_spec_validation():
    with pytest.raises(ValueError):
        TrafficSpec(msia_s=0.0)
    with pytest.raises(ValueError):
        TrafficSpec(temporal="X")
    with pytest.raises(ValueError):
        TrafficSpec(spatial="Z")
    with pytest.raises(ValueError):
        TrafficSpec(stream="VBR")
    with pytest.raises(ValueError):
        TrafficSpec(mpia_s=-1.0)
    for key, bad in (
        ("mean_packet_bits", 0.0),
        ("mean_packet_bits", -4096.0),
        ("mean_packet_bits", math.nan),
        ("packets_per_session", 0),
        ("packets_per_session", -3),
        ("packets_per_session", 2.5),
        ("packets_per_session", True),
        ("hs_count", -1),
        ("hs_count", 1.5),
        ("hs_count", True),
        ("msia_s", math.inf),
        ("mpia_s", math.inf),
        ("mpia_hs_s", math.inf),
        ("mean_packet_bits", math.inf),
        ("hot_spot_nodes", 5),
        ("hot_spot_nodes", [2, 2]),
        ("hot_spot_nodes", [True]),
        ("hot_spot_nodes", []),
        ("fixed_pairs", 5),
        ("fixed_pairs", [[True, 2]]),
        ("fixed_pairs", [(1, 2), 3]),
        ("fixed_pairs", [(1, 6)]),  # well formed, but the default temporal P ignores it
    ):
        with pytest.raises(ValueError, match=key):
            TrafficSpec(**{key: bad})
    window = dict(temporal="TMPHS", hs_count=1, hot_spot_on_s=1.0, hot_spot_off_s=2.0)
    for key, spec in (
        # the offsets' number rule, under the one model that reads them
        ("hot_spot_on_s", dict(window, hot_spot_on_s=-1.0)),
        ("hot_spot_on_s", dict(window, hot_spot_on_s=math.nan)),
        ("hot_spot_off_s", dict(window, hot_spot_off_s=math.inf)),
        # hs_count alone says how many hot spots run; hot_spot_nodes only names them
        ("hot_spot_nodes", dict(hot_spot_nodes=[4])),
        ("hot_spot_nodes", dict(temporal="F", hot_spot_nodes=[4])),
        # F with no pair would open no session and carry no data
        ("fixed_pairs", dict(temporal="F", fixed_pairs=[])),
        # a second session for one pair would double its load; (1, 6) and [1, 6] are one pair
        ("fixed_pairs", dict(temporal="F", fixed_pairs=[(1, 6), [1, 6]])),
        ("hs_count", dict(window, hs_count=0, hot_spot_nodes=[4])),
        ("hot_spot_nodes", dict(hs_count=1, hot_spot_nodes=[4, 5])),
        # P and F read no offsets
        ("hot_spot_on_s", dict(hot_spot_on_s=1.0)),
        ("hot_spot_on_s", dict(temporal="F", hot_spot_on_s=1.0)),
        ("hot_spot_off_s", dict(hot_spot_off_s=5.0)),
    ):
        with pytest.raises(ValueError, match=key):
            TrafficSpec(**spec)


def test_hot_spot_count_must_be_below_node_count():
    simplenet = builtin_topology("simplenet")
    TrafficSpec(hs_count=7).check_topology(simplenet)
    with pytest.raises(ValueError, match="hs_count"):
        TrafficSpec(hs_count=8).check_topology(simplenet)


@pytest.mark.parametrize("pair", [(1, 99), (3, 3), (1, 2, 3), (0, 1)])
def test_fixed_pairs_must_name_two_distinct_nodes(pair):
    simplenet = builtin_topology("simplenet")
    TrafficSpec(temporal="F", fixed_pairs=[(1, 6), (6, 1)]).check_topology(simplenet)
    with pytest.raises(ValueError, match="fixed_pairs"):
        TrafficSpec(temporal="F", fixed_pairs=[(1, 6), pair]).check_topology(simplenet)


def test_fixed_one_to_all_session_count():
    sim, net = make_net()
    sessions = []
    spec = TrafficSpec(temporal="F", stream="CBR", mpia_s=1.0)
    src = TrafficSource(net, spec, 0.0, 100.0)
    original = src._open_session
    src._open_session = lambda *a, **k: sessions.append(a) or original(*a, **k)
    src.start()
    sim.run_until(0.0)
    assert len(sessions) == 8 * 7  # one session per ordered node pair


def generated_packets(net):
    """Record ``(time, bits)`` for every data packet ``net`` generates."""
    seen = []
    on_generated = net.metrics.on_generated

    def record(t, kind, bits):
        seen.append((t, bits))
        on_generated(t, kind, bits)

    net.metrics.on_generated = record
    return seen


def test_session_cbr_is_periodic_with_fixed_sizes():
    sim, net = make_net()
    gen = generated_packets(net)
    spec = TrafficSpec(temporal="F", stream="CBR", mpia_s=0.01, mean_packet_bits=4096.0,
                       fixed_pairs=[(1, net.topo.neighbors(1)[0])])
    TrafficSource(net, spec, 0.0, 0.0505).start()
    sim.run_until(10.0)
    times = [round(t, 9) for t, _ in gen]
    assert times == [0.01, 0.02, 0.03, 0.04, 0.05]
    assert all(bits == 4096.0 for _, bits in gen)


def test_session_gvbr_draws_vary_and_average_out():
    sim, net = make_net()
    gen = generated_packets(net)
    spec = TrafficSpec(temporal="F", stream="GVBR", mpia_s=0.001, mean_packet_bits=4096.0,
                       fixed_pairs=[(1, net.topo.neighbors(1)[0])])
    TrafficSource(net, spec, 0.0, 20.0).start()
    sim.run_until(20.0)
    assert abs(len(gen) - 20_000) / 20_000 < 0.02
    sizes = [bits for _, bits in gen]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 4096) / 4096 < 0.02
    assert len(set(sizes)) > 1000  # genuinely variable
    assert min(sizes) > 0
    # each gap and size is the next exponential draw of the trial's own
    # packet_intervals and packet_sizes streams
    replay = Simulator(master_seed=0)
    intervals, size_draws = replay.stream("packet_intervals"), replay.stream("packet_sizes")
    t = 0.0
    expected = []
    for _ in range(100):
        t += intervals.expovariate(1.0 / 0.001)
        expected.append((t, size_draws.expovariate(1.0 / 4096.0)))
    assert gen[:100] == expected


def test_fixed_pairs_override():
    sim, net = make_net()
    spec = TrafficSpec(temporal="F", stream="CBR", mpia_s=0.01,
                       fixed_pairs=[(1, 6)], packets_per_session=5)
    TrafficSource(net, spec, 0.0, 100.0).start()
    sim.run_until(100.0)
    # fixed sessions are persistent: generation continues to the horizon
    # (one packet of slack for float accumulation at the boundary)
    assert abs(net.metrics.generated_count["data"] - 100.0 / 0.01) <= 1


def test_poisson_arrival_rate_roughly_matches_msia():
    sim, net = make_net(seed=5)
    spec = TrafficSpec(temporal="P", msia_s=2.0, mpia_s=0.5,
                       packets_per_session=1, stream="CBR")
    TrafficSource(net, spec, 0.0, 400.0).start()
    sim.run_until(500.0)
    generated = net.metrics.generated_count["data"]
    expected = 8 * 400.0 / 2.0  # nodes x horizon / mean inter-arrival
    assert abs(generated - expected) / expected < 0.15


def test_same_seed_same_workload_across_algorithms(monkeypatch):
    # one short nsfnet trial per algorithm, hashing every inject_data call. The
    # hot spot at node 4 is on from 1 s, so sessions and hot spot both inject:
    # 7,342 calls, of which sessions alone make 2,216
    hashes = {}
    inject_data = Network.inject_data

    def hashed(net, src, dst, size):
        sha, count = hashes[net.algorithm.name]
        sha.update(repr((net.sim.now.hex(), src, dst, float(size).hex())).encode())
        hashes[net.algorithm.name] = (sha, count + 1)
        inject_data(net, src, dst, size)

    monkeypatch.setattr(Network, "inject_data", hashed)
    for name in sorted(ALGORITHMS):
        hashes[name] = (hashlib.sha256(), 0)
        cfg = ExperimentConfig(
            topology="nsfnet",
            algorithm=name,
            traffic=dict(HOTSPOT_TRAFFIC),
            warmup_s=0.5,
            run_length_s=3.0,
            trials=1,
            master_seed=9,
        )
        run_trial(cfg, 0)
    assert len({(sha.hexdigest(), count) for sha, count in hashes.values()}) == 1
    assert min(count for _, count in hashes.values()) > 5000


def test_randomized_spatial_means_stay_in_half_to_threehalves():
    sim, net = make_net(seed=3)
    spec = TrafficSpec(temporal="P", spatial="R", msia_s=2.0, mpia_s=0.5)
    src = TrafficSource(net, spec, 0.0, 10.0)
    for node, msia in src.node_msia.items():
        assert 1.0 <= msia <= 3.0
    assert len(set(src.node_msia.values())) > 1


def test_uniform_spatial_means_identical():
    sim, net = make_net(seed=3)
    src = TrafficSource(net, TrafficSpec(msia_s=2.4), 0.0, 10.0)
    assert set(src.node_msia.values()) == {2.4}


def test_endpoints_never_self():
    sim, net = make_net(seed=1)
    src = TrafficSource(net, TrafficSpec(), 0.0, 10.0)
    for _ in range(500):
        s, d = src.pick_session_endpoints(4)
        assert s == 4 and d != 4 and 1 <= d <= 8


def test_tmphs_requires_window():
    with pytest.raises(ValueError, match="hot_spot_on_s"):
        TrafficSpec(temporal="TMPHS", hs_count=1)
    with pytest.raises(ValueError, match="hot_spot_off_s"):
        TrafficSpec(temporal="TMPHS", hs_count=1, hot_spot_on_s=1.0)


def test_tmphs_overlay_active_only_inside_window():
    sim, net = make_net(seed=2)
    spec = TrafficSpec(
        temporal="TMPHS", msia_s=1e9, mpia_s=1.0, stream="CBR",
        hs_count=1, mpia_hs_s=0.1, hot_spot_on_s=10.0, hot_spot_off_s=20.0,
        hot_spot_nodes=[4],
    )
    TrafficSource(net, spec, 0.0, 100.0).start()
    sim.run_until(100.0)
    gen = net.metrics.generated_count["data"]
    # 7 hot-spot sessions at 10 packets/s for 10 s, and no background noise
    expected = 7 * 10 * 10
    assert abs(gen - expected) / expected < 0.1


def test_persistent_hot_spot_overlay_runs_whole_span():
    sim, net = make_net(seed=2)
    spec = TrafficSpec(temporal="P", msia_s=1e9, mpia_s=1.0, stream="CBR",
                       hs_count=2, mpia_hs_s=0.5)
    src = TrafficSource(net, spec, 0.0, 50.0)
    src.start()
    sim.run_until(50.0)
    assert len(src.hot_spots) == 2
    gen = net.metrics.generated_count["data"]
    expected = 2 * 7 * 50.0 / 0.5
    assert abs(gen - expected) / expected < 0.05


def test_tmphs_window_past_t_end_sends_nothing_after_t_end():
    sim, net = make_net(seed=2)
    gen = generated_packets(net)
    spec = TrafficSpec(
        temporal="TMPHS", msia_s=1e9, mpia_s=1.0, stream="CBR",
        hs_count=1, mpia_hs_s=0.5, hot_spot_on_s=5.0, hot_spot_off_s=20.0,
        hot_spot_nodes=[4],
    )
    TrafficSource(net, spec, 0.0, 10.0).start()
    sim.run_until(15.0)
    # 7 hot-spot sessions, each sending at 5.5, 6.0, ..., 10.0
    assert len(gen) == 7 * 10
    assert max(t for t, _ in gen) == 10.0


@pytest.mark.parametrize(
    "overlay",
    [
        dict(temporal="TMPHS", hs_count=1, hot_spot_nodes=[4],
             hot_spot_on_s=5.0, hot_spot_off_s=5.0),
        dict(temporal="TMPHS", hs_count=1, hot_spot_nodes=[4],
             hot_spot_on_s=5.0, hot_spot_off_s=3.0),
        dict(temporal="P", hs_count=0),  # hs_count 0: no overlay, whatever mpia_hs_s says
    ],
    ids=["off_equals_on", "off_before_on", "hs_count_0"],
)
def test_empty_hot_spot_window_opens_no_session(overlay):
    sim, net = make_net(seed=2)
    spec = TrafficSpec(msia_s=1e9, mpia_hs_s=0.5, **overlay)
    src = TrafficSource(net, spec, 0.0, 10.0)
    sessions = []
    src._open_session = lambda *args: sessions.append(args)
    src.start()
    sim.run_until(10.0)
    assert sessions == []


def test_persistent_hot_spot_overlay_runs_whole_span_under_fixed_sessions():
    sim, net = make_net(seed=2)
    gen = generated_packets(net)
    spec = TrafficSpec(temporal="F", mpia_s=1.0, stream="CBR", fixed_pairs=[(1, 2)],
                       hs_count=2, mpia_hs_s=0.5)
    src = TrafficSource(net, spec, 0.0, 20.0)
    src.start()
    sim.run_until(25.0)
    assert len(src.hot_spots) == 2
    # the fixed pair sends at 1, 2, ..., 20 s and each of the 2 x 7 hot-spot
    # sessions at 0.5, 1.0, ..., 20 s
    assert len(gen) == 20 + 2 * 7 * 40
    assert sum(1 for t, _ in gen if t == 20.0) == 1 + 2 * 7
