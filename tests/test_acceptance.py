"""Acceptance suite: one test per criterion, each emitting a PASS/FAIL line.

Run lengths are scaled down from the full shipped recipes (tens to low
hundreds of simulated seconds instead of 10 x 1000 s) so the whole suite
finishes in minutes of wall time; every tolerance is enforced as stated.
"""

import json
import math
import random

from antsim.antnet import MODEL_DECAY, WINDOW_MAX, AntNetRouting, TripModel, _squash, queue_heuristic, reinforce_row, score_trip
from antsim.cli import ExperimentConfig, run_experiment, run_trial, sweep_ant_rate
from antsim.engine import Simulator
from antsim.metrics import MetricsCollector
from antsim.network import DATA, Network, Packet
from antsim.routing import dijkstra
from antsim.topology import builtin_topology, topology_stats

from test_baselines import build, trace_path
from test_routing_core import converge_distance_vectors, flood_reach

def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    return ok


BOTTLENECK_TRAFFIC = {
    "temporal": "F", "spatial": "U", "stream": "CBR",
    "mpia_s": 0.0003, "mean_packet_bits": 4096, "fixed_pairs": [[1, 6]],
}


def test_acceptance_1_bottleneck_multipath(tmp_path):
    thr = {}
    for algo in ("antnet", "daemon", "ospf", "spf", "bf", "pqr"):
        cfg = ExperimentConfig(
            topology="simplenet", algorithm=algo, traffic=dict(BOTTLENECK_TRAFFIC),
            run_length_s=120.0, warmup_s=30.0, trials=2, master_seed=7,
            out_dir=str(tmp_path))
        thr[algo] = run_experiment(cfg)["throughput_bps"]
    singles = max(thr["ospf"], thr["spf"], thr["bf"])
    ok = (
        thr["antnet"] >= 0.9 * thr["daemon"]
        and all(thr[a] <= 0.8 * thr["antnet"] for a in ("ospf", "spf", "bf"))
        and singles < thr["pqr"] <= 1.02 * max(thr["antnet"], thr["daemon"])
    )
    detail = ", ".join(f"{a}={thr[a] / 1e6:.2f}Mb/s" for a in thr)
    assert report(1, ok, f"single-flow multipath throughput: {detail}")


def test_acceptance_2_topology_stats():
    s8 = topology_stats(builtin_topology("simplenet"))
    s14 = topology_stats(builtin_topology("nsfnet"))
    s57 = topology_stats(builtin_topology("nttnet"))
    ok = (
        abs(s8[0] - 1.93) <= 0.05 and s8[2] == 8
        and s14[2] == 14 and s57[2] == 57
        and s57[1] / s57[0] > s14[1] / s14[0]
    )
    assert report(
        2, ok,
        f"hop stats simplenet=({s8[0]:.2f},{s8[1]:.2f},{s8[2]}), "
        f"nsfnet=({s14[0]:.2f},{s14[1]:.2f},{s14[2]}), "
        f"nttnet=({s57[0]:.2f},{s57[1]:.2f},{s57[2]})",
    )


OVERHEAD_TRAFFIC = {
    "temporal": "P", "spatial": "U", "stream": "GVBR",
    "msia_s": 2.0, "mpia_s": 0.005, "mean_packet_bits": 4096,
    "packets_per_session": 200,
}
OVERHEAD_REFERENCE = {
    "ospf": 0.15e-3, "bf": 1.17e-3, "spf": 0.86e-3,
    "antnet": 2.39e-3, "qr": 6.96e-3, "pqr": 9.93e-3,
}


def test_acceptance_3_overhead_ordering(tmp_path):
    params = {"spf": {"broadcast_interval_s": 3.0},
              "bf": {"broadcast_interval_s": 0.8},
              "ospf": {"broadcast_interval_s": 30.0}}
    ovh = {}
    for algo in ("antnet", "spf", "bf", "ospf", "qr", "pqr", "daemon"):
        cfg = ExperimentConfig(
            topology="nsfnet", algorithm=algo,
            algorithm_params=params.get(algo, {}),
            traffic=dict(OVERHEAD_TRAFFIC),
            run_length_s=60.0, warmup_s=20.0, trials=1, master_seed=11,
            out_dir=str(tmp_path))
        ovh[algo] = run_experiment(cfg)["overhead"]
    nonzero = {a: v for a, v in ovh.items() if v > 0}
    within_factor_3 = all(
        OVERHEAD_REFERENCE[a] / 3 <= ovh[a] <= OVERHEAD_REFERENCE[a] * 3
        for a in OVERHEAD_REFERENCE
    )
    ok = (
        all(v <= 1e-2 for v in ovh.values())
        and ovh["daemon"] == 0.0
        and min(nonzero, key=nonzero.get) == "ospf"
        and ovh["antnet"] > max(ovh["bf"], ovh["spf"])
        and ovh["antnet"] < ovh["pqr"]
        and within_factor_3
    )
    detail = ", ".join(f"{a}={v:.2e}" for a, v in ovh.items())
    assert report(3, ok, f"routing overhead ratios: {detail}")


def test_acceptance_4_ant_rate_sweep(tmp_path):
    cfg = ExperimentConfig(
        topology="nsfnet", algorithm="antnet",
        traffic={"temporal": "P", "spatial": "U", "stream": "GVBR",
                 "msia_s": 2.4, "mpia_s": 0.0015, "mean_packet_bits": 4096,
                 "packets_per_session": 100},
        run_length_s=60.0, warmup_s=30.0, trials=2, master_seed=21,
        out_dir=str(tmp_path))
    rates = [0.006, 0.025, 0.1, 0.3, 1.0, 3.0, 25.0]
    rows = sweep_ant_rate(cfg, rates)
    overheads = [r["overhead"] for r in rows]
    powers = [r["normalized_power"] for r in rows]
    decreasing = all(a > b for a, b in zip(overheads, overheads[1:]))
    interior = powers[1:-1]
    plateau = any(
        all(p >= 0.95 for p in interior[i : i + 3]) for i in range(len(interior) - 2)
    )
    decay = powers[0] < 0.95 and powers[-1] < 0.95
    ok = decreasing and plateau and decay
    assert report(
        4, ok,
        "launch-interval sweep normalized power "
        + str([round(p, 3) for p in powers])
        + f", overhead strictly decreasing={decreasing}",
    )


def test_acceptance_5_invariant_suite():
    rng = random.Random(99)
    # 10^6 randomized probability-row updates keep every row a distribution
    rows = [[1.0 / n] * n for n in (2, 3, 4, 5, 6) for _ in range(4)]
    for _ in range(50_000):
        for row in rows:
            reinforce_row(row, rng.randrange(len(row)), rng.random())
    sums_ok = all(abs(sum(row) - 1.0) < 1e-9 for row in rows)
    score_ok = True
    for _ in range(3000):
        m = TripModel(rng.uniform(0.01, 1.0))
        for _ in range(rng.randint(0, 20)):
            m.update(rng.uniform(0.01, 2.0), MODEL_DECAY, WINDOW_MAX)
        trips = sorted(rng.uniform(0.005, 3.0) for _ in range(4))
        scores = [score_trip(t, m, rng.randint(2, 6)) for t in trips]
        score_ok &= all(0 < s <= 1 for s in scores)
    heuristic_ok = all(
        abs(sum(queue_heuristic([rng.uniform(0, 1e5) for _ in range(n)])) - (n - 1))
        < 1e-9
        for n in range(2, 9)
        for _ in range(200)
    )
    window_ok = WINDOW_MAX == 300
    squash_ok = _squash(1.0, 4) / _squash(1.0, 4) == 1.0
    ok = sums_ok and score_ok and heuristic_ok and window_ok and squash_ok
    assert report(
        5, ok,
        f"invariants: row sums={sums_ok}, score range={score_ok}, "
        f"queue heuristic={heuristic_ok}, window max 300={window_ok}, "
        f"unit squash ratio={squash_ok}",
    )


def test_acceptance_6_oracle_equivalence():
    rng = random.Random(1234)
    bf_ok = True
    for _ in range(100):
        n = rng.randint(4, 12)
        # dyadic-rational costs keep float sums exact in any addition order
        edges = [(i, i + 1) for i in range(1, n)]
        for a in range(1, n + 1):
            for b in range(a + 2, n + 1):
                if rng.random() < 0.25:
                    edges.append((a, b))
        adjacency = {u: [] for u in range(1, n + 1)}
        for a, b in edges:
            c = rng.randint(1, 64) / 4.0
            adjacency[a].append((b, c))
            adjacency[b].append((a, c))
        tables = converge_distance_vectors(adjacency, n)
        for src in range(1, n + 1):
            dist, _ = dijkstra(adjacency, src)
            for dst in range(1, n + 1):
                if tables[src].best(dst)[0] != dist[dst]:
                    bf_ok = False
    flood_ok = True
    for name in ("simplenet", "nsfnet", "nttnet"):
        topo = builtin_topology(name)
        for origin in topo.nodes:
            reached, tx = flood_reach(topo, origin)
            flood_ok &= reached == set(topo.nodes) and tx <= len(topo.links)
    ok = bf_ok and flood_ok
    assert report(
        6, ok,
        f"distributed distance-vector == shortest-path oracle on 100 random "
        f"graphs: {bf_ok}; flood coverage: {flood_ok}",
    )


def test_acceptance_7_determinism(tmp_path):
    payloads = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(
            topology="simplenet", algorithm="antnet",
            traffic={"temporal": "P", "msia_s": 1.5, "mpia_s": 0.01,
                     "packets_per_session": 20},
            run_length_s=10.0, warmup_s=5.0, trials=1, master_seed=55,
            out_dir=str(tmp_path / sub))
        run_experiment(cfg)
        root = tmp_path / sub / "antnet"
        payloads.append({
            p.name: p.read_bytes() for p in sorted(root.iterdir())
        })
    ok = payloads[0] == payloads[1]
    assert report(7, ok, "repeated run with same config+seed is byte-identical")


def test_acceptance_8_idle_warmup_convergence():
    hits = 0
    for seed in range(10):
        sim = Simulator(master_seed=seed)
        net = Network(sim, builtin_topology("simplenet"), MetricsCollector())
        algo = AntNetRouting()
        net.set_algorithm(algo)
        sim.run_until(500.0)
        row = algo.tables[1][6]
        best = algo.neighbors[1][row.index(max(row))]
        hits += best in (3, 8)
    from antsim.baselines import BfRouting, OspfRouting, SpfRouting

    paths_ok = True
    for cls in (SpfRouting, BfRouting, OspfRouting):
        sim, net, _ = build(cls())
        sim.run_until(500.0)
        paths_ok &= len(trace_path(net.algorithm, 1, 6)) == 3
    ok = hits >= 9 and paths_ok
    assert report(
        8, ok,
        f"after idle warmup the learned next hop 1->6 is on a shortest path "
        f"in {hits}/10 trials; static/adaptive shortest-path routes use 3 hops: "
        f"{paths_ok}",
    )


def test_acceptance_9_transient_recovery():
    cfg = ExperimentConfig(
        topology="nsfnet", algorithm="antnet",
        traffic={"temporal": "TMPHS", "spatial": "U", "stream": "GVBR",
                 "msia_s": 2.4, "mpia_s": 0.005, "mean_packet_bits": 4096,
                 "packets_per_session": 50, "hs_count": 1, "mpia_hs_s": 0.04,
                 "hot_spot_on_s": 120.0, "hot_spot_off_s": 180.0,
                 "hot_spot_nodes": [4]},
        run_length_s=330.0, warmup_s=30.0, trials=1, master_seed=3)
    _, series = run_trial(cfg, 0)
    on, off = 150.0, 210.0  # absolute hot-spot window (offsets + warmup)
    baseline_rows = [r for r in series if r["time_s"] <= on and r["mean_delay_s"]]
    baseline = sum(r["mean_delay_s"] for r in baseline_rows) / len(baseline_rows)
    recovery_rows = [
        r for r in series if off < r["time_s"] <= off + 100.0 and r["mean_delay_s"]
    ]
    recovered = any(r["mean_delay_s"] <= 1.25 * baseline for r in recovery_rows)
    tracking_rows = [r for r in series[1:] if r["offered_bps"] > 0]
    ratios = [r["throughput_bps"] / r["offered_bps"] for r in tracking_rows]
    tracks = min(ratios) >= 0.7 and sum(ratios) / len(ratios) >= 0.95
    ok = recovered and tracks
    assert report(
        9, ok,
        f"hot-spot transient: baseline delay {baseline * 1e3:.1f} ms, recovery "
        f"within 100 s={recovered}, throughput tracks offered load "
        f"(min ratio {min(ratios):.2f})={tracks}",
    )
