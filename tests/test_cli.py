import json
import math
import os
import pathlib
import re

import pytest

from antsim import cli
from antsim.cli import (
    ConfigError,
    ExperimentConfig,
    aggregate_summaries,
    load_config,
    main,
    run_experiment,
    run_trial,
    sweep_ant_rate,
    sweep_load,
)
from antsim.network import ROUTING_INFO, Network

SMALL_TRAFFIC = {
    "temporal": "P",
    "spatial": "U",
    "stream": "GVBR",
    "msia_s": 1.5,
    "mpia_s": 0.01,
    "packets_per_session": 10,
}


def small_config(**overrides):
    base = dict(
        topology="simplenet",
        algorithm="antnet",
        traffic=dict(SMALL_TRAFFIC),
        run_length_s=8.0,
        warmup_s=4.0,
        trials=2,
        master_seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation_names_offending_key():
    with pytest.raises(ConfigError, match="algorithm"):
        small_config(algorithm="rip")
    with pytest.raises(ConfigError, match="trials"):
        small_config(trials=0)
    with pytest.raises(ConfigError, match="warmup_s"):
        small_config(warmup_s=-1.0)
    with pytest.raises(ConfigError, match="traffic"):
        small_config(traffic={"temporal": "X"})
    # NaN fails every comparison, so it must not slip past a range check
    with pytest.raises(ConfigError, match="warmup_s"):
        small_config(warmup_s=math.nan)
    with pytest.raises(ConfigError, match="run_length_s"):
        small_config(run_length_s=math.nan)
    with pytest.raises(ConfigError, match="traffic"):
        small_config(traffic=dict(SMALL_TRAFFIC, msia_s=math.nan))


@pytest.mark.parametrize("algorithm", sorted(cli.ALGORITHMS))
def test_unknown_algorithm_param_is_a_config_error(algorithm):
    with pytest.raises(ConfigError, match="algorithm_params.*bogus"):
        small_config(algorithm=algorithm, algorithm_params={"bogus": 1})


@pytest.mark.parametrize(
    "algorithm, key",
    [
        ("antnet", "heuristic_weight"),
        ("qr", "learning_rate"),
        ("pqr", "recovery_decay"),
        ("daemon", "queue_mix"),
        ("daemon", "queue_mean_tau_s"),
    ],
)
def test_fixed_constant_is_not_an_algorithm_param(algorithm, key):
    with pytest.raises(ConfigError, match=f"algorithm_params.*{key}"):
        small_config(algorithm=algorithm, algorithm_params={key: 0.5})


@pytest.mark.parametrize(
    "algorithm, key",
    [
        ("antnet", "launch_interval_s"),
        ("ospf", "broadcast_interval_s"),
        ("spf", "broadcast_interval_s"),
        ("bf", "broadcast_interval_s"),
    ],
)
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, True, "1"])
def test_nonpositive_interval_is_a_config_error(algorithm, key, bad):
    with pytest.raises(ConfigError, match=f"algorithm_params.*{key}"):
        small_config(algorithm=algorithm, algorithm_params={key: bad})


def test_load_config_rejects_unknown_keys(tmp_path, capsys):
    # (config, the key the error starts with, its message); a missing key is
    # named like an unknown one
    cases = [
        ({"topology": "simplenet", "algorithm": "spf", "typo_key": 1},
         "typo_key", "unknown configuration key"),
        ({"algorithm": "antnet"}, "topology", "missing key"),
        ({"topology": "simplenet"}, "algorithm", "missing key"),
    ]
    for raw, key, message in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"^{key}: {message}$"):
            load_config(str(path))
        out = tmp_path / "res"
        assert main(["run", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {key}: {message}\n" and captured.out == ""
        assert not out.exists()


def test_load_config_applies_overrides(tmp_path):
    path = tmp_path / "ok.json"
    # the file lacks algorithm, which the override supplies
    path.write_text(json.dumps({"topology": "simplenet", "traffic": SMALL_TRAFFIC}))
    cfg = load_config(str(path), algorithm="spf", trials=3, master_seed=9)
    assert cfg.trials == 3 and cfg.master_seed == 9
    assert cfg.label == "spf"


def test_run_trial_seeds_differ_by_index():
    cfg = small_config(trials=2)
    s0, _ = run_trial(cfg, 0)
    s1, _ = run_trial(cfg, 1)
    assert s0["seed"] == 123 and s1["seed"] == 124
    assert s0["throughput_bps"] != s1["throughput_bps"]


def test_run_experiment_writes_expected_files(tmp_path):
    cfg = small_config(out_dir=str(tmp_path))
    agg = run_experiment(cfg)
    out = tmp_path / "antnet"
    names = sorted(os.listdir(out))
    assert names == [
        "aggregate.json",
        "trial_0.json",
        "trial_0_series.csv",
        "trial_1.json",
        "trial_1_series.csv",
    ]
    on_disk = json.loads((out / "aggregate.json").read_text())
    assert on_disk["throughput_bps"] == agg["throughput_bps"]
    series = (out / "trial_0_series.csv").read_text().splitlines()
    assert series[0] == "time_s,throughput_bps,mean_delay_s,offered_bps"
    assert len(series) > 1


def test_determinism_byte_identical_outputs(tmp_path):
    cfg1 = small_config(out_dir=str(tmp_path / "a"), trials=1)
    cfg2 = small_config(out_dir=str(tmp_path / "b"), trials=1)
    run_experiment(cfg1)
    run_experiment(cfg2)
    for name in ("trial_0.json", "aggregate.json", "trial_0_series.csv"):
        a = (tmp_path / "a" / "antnet" / name).read_bytes()
        b = (tmp_path / "b" / "antnet" / name).read_bytes()
        assert a == b, name


def test_aggregate_throughput_is_mean_of_trials():
    cfg = small_config(trials=3)
    summaries = [run_trial(cfg, i)[0] for i in range(3)]
    agg = aggregate_summaries(summaries)
    expected = math.fsum(s["throughput_bps"] for s in summaries) / 3
    assert agg["throughput_bps"] == expected
    assert agg["trials"] == 3


def test_workload_identical_across_algorithms():
    generated = {}
    for algo in ("ospf", "bf", "daemon"):
        s, _ = run_trial(small_config(algorithm=algo, trials=1), 0)
        generated[algo] = s["generated"]["data"]
    assert len(set(generated.values())) == 1


def record_routing_arrivals(monkeypatch):
    """Arrival time of every routing packet, its transmission end plus the
    link's propagation delay, recorded when the transmission ends."""
    arrivals = []
    tx_done = Network._tx_done

    def recording(net, port, packet, tx_time):
        if packet.kind == ROUTING_INFO:
            arrivals.append(net.sim.now + port.prop_delay_s)
        tx_done(net, port, packet, tx_time)

    monkeypatch.setattr(Network, "_tx_done", recording)
    return arrivals


@pytest.mark.parametrize("algorithm", ["spf", "pqr", "bf"])
def test_routing_deliveries_count_every_arrival_by_run_end(monkeypatch, algorithm):
    arrivals = record_routing_arrivals(monkeypatch)
    elab_s = cli.ALGORITHMS[algorithm].elab_s
    cfg = small_config(algorithm=algorithm, warmup_s=1.0, run_length_s=1.0, trials=1)
    run_trial(cfg, 0)
    # a cut halfway into the elaboration of the first packet to arrive after 1.3 s
    inside = next(t for t in arrivals if t > 1.3) + elab_s / 2
    cuts_in_elaboration = 0
    for cut in (1.2, 1.5, 1.75, inside, 2.0):
        arrivals.clear()
        cfg = small_config(algorithm=algorithm, warmup_s=1.0, run_length_s=cut - 1.0, trials=1)
        t_end = cfg.warmup_s + cfg.run_length_s
        summary, _ = run_trial(cfg, 0)
        arrived = [t for t in arrivals if t <= t_end]
        assert summary["delivered"].get(ROUTING_INFO, 0) == len(arrived)
        # a packet's elaboration ends at its arrival plus elab_s: one ended after this run
        cuts_in_elaboration += any(t_end < t + elab_s for t in arrived)
    assert cuts_in_elaboration > 0


def test_sweep_rate_requires_antnet(tmp_path):
    with pytest.raises(ConfigError):
        sweep_ant_rate(small_config(algorithm="spf", out_dir=str(tmp_path)), [0.3])


def test_sweeps_validate_every_point_before_the_first_trial(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_trial", lambda cfg, trial: ran.append(cfg))
    cfg = small_config(out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="launch_interval_s"):
        sweep_ant_rate(cfg, [0.3, 0.0])
    with pytest.raises(ConfigError, match="traffic"):
        sweep_load(cfg, [2.0, math.nan])
    with pytest.raises(ConfigError, match="msia_s"):
        sweep_load(cfg, [2.0, math.inf])
    assert ran == [] and os.listdir(tmp_path) == []


def test_sweep_values_that_share_a_label_are_rejected_before_the_first_trial(
    tmp_path, monkeypatch
):
    # 2.0 and 2.0000001 agree to 6 significant digits, so both would run as
    # "rate_2" and the second point's trial files would overwrite the first's
    ran = []
    monkeypatch.setattr(cli, "run_trial", lambda cfg, trial: ran.append(cfg))
    cfg = small_config(out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match=r"2\.0 and 2\.0000001 .*'rate_2'"):
        sweep_ant_rate(cfg, [0.3, 2.0, 2.0000001])
    with pytest.raises(ConfigError, match=r"^traffic\.msia_s: values 1\.5 and 1\.5 "):
        sweep_load(cfg, [1.5, 1.5])
    assert ran == [] and os.listdir(tmp_path) == []


def test_main_sweep_rate_rejects_zero_rate(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_trial", lambda cfg, trial: ran.append(cfg))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"topology": "simplenet", "algorithm": "antnet",
                                "traffic": SMALL_TRAFFIC, "trials": 1}))
    out = tmp_path / "res"
    assert main(["sweep-rate", str(path), "--out", str(out), "--rates", "0"]) == 2
    assert "config error" in capsys.readouterr().err
    assert ran == [] and not out.exists()


def test_sweep_rate_single_point_normalizes_to_one(tmp_path):
    rows = sweep_ant_rate(small_config(trials=1, out_dir=str(tmp_path)), [0.3])
    assert len(rows) == 1
    assert rows[0]["normalized_power"] == 1.0


def test_sweep_load_one_aggregate_per_point(tmp_path):
    cfg = small_config(trials=1, out_dir=str(tmp_path))
    rows = sweep_load(cfg, [2.0, 1.0])
    assert [r["msia_s"] for r in rows] == [2.0, 1.0]
    assert all("throughput_bps" in r for r in rows)
    # heavier load (smaller inter-arrival mean) carries more bits
    assert rows[1]["throughput_bps"] > rows[0]["throughput_bps"]


def test_main_sweeps_print_one_line_per_point(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"topology": "simplenet", "algorithm": "antnet",
                                "traffic": SMALL_TRAFFIC, "run_length_s": 8.0,
                                "warmup_s": 4.0, "trials": 1, "master_seed": 123}))
    out = tmp_path / "res"
    number = r"[-+.\deinf]+"
    assert main(["sweep-rate", str(path), "--out", str(out), "--rates", "0.3", "0.6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["interval=0.3", "interval=0.6"]
    for line in lines:
        assert re.fullmatch(
            rf"interval={number} overhead={number} normalized_power=({number}|None)", line
        )
    rows = json.loads((out / "rate_sweep.json").read_text())
    assert [r["launch_interval_s"] for r in rows] == [0.3, 0.6]

    assert main(["sweep-load", str(path), "--out", str(out), "--msia", "2", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["msia=2", "msia=1"]
    for line in lines:
        assert re.fullmatch(rf"msia={number} throughput={number} p90=({number}|None)", line)
    rows = json.loads((out / "antnet_load_sweep.json").read_text())
    assert [r["msia_s"] for r in rows] == [2.0, 1.0]


def test_aggregate_of_trials_without_deliveries_has_no_delays():
    # the first sessions start after the 1 ms run has ended
    cfg = small_config(warmup_s=0.0, run_length_s=0.001)
    summaries = [run_trial(cfg, trial)[0] for trial in range(2)]
    assert [s["delay_samples"] for s in summaries] == [0, 0]
    agg = aggregate_summaries(summaries)
    assert agg["throughput_bps"] == 0.0
    for key in ("delay_mean_s", "delay_p50_s", "delay_p90_s", "power"):
        assert agg[key] is None, key


def test_main_topo_stats(tmp_path, capsys):
    assert main(["topo-stats", "simplenet"]) == 0
    out = capsys.readouterr().out
    assert "mean_hops=1.929" in out and "nodes=8" in out

    not_json = tmp_path / "bad.json"
    not_json.write_text("{not json")
    unreadable = tmp_path / "dir.json"
    unreadable.mkdir()  # exists, but open() fails
    one_node = tmp_path / "one.json"
    one_node.write_text(json.dumps(ONE_NODE_TOPOLOGY))
    for topology in ("bogusnet", str(not_json), str(unreadable), str(one_node)):
        assert main(["topo-stats", topology]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: topology: ") and captured.out == ""


def test_main_run_and_error_paths(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "topology": "simplenet", "algorithm": "spf", "traffic": SMALL_TRAFFIC,
        "run_length_s": 5.0, "warmup_s": 2.0, "trials": 1, "master_seed": 1,
    }))
    rc = main(["run", str(path), "--out", str(tmp_path / "res")])
    assert rc == 0
    assert (tmp_path / "res" / "spf" / "aggregate.json").exists()
    printed = json.loads(capsys.readouterr().out)
    assert printed["algorithm"] == "spf"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"topology": "simplenet", "algorithm": "nope"}))
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    # a TMPHS window is checked with the config, before any trial runs
    tmphs = tmp_path / "tmphs.json"
    tmphs.write_text(json.dumps({
        "topology": "simplenet", "algorithm": "spf", "trials": 1,
        "traffic": dict(SMALL_TRAFFIC, temporal="TMPHS", hs_count=1),
    }))
    assert main(["run", str(tmphs), "--out", str(tmp_path / "tmphs_res")]) == 2
    assert "hot_spot_on_s" in capsys.readouterr().err
    assert not (tmp_path / "tmphs_res").exists()


DISCONNECTED_TOPOLOGY = {
    "nodes": 4,
    "links": [
        {"a": 1, "b": 2, "bandwidth_bps": 1e6, "prop_delay_s": 0.001},
        {"a": 3, "b": 4, "bandwidth_bps": 1e6, "prop_delay_s": 0.001},
    ],
}
# node 3 links to itself: a malformed graph that is connected and has reverses
SELF_LOOP_TOPOLOGY = {
    "nodes": 3,
    "links": [
        {"a": a, "b": b, "bandwidth_bps": 1e6, "prop_delay_s": 0.001}
        for a, b in ((1, 2), (2, 3), (3, 3))
    ],
}
# a lone node: no pair of nodes for a session, no hop to average
ONE_NODE_TOPOLOGY = {"nodes": 1, "links": []}
RUN = ["run"]
# a 2-node graph with one link whose fields the table below overrides
ONE_LINK = {"a": 1, "b": 2, "bandwidth_bps": 1e6, "prop_delay_s": 0.001}


def two_node_topology(**link):
    return json.dumps({"nodes": 2, "links": [dict(ONE_LINK, **link)]})


# one sampled hot spot from 1 s to 2 s after warm-up
TMPHS_TRAFFIC = dict(
    SMALL_TRAFFIC, temporal="TMPHS", hs_count=1, hot_spot_on_s=1.0, hot_spot_off_s=2.0
)


@pytest.mark.parametrize(
    "key, overrides, topology_file, command",
    [
        pytest.param(
            "traffic", {"traffic": dict(SMALL_TRAFFIC, hs_count=1, hot_spot_nodes=[99])},
            None, RUN, id="hot_spot_nodes",
        ),
        pytest.param("traffic", {"traffic": dict(SMALL_TRAFFIC, hs_count=8)}, None, RUN,
                     id="hs_count"),
        pytest.param("topology", {"topology": "bogusnet"}, None, RUN, id="unknown_topology"),
        pytest.param(
            "traffic", {"traffic": dict(SMALL_TRAFFIC, temporal="F", fixed_pairs=[[1, 99]])},
            None, RUN, id="fixed_pair_unknown_node",
        ),
        pytest.param(
            "traffic", {"traffic": dict(SMALL_TRAFFIC, temporal="F", fixed_pairs=[[3, 3]])},
            None, RUN, id="fixed_pair_same_node",
        ),
        pytest.param("topology", {}, "{not json", RUN, id="topology_file_not_json"),
        pytest.param("topology", {}, json.dumps(DISCONNECTED_TOPOLOGY), RUN,
                     id="topology_file_not_connected"),
        pytest.param("topology", {}, json.dumps(SELF_LOOP_TOPOLOGY), RUN,
                     id="topology_file_self_loop"),
        pytest.param("topology", {}, json.dumps(ONE_NODE_TOPOLOGY), RUN,
                     id="topology_file_one_node"),
        pytest.param(
            "traffic", {"traffic": dict(SMALL_TRAFFIC, hs_count=1, hot_spot_nodes=[99])},
            None, ["sweep-load", "--msia", "2.0", "1.0"], id="sweep_load_hot_spot_nodes",
        ),
        pytest.param("algorithm", {"algorithm": ["spf"]}, None, RUN, id="algorithm_list"),
        pytest.param("label", {"label": 3}, None, RUN, id="label_int"),
        pytest.param("trials", {"trials": "3"}, None, RUN, id="trials_str"),
        pytest.param("trials", {"trials": True}, None, RUN, id="trials_bool"),
        pytest.param("trials", {"trials": 1.0}, None, RUN, id="trials_float"),
        pytest.param("master_seed", {"master_seed": "7"}, None, RUN, id="master_seed_str"),
        pytest.param("master_seed", {"master_seed": False}, None, RUN, id="master_seed_bool"),
        pytest.param("warmup_s", {"warmup_s": "1"}, None, RUN, id="warmup_s_str"),
        pytest.param("warmup_s", {"warmup_s": None}, None, RUN, id="warmup_s_null"),
        pytest.param("run_length_s", {"run_length_s": [2.0]}, None, RUN,
                     id="run_length_s_list"),
        pytest.param("run_length_s", {"run_length_s": True}, None, RUN,
                     id="run_length_s_bool"),
        pytest.param("traffic", {"traffic": [1]}, None, RUN, id="traffic_list"),
        pytest.param("algorithm_params", {"algorithm_params": "x"}, None, RUN,
                     id="algorithm_params_str"),
        pytest.param("run_length_s", {"run_length_s": math.inf}, None, RUN,
                     id="run_length_s_inf"),
        pytest.param("warmup_s", {"warmup_s": math.inf}, None, RUN, id="warmup_s_inf"),
        pytest.param("traffic", {"traffic": dict(SMALL_TRAFFIC, msia_s=math.inf)}, None, RUN,
                     id="msia_s_inf"),
        pytest.param("traffic", {"traffic": dict(SMALL_TRAFFIC, mpia_s=math.inf)}, None, RUN,
                     id="mpia_s_inf"),
        pytest.param("traffic", {"traffic": dict(SMALL_TRAFFIC, mean_packet_bits=math.inf)},
                     None, RUN, id="mean_packet_bits_inf"),
        pytest.param("traffic", {"traffic": dict(SMALL_TRAFFIC, hs_count=1.5)}, None, RUN,
                     id="hs_count_float"),
        pytest.param(
            "traffic", {"traffic": dict(TMPHS_TRAFFIC, hot_spot_on_s=-1.0)}, None, RUN,
            id="hot_spot_on_s_negative",
        ),
        pytest.param(
            "traffic", {"traffic": dict(TMPHS_TRAFFIC, hot_spot_on_s=math.nan)}, None, RUN,
            id="hot_spot_on_s_nan",
        ),
        pytest.param(
            "traffic", {"traffic": dict(SMALL_TRAFFIC, packets_per_session=True)}, None, RUN,
            id="packets_per_session_bool",
        ),
        pytest.param("traffic", {"traffic": dict(SMALL_TRAFFIC, hot_spot_nodes=[2, 2])}, None,
                     RUN, id="hot_spot_nodes_repeated"),
        pytest.param("traffic", {"traffic": dict(SMALL_TRAFFIC, hot_spot_nodes=[True])}, None,
                     RUN, id="hot_spot_nodes_bool"),
        pytest.param("traffic", {"traffic": dict(TMPHS_TRAFFIC, hs_count=0)}, None, RUN,
                     id="tmphs_without_hot_spot"),
        pytest.param(
            "traffic", {"traffic": dict(SMALL_TRAFFIC, temporal="F", fixed_pairs=[[True, 2]])},
            None, RUN, id="fixed_pair_bool",
        ),
        pytest.param("algorithm_params", {"algorithm_params": {"broadcast_interval_s": True}},
                     None, RUN, id="broadcast_interval_s_bool"),
        pytest.param("topology", {}, two_node_topology(a=True), RUN, id="link_endpoint_bool"),
        pytest.param("topology", {}, two_node_topology(bandwidth_bps=True), RUN,
                     id="link_bandwidth_bool"),
        pytest.param("topology", {}, two_node_topology(prop_delay_s=True), RUN,
                     id="link_delay_bool"),
        pytest.param("traffic: temporal", {"traffic": dict(SMALL_TRAFFIC, temporal="X")}, None,
                     RUN, id="temporal_unknown"),
        pytest.param("traffic: spatial", {"traffic": dict(SMALL_TRAFFIC, spatial="X")}, None,
                     RUN, id="spatial_unknown"),
        pytest.param("traffic: stream", {"traffic": dict(SMALL_TRAFFIC, stream="X")}, None,
                     RUN, id="stream_unknown"),
        pytest.param("traffic: foo", {"traffic": dict(SMALL_TRAFFIC, foo=1)}, None, RUN,
                     id="traffic_key_unknown"),
        pytest.param(
            "traffic: hot_spot_nodes",
            {"traffic": dict(SMALL_TRAFFIC, hs_count=1, hot_spot_nodes=[])}, None, RUN,
            id="hot_spot_nodes_empty",
        ),
        pytest.param(
            "traffic: hot_spot_nodes",
            {"traffic": dict(SMALL_TRAFFIC, temporal="F", hs_count=1, hot_spot_nodes=[])}, None,
            RUN, id="hot_spot_nodes_empty_fixed",
        ),
        pytest.param("traffic: hot_spot_nodes",
                     {"traffic": dict(TMPHS_TRAFFIC, hot_spot_nodes=[])}, None, RUN,
                     id="hot_spot_nodes_empty_tmphs"),
        pytest.param("traffic: fixed_pairs",
                     {"traffic": dict(SMALL_TRAFFIC, fixed_pairs=[[1, 6]])}, None, RUN,
                     id="fixed_pairs_under_P"),
        pytest.param("traffic: fixed_pairs",
                     {"traffic": dict(SMALL_TRAFFIC, temporal="F", fixed_pairs=[])}, None, RUN,
                     id="fixed_pairs_empty"),
        pytest.param("traffic: hot_spot_nodes",
                     {"traffic": dict(SMALL_TRAFFIC, hot_spot_nodes=[4])}, None, RUN,
                     id="hot_spot_nodes_without_hs_count"),
        pytest.param("traffic: hot_spot_on_s",
                     {"traffic": dict(SMALL_TRAFFIC, hot_spot_on_s=1.0)}, None, RUN,
                     id="hot_spot_on_s_under_P"),
        pytest.param("topology", {}, json.dumps([ONE_LINK]), RUN, id="topology_file_list"),
        pytest.param("topology: links", {}, json.dumps({"nodes": 2, "links": {"0": ONE_LINK}}),
                     RUN, id="topology_links_object"),
        pytest.param("topology: links: item 0", {}, json.dumps({"nodes": 2, "links": [[1, 2]]}),
                     RUN, id="topology_link_list"),
        pytest.param("topology: links", {}, json.dumps({"nodes": 2}), RUN,
                     id="topology_links_missing"),
        pytest.param("topology: nodes", {}, json.dumps({"links": [ONE_LINK]}), RUN,
                     id="topology_nodes_missing"),
        pytest.param(
            "topology: links: item 0: b", {},
            json.dumps({"nodes": 2, "links": [{k: v for k, v in ONE_LINK.items() if k != "b"}]}),
            RUN, id="topology_link_without_b",
        ),
        pytest.param(
            "topology: links: item 0: prop_delay_s", {},
            json.dumps({"nodes": 2, "links": [{"a": 1, "b": 2, "bandwidth_bps": 1e6}]}), RUN,
            id="topology_link_without_prop_delay_s",
        ),
    ],
)
def test_bad_experiment_exits_2_before_any_output(
    tmp_path, capsys, monkeypatch, key, overrides, topology_file, command
):
    raw = {"topology": "simplenet", "algorithm": "spf", "traffic": SMALL_TRAFFIC,
           "run_length_s": 2.0, "warmup_s": 1.0, "trials": 1, **overrides}
    if topology_file is not None:
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(topology_file)
        raw["topology"] = str(topo_path)
    with pytest.raises(ConfigError, match=f"^{key}: "):
        ExperimentConfig(**raw)

    ran = []
    monkeypatch.setattr(cli, "run_trial", lambda cfg, trial: ran.append(trial))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "res"
    assert main([command[0], str(path), "--out", str(out), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and "Traceback" not in err
    assert ran == [] and not out.exists()


@pytest.mark.parametrize(
    "name, content",
    [
        pytest.param("missing.json", None, id="missing"),
        pytest.param("dir.json", "DIRECTORY", id="unreadable"),
        pytest.param("bad.json", "{bad", id="not_json"),
        pytest.param("latin1.json", b'{"topology": "caf\xe9"}', id="not_utf8"),
        pytest.param("list.json", json.dumps([{"topology": "simplenet"}]), id="not_object"),
    ],
)
def test_unusable_config_file_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content == "DIRECTORY":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
        load_config(str(path))
    out = tmp_path / "res"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and "Traceback" not in err
    assert not out.exists()


def test_topology_is_resolved_once_per_experiment(tmp_path, monkeypatch):
    calls = []
    resolve = cli.resolve_topology
    monkeypatch.setattr(cli, "resolve_topology", lambda name: calls.append(name) or resolve(name))
    run_experiment(
        small_config(trials=3, run_length_s=2.0, warmup_s=1.0, out_dir=str(tmp_path))
    )
    assert calls == ["simplenet"]


def test_readme_example_config_builds():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("A config is a flat JSON object", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig(**json.loads(example))
    assert cfg.topo.n_nodes == 14 and cfg.traffic_spec.packets_per_session == 200


def test_shipped_recipe_configs_load():
    from importlib import resources

    for name in (
        "simplenet_bottleneck.json",
        "nsfnet_up_overhead.json",
        "nsfnet_up_load.json",
        "nsfnet_transient.json",
        "ant_rate_sweep.json",
    ):
        raw = json.loads(
            resources.files("antsim.configs").joinpath(name).read_text()
        )
        cfg = ExperimentConfig(**raw)
        assert cfg.trials == 10
        assert cfg.warmup_s == 500.0
        assert cfg.run_length_s == 1000.0


def test_benchmark_workload_configs_load():
    # reads perfbench/workloads.json only: a tightened config rule that
    # rejected a workload would fail every benchmark run
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"
    workloads = json.loads(path.read_text())["workloads"]
    assert len(workloads) >= 4
    for name, spec in workloads.items():
        cfg = ExperimentConfig(**dict(spec["config"], master_seed=0, trials=1, label=name))
        assert cfg.algorithm == spec["config"]["algorithm"], name
