"""Experiment runner: config parsing, multi-trial execution, JSON/CSV output."""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from antsim.antnet import AntNetRouting
from antsim.baselines import (
    BfRouting,
    DaemonRouting,
    OspfRouting,
    PQRouting,
    QRouting,
    SpfRouting,
)
from antsim.checks import ConfigError, check_number
from antsim.engine import Simulator
from antsim.metrics import MetricsCollector, power
from antsim.network import Network
from antsim.topology import builtin_topology, load_topology_file, topology_stats
from antsim.traffic import TrafficSource, TrafficSpec

ALGORITHMS = {
    cls.name: cls
    for cls in (
        AntNetRouting,
        OspfRouting,
        SpfRouting,
        BfRouting,
        QRouting,
        PQRouting,
        DaemonRouting,
    )
}


# (key, accepted types, name in the error) of the top-level values that are
# not numbers, whose type the checks below and run_experiment rely on
_FIELD_TYPES = [
    ("algorithm", str, "a string"),
    ("out_dir", str, "a string"),
    ("label", str, "a string"),
    ("traffic", dict, "an object"),
    ("algorithm_params", dict, "an object"),
]


@dataclass
class ExperimentConfig:
    topology: str
    algorithm: str
    traffic: dict = field(default_factory=dict)
    run_length_s: float = 1000.0
    warmup_s: float = 500.0
    trials: int = 10
    master_seed: int = 0
    algorithm_params: dict = field(default_factory=dict)
    out_dir: str = "results"
    label: Optional[str] = None

    def __post_init__(self):
        if self.label is None:
            self.label = self.algorithm
        for key, types, expected in _FIELD_TYPES:
            value = getattr(self, key)
            if not isinstance(value, types):
                raise ConfigError(f"{key}: must be {expected}, got {type(value).__name__}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: unknown value {self.algorithm!r}")
        check_number("trials", self.trials, 0, integer=True)
        check_number("master_seed", self.master_seed, integer=True)
        check_number("warmup_s", self.warmup_s, 0, strict=False)
        check_number("run_length_s", self.run_length_s, 0)
        # derived, not a field: every trial builds its network on this graph
        self.topo = resolve_topology(self.topology)
        for key in self.traffic:
            if key not in TrafficSpec.__dataclass_fields__:
                raise ConfigError(f"traffic: {key}: unknown configuration key")
        try:
            self.traffic_spec = TrafficSpec(**self.traffic)
            self.traffic_spec.check_topology(self.topo)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"traffic: {exc}") from exc
        accepted = inspect.signature(ALGORITHMS[self.algorithm]).parameters
        for key in self.algorithm_params:
            if key not in accepted:
                raise ConfigError(
                    f"algorithm_params: {self.algorithm} has no parameter {key!r}"
                    f" (accepted: {', '.join(accepted) or 'none'})"
                )
        try:
            build_algorithm(self.algorithm, self.algorithm_params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"algorithm_params: {exc}") from exc


def load_config(path: str, **overrides) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{path}: config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    params = inspect.signature(ExperimentConfig).parameters
    for key in raw:
        if key not in params:
            raise ConfigError(f"{key}: unknown configuration key")
    for key, param in params.items():
        if param.default is param.empty and key not in raw:
            raise ConfigError(f"{key}: missing key")
    return ExperimentConfig(**raw)


def resolve_topology(name: str):
    """The topology in the JSON file at path ``name``, else the built-in one;
    a ``ConfigError`` under ``topology`` when neither can be loaded."""
    try:
        if os.path.exists(name):
            return load_topology_file(name)
        return builtin_topology(name)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"topology: {exc}") from exc


def build_algorithm(name: str, params: dict):
    return ALGORITHMS[name](**params)


def run_trial(cfg: ExperimentConfig, trial: int) -> Tuple[dict, List[dict]]:
    """One self-contained simulation: routing-only warmup, then measured run."""
    seed = cfg.master_seed + trial
    sim = Simulator(master_seed=seed)
    t_end = cfg.warmup_s + cfg.run_length_s
    metrics = MetricsCollector(t_start=cfg.warmup_s, t_end=t_end)
    net = Network(sim, cfg.topo, metrics)
    algo = build_algorithm(cfg.algorithm, cfg.algorithm_params)
    net.set_algorithm(algo)
    TrafficSource(net, cfg.traffic_spec, cfg.warmup_s, t_end).start()
    sim.run_until(t_end)
    summary = metrics.summarize(t_end, net.total_bw_bps)
    summary["trial"] = trial
    summary["seed"] = seed
    summary["algorithm"] = cfg.algorithm
    summary["topology"] = cfg.topology
    return summary, metrics.windowed_series(t_end)


def _mean(xs: List[Optional[float]]) -> Optional[float]:
    vals = [x for x in xs if x is not None]
    if not vals:
        return None
    return math.fsum(vals) / len(vals)


def aggregate_summaries(summaries: List[dict]) -> dict:
    throughput = _mean([s["throughput_bps"] for s in summaries])
    p90 = _mean([s["delay_p90_s"] for s in summaries])
    return {
        "algorithm": summaries[0]["algorithm"],
        "topology": summaries[0]["topology"],
        "trials": len(summaries),
        "throughput_bps": throughput,
        "delay_mean_s": _mean([s["delay_mean_s"] for s in summaries]),
        "delay_p50_s": _mean([s["delay_p50_s"] for s in summaries]),
        "delay_p90_s": p90,
        "overhead": _mean([s["overhead"] for s in summaries]),
        "power": power(throughput, p90),
    }


def _dump_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _dump_series_csv(path: str, series: List[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["time_s", "throughput_bps", "mean_delay_s", "offered_bps"]
        )
        writer.writeheader()
        writer.writerows(series)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all trials and write their per-trial and aggregate result files."""
    out = os.path.join(cfg.out_dir, cfg.label)
    os.makedirs(out, exist_ok=True)
    summaries = []
    for trial in range(cfg.trials):
        summary, series = run_trial(cfg, trial)
        summaries.append(summary)
        _dump_json(os.path.join(out, f"trial_{trial}.json"), summary)
        _dump_series_csv(os.path.join(out, f"trial_{trial}_series.csv"), series)
    agg = aggregate_summaries(summaries)
    _dump_json(os.path.join(out, "aggregate.json"), agg)
    return agg


def sweep(cfg: ExperimentConfig, path: str, values: List[float], label: str) -> List[dict]:
    """One aggregate per value of the dotted config key ``path``, such as
    ``"traffic.msia_s"``; each aggregate also holds its value under the
    key's last part. Point ``v`` runs as label ``f"{label}_{v:g}"``. Every
    point is validated before the first trial, and two values that share a
    label are a ``ConfigError``, as the later point's files would overwrite
    the earlier one's."""
    section, key = path.split(".")
    labels = [f"{label}_{v:g}" for v in values]
    for i, name in enumerate(labels):
        first = labels.index(name)
        if first != i:
            raise ConfigError(
                f"{path}: values {values[first]!r} and {values[i]!r} both run as label {name!r}"
            )
    points = [
        replace(cfg, label=name, **{section: dict(getattr(cfg, section), **{key: v})})
        for v, name in zip(values, labels)
    ]
    rows = []
    for v, point in zip(values, points):
        agg = run_experiment(point)
        agg[key] = v
        rows.append(agg)
    return rows


def sweep_ant_rate(cfg: ExperimentConfig, rates: List[float]) -> List[dict]:
    """Power-vs-overhead table over ant launch intervals (antnet only)."""
    if cfg.algorithm != "antnet":
        raise ConfigError("algorithm: sweep-rate requires antnet")
    points = sweep(cfg, "algorithm_params.launch_interval_s", rates, "rate")
    rows = [{k: agg[k] for k in ("launch_interval_s", "overhead", "power")} for agg in points]
    peak = max((r["power"] for r in rows if r["power"] is not None), default=None)
    for r in rows:
        r["normalized_power"] = (
            r["power"] / peak if peak and r["power"] is not None else None
        )
    _dump_json(os.path.join(cfg.out_dir, "rate_sweep.json"), rows)
    return rows


def sweep_load(cfg: ExperimentConfig, msia_list: List[float]) -> List[dict]:
    """One aggregate per session inter-arrival load point."""
    rows = sweep(cfg, "traffic.msia_s", msia_list, f"{cfg.label}_msia")
    _dump_json(os.path.join(cfg.out_dir, f"{cfg.label}_load_sweep.json"), rows)
    return rows


# -- command line -----------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="antsim", description="Adaptive network routing simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--trials", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)

    p_run = sub.add_parser(
        "run", parents=[common], help="run a multi-trial experiment from a config file"
    )
    p_run.add_argument("--algorithm", default=None)

    p_rate = sub.add_parser("sweep-rate", parents=[common], help="sweep the ant launch interval")
    p_rate.add_argument("--rates", type=float, nargs="+", required=True)

    p_load = sub.add_parser(
        "sweep-load", parents=[common], help="sweep the session inter-arrival mean"
    )
    p_load.add_argument("--msia", type=float, nargs="+", required=True)

    p_stats = sub.add_parser("topo-stats", help="hop-distance statistics of a topology")
    p_stats.add_argument("topology", help="builtin name or JSON file path")

    args = parser.parse_args(argv)

    try:
        if args.command == "topo-stats":
            mean, std, n = topology_stats(resolve_topology(args.topology))
            print(f"{args.topology}: mean_hops={mean:.3f} std_hops={std:.3f} nodes={n}")
            return 0
        cfg = load_config(
            args.config,
            out_dir=args.out,
            trials=args.trials,
            master_seed=args.seed,
            algorithm=getattr(args, "algorithm", None),
        )
        if args.command == "run":
            agg = run_experiment(cfg)
            print(json.dumps(agg, sort_keys=True, indent=2))
        elif args.command == "sweep-rate":
            rows = sweep_ant_rate(cfg, args.rates)
            for r in rows:
                print(
                    f"interval={r['launch_interval_s']:g} overhead={r['overhead']:.6g} "
                    f"normalized_power={r['normalized_power']}"
                )
        elif args.command == "sweep-load":
            rows = sweep_load(cfg, args.msia)
            for r in rows:
                print(
                    f"msia={r['msia_s']:g} throughput={r['throughput_bps']:.6g} "
                    f"p90={r['delay_p90_s']}"
                )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
