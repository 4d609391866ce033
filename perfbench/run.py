"""Benchmark of antsim: timed trials of one workload, sized to a host time.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads are defined in
perfbench/workloads.json; trial i of a run gets master_seed = N * 1000 + i.
Each trial runs in a fresh interpreter (trial.py), one after another. The
number of trials is fixed by S and the workload's trial_host_s, the host time
one trial takes on the reference host, so that a run takes about S seconds
there and the same N and S always run the same configs, on any host.

--trace 0 runs each trial with calibration slices in its event loop and
around its output phase (trial.py --calibrate, calibrate.py). Each trial's
times are divided by its host speed factor, and every metric is the median
over the trials. --trace 1 runs each config untraced and then traced (at
least one such pair), both without calibration, and reports the per-layer
metrics of tracer.py, in raw host time, as medians over the traced trials,
plus the tracing overhead. A trial fails if it raises, breaks data
conservation or the AntNet table invariants, or writes result files whose
digest differs from the other trial of its config. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; with
--workload all each workload prints its own, and the last line sums them,
with metric names prefixed by the workload.

Exits with 1 and prints no result when antsim cannot be imported from this
checkout's src directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from calibrate import speed_factor
from tracer import PER_LAYER_METRICS
from trial import IMPORT_FAILED

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_TRIALS = 3
# a traced unit runs one config plain and then traced, which is about
# TRACED_UNIT_TRIALS times as long as one calibrated trial
TRACED_UNIT_TRIALS = 4
TRIAL_SEEDS = 1000
TRIAL_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_s_per_host_s", "s/s"),
    ("output_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_workloads() -> dict:
    with open(os.path.join(BENCH_DIR, "workloads.json")) as fh:
        return json.load(fh)["workloads"]


def load_reference_digests() -> dict:
    with open(os.path.join(BENCH_DIR, "reference_digests.json")) as fh:
        return json.load(fh)["digests"]


def trial_seed(seed: int, index: int) -> int:
    """master_seed of trial ``index`` of a run: each trial draws its own traffic,
    so a run's medians average over traffic as well as over host noise."""
    return seed * TRIAL_SEEDS + index


def write_config(workload: str, master_seed: int, work_dir: str) -> str:
    """Write a one-trial config of ``workload`` into a fresh ``work_dir``, where
    the trial also writes its result files; return the config's path."""
    spec = load_workloads()[workload]
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    config = dict(
        spec["config"],
        master_seed=master_seed,
        trials=1,
        out_dir=os.path.join(work_dir, "results"),
        label=workload,
    )
    path = os.path.join(work_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)
    return path


def run_trial(
    config_path: str, spans_path: str | None = None, calibrate: bool = False
) -> dict:
    """One trial in a fresh interpreter; a crash or timeout is a failure."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "trial.py"), config_path]
    if spans_path:
        cmd += ["--trace", spans_path]
    elif calibrate:
        cmd.append("--calibrate")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=TRIAL_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"trial did not end within {TRIAL_TIMEOUT_S} s"]}
    if proc.returncode == IMPORT_FAILED:
        raise BenchmarkError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"trial exited with {proc.returncode}: {proc.stderr[-2000:]}"]}
    return json.loads(lines[-1])


def trial_count(workload: str, seconds: float, traced: bool) -> int:
    """Units of ``workload`` that take about ``seconds`` on the reference host:
    at least MIN_TRIALS untraced trials, or at least one traced unit."""
    unit_s = load_workloads()[workload]["trial_host_s"]
    if traced:
        return max(1, int(seconds // (unit_s * TRACED_UNIT_TRIALS)))
    return max(MIN_TRIALS, int(seconds // unit_s))


def run_trials(workload: str, seed: int, seconds: float, traced: bool) -> list:
    """Run ``trial_count`` units back to back.

    Untraced, a unit is one calibrated trial. Traced, a unit is one config run
    plain and then traced. Each result is tagged with its trial ``index``,
    whether it was traced and whether it was calibrated.
    """
    work_dir = os.path.join(OUT_DIR, workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    kinds = [(False, False), (True, False)] if traced else [(False, True)]
    trials = []
    for index in range(trial_count(workload, seconds, traced)):
        trial_dir = os.path.join(work_dir, f"trial-{index}")
        config_path = write_config(workload, trial_seed(seed, index), trial_dir)
        for kind, calibrate in kinds:
            spans_path = os.path.join(trial_dir, "spans.json") if kind else None
            result = run_trial(config_path, spans_path, calibrate)
            result.update(index=index, traced=kind, calibrated=calibrate)
            trials.append(result)
    return trials


def mark_digest_mismatches(trials: list) -> None:
    """Runs of one config, traced or not, must write identical result files."""
    first: dict = {}
    for result in trials:
        digest = result.get("output_sha256")
        if digest is None:
            continue
        expected = first.setdefault(result["index"], digest)
        if digest != expected:
            result["failures"].append(
                f"output_sha256 {digest} differs from {expected} of the same config"
            )


def end_to_end(results: list) -> dict:
    """Medians over the run's calibrated trials, each time divided by the
    trial's speed factor: that of the output phase for output_s, that of the
    event loop for the others."""
    timed = [r for r in results if r["calibrated"]]
    if not timed:
        return {}
    factors = [speed_factor(r["slice_s"]) for r in timed]
    columns = {
        "setup_s": [r["setup_s"] / f for r, f in zip(timed, factors)],
        "wall_s": [r["wall_s"] / f for r, f in zip(timed, factors)],
        "sim_s_per_host_s": [r["sim_s"] * f / r["loop_s"] for r, f in zip(timed, factors)],
        "output_s": [r["output_s"] / speed_factor(r["output_slice_s"]) for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    return {name: statistics.median(columns[name]) for name, _ in END_TO_END}


def raw_times(results: list) -> dict:
    """Medians of the calibrated trials' host times before normalizing, and
    of their speed factors; printed for reference, not gated."""
    timed = [r for r in results if r["calibrated"]]
    if not timed:
        return {}
    return {
        "speed_factor": statistics.median(speed_factor(r["slice_s"]) for r in timed),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "sim_s_per_host_s": statistics.median(r["sim_s"] / r["loop_s"] for r in timed),
        "output_s": statistics.median(r["output_s"] for r in timed),
    }


def per_layer(trials: list) -> dict:
    """Medians over the traced trials, plus two figures that pair each traced
    trial with the untraced trial of the same config."""
    ok = [r for r in trials if not r["failures"]]
    untraced = {r["index"]: r for r in ok if not r["traced"]}
    traced = [r for r in ok if r["traced"]]
    out = {}
    for name, _ in PER_LAYER_METRICS:
        if traced and name in traced[0]["layers"]:
            out[name] = statistics.median([r["layers"][name] for r in traced])
    pairs = [(untraced[r["index"]], r) for r in traced if r["index"] in untraced]
    if pairs:
        out["engine.events_per_s"] = statistics.median(
            [u["events"] / u["loop_s"] for u, _ in pairs]
        )
        out["trace.overhead_s"] = statistics.median(
            [t["wall_s"] - u["wall_s"] for u, t in pairs]
        )
    return out


def report(workload: str, seed: int, trials: list, metrics: dict, units: dict) -> None:
    """Human-readable lines, printed before the JSON result line."""
    failed = [r for r in trials if r["failures"]]
    n_traced = sum(1 for r in trials if r["traced"])
    print(
        f"workload {workload}  seed {seed}  trials {len(trials)} "
        f"(traced {n_traced})  failed {len(failed)}/{len(trials)}"
    )
    for result in failed:
        for failure in result["failures"]:
            print(f"  FAILED trial {result['index']}: {failure}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    raw = raw_times([r for r in trials if not r["failures"]])
    if raw:
        print(
            "  unnormalized medians: "
            + "  ".join(f"{name} {value:.6g}" for name, value in raw.items())
        )
    missing = sorted({hook for r in trials for hook in r.get("missing_hooks", ())})
    if missing:
        print(f"  trace hooks whose target is gone (metrics read 0): {', '.join(missing)}")
    first = trials[0]
    if first["failures"]:
        return
    drops: dict = {}
    for key, count in first["dropped"].items():
        cause = key.split("/")[0]
        drops[cause] = drops.get(cause, 0) + count
    print(
        f"  trial 0 simulated: throughput_bps {first['throughput_bps']:.6g}  "
        f"delay_p90_s {first['delay_p90_s']}  overhead {first['overhead']:.6g}  "
        f"drops {json.dumps(drops, sort_keys=True)}"
    )
    reference = load_reference_digests().get(workload, {}).get(str(seed))
    if reference is None:
        changed = "unknown (no reference digest for this seed)"
    else:
        changed = str(first["output_sha256"] != reference).lower()
    print(f"  trial 0 output_sha256 {first['output_sha256']}  output_changed {changed}")


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run, report and return the result object of one workload."""
    trials = run_trials(workload, seed, seconds, traced)
    mark_digest_mismatches(trials)
    if traced:
        units = dict(PER_LAYER_METRICS)
        metrics = per_layer(trials)
    else:
        units = dict(END_TO_END)
        metrics = end_to_end([r for r in trials if not r["failures"]])
    report(workload, seed, trials, metrics, units)
    failed = sum(1 for r in trials if r["failures"])
    result = {
        "correct": failed == 0,
        "attempted": len(trials),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def main(argv: list[str] | None = None) -> int:
    workloads = list(load_workloads())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    chosen = workloads if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in chosen:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace)
            )
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    if len(chosen) > 1:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
