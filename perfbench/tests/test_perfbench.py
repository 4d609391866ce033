"""Tests of the benchmark's own code: the correctness gate, the tracing and
calibration wrappers and the metric names.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import trial  # noqa: E402
from antsim.metrics import MetricsCollector  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
FILLED_BY_RUN = {"engine.events_per_s", "trace.overhead_s"}


def test_conservation_gate_flags_unbalanced_counts():
    metrics = MetricsCollector()
    for _ in range(3):
        metrics.on_generated(0.0, "data", 4096.0)
    metrics.on_delivered(1.0, "data", 4096.0, 1.0)
    metrics.on_dropped("ttl", "data")
    assert "generated 3 != delivered 1 + dropped 1" in trial.conservation_error(metrics)
    metrics.on_dropped("buffer", "data")
    assert trial.conservation_error(metrics) is None
    metrics.on_dropped("ttl", "forward_ant")  # ants are outside the data balance
    assert trial.conservation_error(metrics) is None


def test_table_gate_flags_rows_that_are_not_distributions():
    assert trial.table_error({1: {2: [0.25, 0.75]}}) is None
    assert "sums to" in trial.table_error({1: {2: [0.25, 0.76]}})
    assert "outside [0, 1]" in trial.table_error({1: {2: [-0.25, 1.25]}})


def test_end_to_end_divides_host_times_by_the_speed_factor():
    ref = calibrate.REF_SLICE_S
    timed = {
        "calibrated": True,
        "slice_s": 2 * ref,  # the loop ran on a host twice as slow as the reference
        "output_slice_s": 4 * ref,
        "setup_s": 0.1,
        "wall_s": 2.0,
        "sim_s": 30.0,
        "loop_s": 1.5,
        "output_s": 0.04,
        "peak_rss_mb": 20.0,
    }
    assert run.end_to_end([timed]) == pytest.approx(
        {
            "setup_s": 0.05,
            "wall_s": 1.0,
            "sim_s_per_host_s": 40.0,
            "output_s": 0.01,
            "peak_rss_mb": 20.0,
        }
    )


def test_trial_count_depends_on_seconds_only():
    for workload in run.load_workloads():
        assert run.trial_count(workload, 1, False) == run.MIN_TRIALS
        assert run.trial_count(workload, 1, True) == 1
        assert run.trial_count(workload, 30, False) >= run.MIN_TRIALS


def _run_trial_process(config_path: Path, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "trial.py"), str(config_path), *extra],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("algorithm", ["antnet", "daemon", "pqr", "bf"])
def test_wrappers_leave_output_digest_unchanged(tmp_path, algorithm):
    config = {
        "topology": "simplenet",
        "algorithm": algorithm,
        "traffic": {"temporal": "P", "msia_s": 1.0, "mpia_s": 0.01, "packets_per_session": 20},
        "warmup_s": 2.0,
        "run_length_s": 3.0,
        "trials": 1,
        "master_seed": 7,
        "out_dir": str(tmp_path / "results"),
        "label": algorithm,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    plain = _run_trial_process(config_path)
    traced = _run_trial_process(config_path, "--trace", str(tmp_path / "spans.json"))
    calibrated = _run_trial_process(config_path, "--calibrate")
    assert plain["failures"] == [] and traced["failures"] == []
    assert calibrated["failures"] == []
    assert traced["output_sha256"] == plain["output_sha256"]
    # the chunked, calibrated loop processes the same events in the same order
    assert calibrated["output_sha256"] == plain["output_sha256"]
    assert calibrated["events"] == plain["events"]
    assert calibrated["slice_s"] > 0 and calibrated["output_slice_s"] > 0
    # the calibrator's 32 MiB buffer is left out of the peak (ru_maxrss of a
    # child also carries the spawning process's size, so only bound it above)
    assert 0 < calibrated["peak_rss_mb"] < plain["peak_rss_mb"] + 2.0
    assert traced["missing_hooks"] == []
    expected = {name for name, _ in tracer.PER_LAYER_METRICS} - FILLED_BY_RUN
    assert set(traced["layers"]) == expected
    assert traced["layers"]["engine.events"] > 0


def test_metric_names_are_well_formed_and_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert per_layer == [name for name, _ in tracer.PER_LAYER_METRICS]
    assert workloads == list(run.load_workloads())
    names = end_to_end + per_layer + workloads
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bf-nttnet-up", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "benchmark cannot run" in proc.stderr
