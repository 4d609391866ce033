"""One benchmark trial of antsim in a fresh interpreter.

    python3 perfbench/trial.py CONFIG_JSON [--trace SPANS_JSON | --calibrate]

Runs the experiment in CONFIG_JSON (one trial) through ``cli.run_experiment``,
the path ``antsim run`` takes, with ``src`` of this checkout first on
``sys.path``. Prints one JSON object on stdout: host timings, the simulated
summary, the digest of the written result files and the failures of the
correctness gate. With ``--trace`` it installs the per-layer wrappers of
``tracer.py`` first and writes their spans to SPANS_JSON.

With ``--calibrate`` a ``calibrate.Calibrator`` is created before set-up
starts. The event loop then runs in chunks of CHUNK_SIM_S simulated seconds,
which processes the same events in the same order, with one calibration
slice after every CALIBRATE_EVERY_S host seconds of loop; OUTPUT_BURST slices
run just before and just after the output phase. Slices are left out of
every timing. The mean slice time in the loop is reported as ``slice_s``,
that around the output phase as ``output_slice_s``, and ``peak_rss_mb``
leaves out the calibrator's buffer, which is resident from before set-up to
exit.

After the timed trial an untimed drain runs the simulator on, in steps of
DRAIN_STEP_S, until every data packet is delivered or dropped, for at most one
packet TTL plus DRAIN_MARGIN_S; then data-packet conservation is checked.

Exit code 3 means antsim could not be imported from this checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
from time import perf_counter

IMPORT_FAILED = 3
DRAIN_STEP_S = 0.5
DRAIN_MARGIN_S = 1.0
ROW_SUM_TOL = 1e-9
CHUNK_SIM_S = 0.25
CALIBRATE_EVERY_S = 0.05
OUTPUT_BURST = 3
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def output_digest(out_dir: str) -> str:
    """sha256 over the names and bytes of every file in ``out_dir``."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def conservation_error(metrics) -> str | None:
    """Data packets generated must equal those delivered plus those dropped."""
    generated = metrics.generated_count.get("data", 0)
    delivered = metrics.delivered_count.get("data", 0)
    dropped = sum(n for key, n in metrics.dropped_count.items() if key.endswith("/data"))
    if generated != delivered + dropped:
        return (
            f"data conservation: generated {generated} != "
            f"delivered {delivered} + dropped {dropped}"
        )
    return None


def drain(net, t_end: float) -> None:
    """Run past ``t_end`` until data conservation holds or the TTL is spent."""
    limit = t_end + net.ttl_s + DRAIN_MARGIN_S
    t = t_end
    while t < limit and conservation_error(net.metrics):
        t = min(t + DRAIN_STEP_S, limit)
        net.sim.run_until(t)


def table_error(tables) -> str | None:
    """Every AntNet routing-table row is a probability distribution."""
    for node, rows in tables.items():
        for dst, row in rows.items():
            if any(not 0.0 <= p <= 1.0 for p in row):
                return f"antnet table {node}->{dst}: entry outside [0, 1]: {row}"
            if abs(math.fsum(row) - 1.0) > ROW_SUM_TOL:
                return f"antnet table {node}->{dst}: row sums to {math.fsum(row)!r}"
    return None


class ImportFailed(Exception):
    """antsim is missing from this checkout or comes from somewhere else."""


class Probe:
    """Boundary timings of one trial, from wrappers on two methods.

    ``Simulator.run_until`` gives the start of the event loop and the time
    spent in it; ``Network.set_algorithm`` hands over the network, which the
    drain and the gates read after ``run_experiment`` returns. With a
    ``calibrator`` the loop is chunked and interleaved with calibration
    slices, whose time goes to ``excluded_s`` instead of ``loop_s``.
    """

    def __init__(self, calibrator=None):
        self.calibrator = calibrator
        self.first_event = None
        self.loop_s = 0.0
        self.loop_end = None
        self.events = 0
        self.net = None
        self.excluded_s = 0.0
        self.slices = 0
        self.slice_total_s = 0.0
        self.pre_output_slice_s = None
        self._since_slice = 0.0
        self._installed = []

    def run_slices(self, count: int) -> float:
        """Run ``count`` calibration slices; return their mean time."""
        start = perf_counter()
        for _ in range(count):
            self.calibrator.run_slice()
        elapsed = perf_counter() - start
        self.excluded_s += elapsed
        return elapsed / count

    def _chunked(self, run_until, sim, t_end) -> int:
        processed = 0
        t = sim.now
        while True:
            t = min(t + CHUNK_SIM_S, t_end)
            start = perf_counter()
            done = run_until(sim, t)
            elapsed = perf_counter() - start
            self.loop_s += elapsed
            self._since_slice += elapsed
            processed += done if isinstance(done, int) else 0
            if self._since_slice >= CALIBRATE_EVERY_S:
                self._since_slice = 0.0
                self.slice_total_s += self.run_slices(1)
                self.slices += 1
            if t >= t_end:
                break
        # the output phase may follow this call: sample the host just before it
        self.pre_output_slice_s = self.run_slices(OUTPUT_BURST)
        self.loop_end = perf_counter()
        return processed

    def install(self, simulator_cls, network_cls) -> None:
        run_until = simulator_cls.run_until
        set_algorithm = network_cls.set_algorithm
        probe = self

        def timed_run_until(sim, t_end):
            start = perf_counter()
            if probe.first_event is None:
                probe.first_event = start
            if probe.calibrator is not None:
                processed = probe._chunked(run_until, sim, t_end)
                probe.events += processed
                return processed
            try:
                processed = run_until(sim, t_end)
                if isinstance(processed, int):
                    probe.events += processed
                return processed
            finally:
                probe.loop_end = perf_counter()
                probe.loop_s += probe.loop_end - start

        def capturing_set_algorithm(net, algo):
            probe.net = net
            return set_algorithm(net, algo)

        self._installed = [
            (simulator_cls, "run_until", run_until),
            (network_cls, "set_algorithm", set_algorithm),
        ]
        simulator_cls.run_until = timed_run_until
        network_cls.set_algorithm = capturing_set_algorithm

    def uninstall(self) -> None:
        for owner, attr, original in self._installed:
            setattr(owner, attr, original)
        self._installed = []


def run(config_path: str, spans_path: str | None = None, calibrate: bool = False) -> dict:
    calibrator = None
    calibration_kb = 0
    if calibrate:
        from calibrate import BUFFER_BYTES, Calibrator

        calibrator = Calibrator()  # resident from here to exit
        calibration_kb = BUFFER_BYTES // 1024
    t0 = perf_counter()
    if sys.path[0] != SRC_DIR:
        sys.path.insert(0, SRC_DIR)
    try:
        import antsim
        from antsim import cli
        from antsim.antnet import AntNetRouting
        from antsim.engine import Simulator
        from antsim.network import Network
    except ImportError as exc:
        raise ImportFailed(f"cannot import antsim from {SRC_DIR}: {exc}") from exc
    if os.path.dirname(os.path.abspath(antsim.__file__)) != os.path.join(SRC_DIR, "antsim"):
        raise ImportFailed(f"antsim imported from {antsim.__file__}, not from {SRC_DIR}")

    probe = Probe(calibrator)
    probe.install(Simulator, Network)
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    result = {"failures": []}
    try:
        cfg = cli.load_config(config_path)
        cli.run_experiment(cfg)
        t_done = perf_counter()
        excluded_s = probe.excluded_s
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - calibration_kb
        result["peak_rss_mb"] = peak_kb / 1024.0
        if calibrator is not None:
            after = probe.run_slices(OUTPUT_BURST)
            result["output_slice_s"] = (probe.pre_output_slice_s + after) / 2
            result["slice_s"] = (
                probe.slice_total_s / probe.slices if probe.slices else result["output_slice_s"]
            )
        out_dir = os.path.join(cfg.out_dir, cfg.label)
        with open(os.path.join(out_dir, "trial_0.json")) as fh:
            summary = json.load(fh)
        result.update(
            setup_s=probe.first_event - t0,
            wall_s=t_done - t0 - excluded_s,
            loop_s=probe.loop_s,
            events=probe.events,
            output_s=t_done - probe.loop_end,
            sim_s=cfg.warmup_s + cfg.run_length_s,
            output_sha256=output_digest(out_dir),
            throughput_bps=summary["throughput_bps"],
            delay_p90_s=summary["delay_p90_s"],
            overhead=summary["overhead"],
            dropped=summary["dropped"],
        )
        net = probe.net
        if tracer:
            result["layers"] = tracer.layer_metrics(net.metrics)
            tracer.write_spans(spans_path)
            result["missing_hooks"] = tracer.missing
            tracer.uninstall()
        probe.uninstall()
        drain(net, cfg.warmup_s + cfg.run_length_s)
        errors = [conservation_error(net.metrics)]
        if isinstance(net.algorithm, AntNetRouting):
            errors.append(table_error(net.algorithm.tables))
        result["failures"] = [e for e in errors if e]
    except Exception as exc:  # any exception, SchedulingError included, fails the trial
        result["failures"].append(f"{type(exc).__name__}: {exc}")
    return result


def main(argv: list[str]) -> int:
    spans_path = None
    calibrate = False
    if len(argv) == 3 and argv[1] == "--trace":
        spans_path = argv[2]
    elif len(argv) == 2 and argv[1] == "--calibrate":
        calibrate = True
    elif len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        result = run(argv[0], spans_path, calibrate)
    except ImportFailed as exc:
        print(exc, file=sys.stderr)
        return IMPORT_FAILED
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
