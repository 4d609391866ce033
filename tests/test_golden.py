"""Golden-output lock: short trials of every algorithm must keep their bytes.

Each case runs one trial and hashes the three result files, and the order of
the trial's observable calls (``CallRecorder``). The digests in
``golden_digests.json`` were recorded before the code they guard was
refactored; a refactor must leave them unchanged. A change that alters
behaviour on purpose re-records them with
``PYTHONPATH=src python tests/test_golden.py``, which first prints each entry
whose digests moved and which of them, and says so in CHANGES.md.
"""

import contextlib
import hashlib
import json
import os
import tempfile
from unittest import mock

import pytest

from antsim.cli import ALGORITHMS, ExperimentConfig, run_experiment
from antsim.network import DATA, Network, Packet
from antsim.routing import RoutingAlgorithm

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")
FILES = ("trial_0.json", "trial_0_series.csv", "aggregate.json")
UP_TRAFFIC = {"temporal": "P", "spatial": "U", "stream": "GVBR", "msia_s": 1.0}
# a hot spot at node 4 from 1 s to 5 s after warm-up fills its queues, so the
# feedback learners run beside deep queues; no packet is old enough to expire
# within the 6 s run, as the TTL is 15 s
HOTSPOT_TRAFFIC = {
    **UP_TRAFFIC,
    "temporal": "TMPHS",
    "hot_spot_nodes": [4],
    "hs_count": 1,
    "mpia_hs_s": 0.005,
    "hot_spot_on_s": 1.0,
    "hot_spot_off_s": 5.0,
}
# the same hot spot held on from 1 s to 16 s of a 19 s run, long enough for
# data packets to pass the 15 s TTL, so the lock covers TTL drops
TTL_TRAFFIC = {**HOTSPOT_TRAFFIC, "hot_spot_off_s": 16.0}
# ospf's default 30 s interval would flood nothing within the 9 s trial
OSPF_PARAMS = {"ospf": {"broadcast_interval_s": 2.0}}
# ants launched every 6 ms share a clock and have fixed sizes, so two of them
# can reach a node a rounding step apart; the case locks the order in which
# AntNet sees them
FREQUENT_ANTS = {"antnet": {"launch_interval_s": 0.006}}
# a persistent overlay from two sampled hot spots (no hot_spot_nodes) over
# randomized per-node session means and CBR streams: the UP-HS pattern
UP_HS_TRAFFIC = {
    "temporal": "P",
    "spatial": "R",
    "stream": "CBR",
    "msia_s": 1.0,
    "hs_count": 2,
    "mpia_hs_s": 0.02,
}
# one persistent session per ordered node pair for the whole run
FIXED_TRAFFIC = {"temporal": "F", "stream": "GVBR", "mpia_s": 0.02}
# one CBR session of about 27 Mb/s from node 1 to node 6 of simplenet, far
# above what its links carry, so queues grow until packets expire
OVERLOAD_TRAFFIC = {"temporal": "F", "stream": "CBR", "fixed_pairs": [[1, 6]], "mpia_s": 0.00015}
# case name -> Network class attributes patched for that case only. A 2e5-bit
# node buffer overflows under the hot spot, so the lock covers buffer drops of
# data (under every algorithm), ants and routing packets. A 0.5 s TTL expires
# data under every algorithm within the overload's 4 s run, where the 15 s
# default would need a far longer one.
NETWORK_PATCHES = {
    "nsfnet-hotspot-buffer": {"buffer_bits": 2e5},
    "simplenet-ttl": {"ttl_s": 0.5},
}
# case name -> (topology, traffic, run length in s, algorithms, algorithm
# params); the name keys golden_digests.json
CASES = {
    "simplenet": ("simplenet", UP_TRAFFIC, 6.0, sorted(ALGORITHMS), OSPF_PARAMS),
    "nsfnet": ("nsfnet", UP_TRAFFIC, 6.0, sorted(ALGORITHMS), OSPF_PARAMS),
    "nsfnet-hotspot": ("nsfnet", HOTSPOT_TRAFFIC, 6.0, ["daemon", "pqr", "qr"], {}),
    "nttnet": ("nttnet", UP_TRAFFIC, 6.0, ["bf", "daemon", "spf"], {}),
    "nsfnet-hotspot-ttl": ("nsfnet", TTL_TRAFFIC, 19.0, ["bf", "pqr"], {}),
    "nsfnet-ants": ("nsfnet", UP_TRAFFIC, 6.0, ["antnet"], FREQUENT_ANTS),
    "nsfnet-hotspot-buffer": ("nsfnet", HOTSPOT_TRAFFIC, 6.0, sorted(ALGORITHMS), OSPF_PARAMS),
    "nsfnet-up-hs": ("nsfnet", UP_HS_TRAFFIC, 6.0, ["antnet", "spf"], {}),
    "simplenet-fixed": ("simplenet", FIXED_TRAFFIC, 6.0, ["antnet", "qr"], {}),
    "simplenet-ttl": ("simplenet", OVERLOAD_TRAFFIC, 4.0, sorted(ALGORITHMS), {}),
}


ALGORITHM_HOOKS = ("select_next_hop", "on_data_arrival", "on_routing_packet", "on_ant")
METRICS_HOOKS = ("on_generated", "on_delivered", "on_dropped", "on_routing_tx")


def _token(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Packet):
        return (value.kind, value.src, value.dst, value.created_at.hex(), float(value.size).hex())
    return value


class CallRecorder:
    """SHA-256 of a trial's observable calls, in call order.

    Each call adds ``(sim.now.hex(), hook, args)``, with floats as hex and a
    packet as its kind, ends, creation time and size. The hooks are the four
    ``MetricsCollector.on_*`` calls and those of ``ALGORITHM_HOOKS`` that the
    algorithm's class overrides: a base no-op has no effect, so leaving it out
    keeps the hash still when the network stops making a call that does
    nothing. For a delivery of anything but data the delay is left out, as
    the collector discards it. The hash moves when a call moves in time, two
    equal-time calls swap, or an argument changes, which the result files
    need not show.
    """

    def __init__(self):
        self.sha = hashlib.sha256()

    def install(self, net: Network, algo: RoutingAlgorithm) -> None:
        for hook in ALGORITHM_HOOKS:
            if getattr(type(algo), hook) is not getattr(RoutingAlgorithm, hook):
                setattr(algo, hook, self._wrap(net, hook, getattr(algo, hook)))
        for hook in METRICS_HOOKS:
            setattr(net.metrics, hook, self._wrap(net, hook, getattr(net.metrics, hook)))

    def _wrap(self, net: Network, hook: str, fn):
        update = self.sha.update
        sim = net.sim

        def recorded(*args):
            logged = args[:3] if hook == "on_delivered" and args[1] != DATA else args
            update(repr((sim.now.hex(), hook, tuple(map(_token, logged)))).encode())
            return fn(*args)

        return recorded


@contextlib.contextmanager
def recording_calls():
    """Install a fresh ``CallRecorder`` on every network that gets an algorithm."""
    recorder = CallRecorder()
    set_algorithm = Network.set_algorithm

    def recording_set_algorithm(net, algo):
        recorder.install(net, algo)
        set_algorithm(net, algo)

    Network.set_algorithm = recording_set_algorithm
    try:
        yield recorder
    finally:
        Network.set_algorithm = set_algorithm


def golden_digests(case: str, algorithm: str, out_dir: str) -> dict:
    topology, traffic, run_length_s, _, params = CASES[case]
    cfg = ExperimentConfig(
        topology=topology,
        algorithm=algorithm,
        traffic=dict(traffic),
        warmup_s=3.0,
        run_length_s=run_length_s,
        trials=1,
        master_seed=7,
        algorithm_params=dict(params.get(algorithm, {})),
        out_dir=out_dir,
    )
    patches = NETWORK_PATCHES.get(case)
    patched = mock.patch.multiple(Network, **patches) if patches else contextlib.nullcontext()
    with recording_calls() as recorder, patched:
        run_experiment(cfg)
    digests = {"calls": recorder.sha.hexdigest()}
    for name in FILES:
        with open(os.path.join(out_dir, algorithm, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize(
    "case,algorithm",
    [(case, algorithm) for case, (*_, algorithms, _) in CASES.items() for algorithm in algorithms],
    ids=lambda value: value,
)
def test_golden_outputs_unchanged(tmp_path, case, algorithm):
    with open(DIGESTS_PATH) as fh:
        recorded = json.load(fh)[f"{case}/{algorithm}"]
    assert golden_digests(case, algorithm, str(tmp_path)) == recorded


if __name__ == "__main__":
    # Re-record the digests from the current code; first name each entry whose
    # digests differ from the file, and which of them moved.
    with open(DIGESTS_PATH) as fh:
        recorded = json.load(fh)
    table = {}
    for case, (*_, algorithms, _) in CASES.items():
        for algorithm in algorithms:
            with tempfile.TemporaryDirectory() as out_dir:
                table[f"{case}/{algorithm}"] = golden_digests(case, algorithm, out_dir)
    for entry, digests in table.items():
        old = recorded.get(entry, {})
        moved = [name for name, digest in digests.items() if old.get(name) != digest]
        if moved:
            print(f"{entry}: {', '.join(moved)}")
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, sort_keys=True, indent=2)
        fh.write("\n")
