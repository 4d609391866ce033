"""Golden-output lock: short trials of every algorithm must keep their bytes.

Each case runs one trial and hashes the three result files. The digests in
``golden_digests.json`` were recorded before the code they guard was
refactored; a refactor must leave them unchanged. A change that alters
behaviour on purpose re-records them with
``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.
"""

import hashlib
import json
import os
import tempfile

import pytest

from antsim.cli import ALGORITHMS, ExperimentConfig, run_experiment

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")
FILES = ("trial_0.json", "trial_0_series.csv", "aggregate.json")
UP_TRAFFIC = {"temporal": "P", "spatial": "U", "stream": "GVBR", "msia_s": 1.0}
# a hot spot at node 4 from 1 s to 5 s after warm-up fills its queues, so the
# feedback learners run beside deep queues and TTL drops
HOTSPOT_TRAFFIC = {
    **UP_TRAFFIC,
    "temporal": "TMPHS",
    "hot_spot_nodes": [4],
    "hs_count": 1,
    "mpia_hs_s": 0.005,
    "hot_spot_on_s": 1.0,
    "hot_spot_off_s": 5.0,
}
# case name -> (topology, traffic, algorithms); the name keys golden_digests.json
CASES = {
    "simplenet": ("simplenet", UP_TRAFFIC, sorted(ALGORITHMS)),
    "nsfnet": ("nsfnet", UP_TRAFFIC, sorted(ALGORITHMS)),
    "nsfnet-hotspot": ("nsfnet", HOTSPOT_TRAFFIC, ["pqr", "qr"]),
    "nttnet": ("nttnet", UP_TRAFFIC, ["bf", "spf"]),
}
# ospf's default 30 s interval would flood nothing within the 9 s trial
ALGORITHM_PARAMS = {"ospf": {"broadcast_interval_s": 2.0}}


def golden_digests(case: str, algorithm: str, out_dir: str) -> dict:
    topology, traffic, _ = CASES[case]
    cfg = ExperimentConfig(
        topology=topology,
        algorithm=algorithm,
        traffic=dict(traffic),
        warmup_s=3.0,
        run_length_s=6.0,
        trials=1,
        master_seed=7,
        algorithm_params=dict(ALGORITHM_PARAMS.get(algorithm, {})),
        out_dir=out_dir,
    )
    run_experiment(cfg)
    digests = {}
    for name in FILES:
        with open(os.path.join(out_dir, algorithm, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize(
    "case,algorithm",
    [(case, algorithm) for case, (_, _, algorithms) in CASES.items() for algorithm in algorithms],
    ids=lambda value: value,
)
def test_golden_outputs_unchanged(tmp_path, case, algorithm):
    with open(DIGESTS_PATH) as fh:
        recorded = json.load(fh)[f"{case}/{algorithm}"]
    assert golden_digests(case, algorithm, str(tmp_path)) == recorded


if __name__ == "__main__":
    # Re-record the digests from the current code.
    table = {}
    for case, (_, _, algorithms) in CASES.items():
        for algorithm in algorithms:
            with tempfile.TemporaryDirectory() as out_dir:
                table[f"{case}/{algorithm}"] = golden_digests(case, algorithm, out_dir)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, sort_keys=True, indent=2)
        fh.write("\n")
