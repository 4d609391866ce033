"""Record the reference output digest of every workload for a range of seeds.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED "NOTE"

Runs trial 0 of every workload and seed untraced, two at a time, and rewrites
perfbench/reference_digests.json, which run.py compares each run's
output_sha256 against to report output_changed. NOTE names the commit the
digests come from. Run it only on a commit whose outputs are the reference.
"""

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import run


def record(workload: str, seed: int) -> str:
    work_dir = os.path.join(run.OUT_DIR, "reference", f"{workload}-{seed}")
    result = run.run_trial(run.write_config(workload, run.trial_seed(seed, 0), work_dir))
    if result["failures"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failures']}")
    return result["output_sha256"]


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    first, last, note = int(argv[0]), int(argv[1]), argv[2]
    jobs = [(w, s) for w in run.load_workloads() for s in range(first, last + 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        digests = list(pool.map(lambda job: record(*job), jobs))
    table: dict = {}
    for (workload, seed), digest in zip(jobs, digests):
        table.setdefault(workload, {})[str(seed)] = digest
    with open(os.path.join(run.BENCH_DIR, "reference_digests.json"), "w") as fh:
        json.dump({"about": note, "digests": table}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
