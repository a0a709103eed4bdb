"""Record golden.json: output digests of every case that finishes.

    python3 bench/record.py [workload ...]

Run once at the commit whose outputs are pinned. For each workload and each
of the POOL input sets it runs one pass of the timed cases and the cliff
cases with RECORD_FACTOR times their usual budget, checks each output with
checks.py, and stores the digest of every finished output under the digest
of the case's inputs. A case still over budget stays unpinned; run.py then
applies the independent checks alone.
"""

from __future__ import annotations

import json
import os
import sys

import cases
import run

RECORD_FACTOR = 2


def main(argv) -> int:
    path = os.path.join(run.HERE, "golden.json")
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    run.CLIFF_BUDGET_S *= RECORD_FACTOR
    for workload in argv or cases.WORKLOADS:
        cases.BUDGET_S[workload] *= RECORD_FACTOR
        pinned, unpinned = {}, {}
        for seed in range(cases.POOL):
            runner = run.Runner(workload, seed)
            runner.golden = {}
            cliffs = cases.cliff_cases(workload, seed)
            try:
                records = (runner.one_pass(runner.cases)
                           + runner.one_pass(cliffs, cliff=True))
            finally:
                runner.worker.stop()
            for case, rec in zip(runner.cases + cliffs, records):
                if rec["verdict"] == "wrong":
                    print(f"{workload} seed {seed}: {case['id']} fails its "
                          "checks; nothing recorded", file=sys.stderr)
                    return 1
                if rec["verdict"] == "ok":
                    pinned[run.case_key(case)] = run.digest(rec["out"])
                else:
                    unpinned[case["id"]] = unpinned.get(case["id"], 0) + 1
        golden[workload] = pinned
        print(f"{workload}: {len(pinned)} outputs pinned; over budget "
              f"(case: input sets) {unpinned}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
