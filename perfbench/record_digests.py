"""Record the output digests that perfbench/run.py checks every run against.

    python3 perfbench/record_digests.py

Runs each workload's plain driver call once per recorded seed, each in a
fresh interpreter, and rewrites perfbench/digests.json.  Seed 0 is the
default seed; seed 1 was held out while the workloads were tuned.  The
digests change only when a change alters an output file on purpose (or
resizes a workload), and that change says which file and why.
"""

import json
import sys

from run import HERE, run_worker, spec

RECORDED_SEEDS = (0, 1)


def main() -> int:
    digests = {}
    for workload in spec()["workloads"]:
        for seed in RECORDED_SEEDS:
            result, err = run_worker(workload["name"], seed, "plain",
                                     f"record-{seed}")
            if result is None:
                print(f"{workload['name']} seed {seed}: {err}", file=sys.stderr)
                return 1
            digests.setdefault(workload["name"], {})[str(seed)] = \
                result["digests"]
    with open(HERE / "digests.json", "w") as f:
        json.dump({"seeds": list(RECORDED_SEEDS), "digests": digests}, f,
                  indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
