"""Record the digests of the seeded integer outputs into digests.json.

    python3 perfbench/record_digests.py --seeds 0-15

For every workload with integer outputs, runs the first operations of each
seed (both mean degrees of orient-trials), checks them, and stores their
digests.  A later run that reaches a recorded (seed, operation) counts a
different digest as a failed operation.  Re-record only when a change is
meant to alter the seeded outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os

import benchenv
import workloads

OPS = {"orient-trials": 2, "process-trace": 1, "file-tools": 1}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range a-b")
    args = parser.parse_args()
    lo, hi = (int(s) for s in args.seeds.split("-"))
    path = benchenv.BENCH / "digests.json"
    with open(path) as fh:
        doc = json.load(fh)
    for name, ops in OPS.items():
        wl = workloads.make(name, benchenv.OUT / f"work-{os.getpid()}")
        table = doc["digests"].setdefault(name, {})
        try:
            for seed in range(lo, hi + 1):
                row = []
                for i in range(ops):
                    fails, digest = wl.check(seed, i, wl.run(seed, i))
                    if fails:
                        raise SystemExit(f"{name} seed {seed} op {i} fails its checks: {fails}")
                    row.append(digest)
                table[str(seed)] = row
                print(name, seed, row, flush=True)
        finally:
            close = getattr(wl, "close", None)
            if close:
                close()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
