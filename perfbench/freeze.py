"""Freeze the expected outcome of every benchmark operation.

Run from the root of a checkout of the commit whose answers are the
reference:

    python3 perfbench/freeze.py

Runs one pass of every workload for each of FREEZE_SEEDS, requires
every operation to succeed and to give the same outcome under every
seed, and writes perfbench/reference.json.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import workloads

FREEZE_SEEDS = (0, 1, 2)


def main() -> int:
    outcomes: dict = {}
    problems = []
    for workload in sorted(workloads.WHY):
        for seed in FREEZE_SEEDS:
            done = run.Pass(workload, seed, deadline=time.monotonic() + 600)
            print(f"{workload} seed {seed}: wall {done.wall_s:.2f} s, setup {done.setup_s:.2f} s")
            for job in done.jobs:
                if job.result is None:
                    problems.append(f"{workload} seed {seed}: {job.error}")
                    continue
                for op in job.result["ops"]:
                    if op["error"]:
                        problems.append(f"{op['id']} seed {seed}: {op['error']}")
                        continue
                    first = outcomes.setdefault(op["id"], op["outcome"])
                    if first != op["outcome"]:
                        problems.append(f"{op['id']}: seed {seed} differs from seed {FREEZE_SEEDS[0]}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    doc = {"commit": run.git_commit(), "seeds": list(FREEZE_SEEDS), "outcomes": outcomes}
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outcomes)} reference outcomes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
