"""Median, quartiles and spread of end-to-end metrics over recorded runs.

    python3 perfbench/spread.py [--write-baseline]

Reads every untraced result that run.py wrote to .perfbench_out/ (one
file per workload and seed) and prints, per workload and metric, the
median and the quartile spread as a share of the median, with
statistics.quantiles(values, n=4).  With --write-baseline it also
writes them, with the environment of the runs, to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

import run


def collect() -> tuple:
    runs: dict = {}
    env = None
    for path in sorted(glob.glob(os.path.join(run.OUT, "result-*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        env = env or dict(rec["env"], run_seconds=rec["args"]["seconds"])
        per_seed = runs.setdefault(rec["env"]["workload"], {})
        per_seed[rec["env"]["seed"]] = {k: m["value"] for k, m in rec["metrics"].items()}
    return runs, env


def summarize(runs: dict) -> dict:
    out: dict = {}
    for workload, per_seed in sorted(runs.items()):
        names = sorted({k for values in per_seed.values() for k in values})
        out[workload] = {"runs": len(per_seed), "seeds": sorted(per_seed)}
        for name in names:
            values = [v[name] for v in per_seed.values()]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            out[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true", help="write baseline.json")
    args = parser.parse_args(argv)
    runs, env = collect()
    if not runs:
        print(f"no results in {run.OUT}", file=sys.stderr)
        return 1
    summary = summarize(runs)
    for workload, metrics in summary.items():
        print(f"{workload} ({metrics['runs']} runs)")
        for name, s in metrics.items():
            if isinstance(s, dict):
                print(f"  {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}"
                      f"  spread {s['spread']:.3f}")
    if args.write_baseline:
        keep = ("python", "numpy", "nproc", "cpu_model", "commit", "run_seconds")
        doc = {"env": {k: env[k] for k in keep}, "workloads": summary}
        with open(os.path.join(run.HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
