"""Benchmark for cyclomod: end-to-end metrics per workload, per-layer on request.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lemma3-c25 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): lemma3-c25, theorem1-c9c8,
cli-default.  Each pass of a workload runs its jobs one after another,
each job in a fresh interpreter (closed loop, one process at a time).
Passes repeat while the next one is expected to end within --seconds;
at least one always runs.

--trace 0 reports the end-to-end metrics:
  setup_s      interpreter start, import and input preparation, summed
               over a pass's processes; median over passes and set-up
               probes (set-up-only passes, added until there are
               SETUP_SAMPLES samples or PROBE_BUDGET_S of probing)
  wall_s       time from the first operation's start to the last one's
               end, summed over a pass's processes; median over passes
  peak_rss_mb  largest peak RSS of any process in the run
--trace 1 runs one untraced and one traced pass and reports the
per-layer metrics of tracer.LAYER_METRICS, plus process.cpu_s and
trace.overhead_ratio.

Every operation's outcome is checked against reference.json.  An
operation that raises, times out, lets SystemExit escape cli.main or
differs from the reference counts as failed.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Spans and a full record of the run go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = ".perfbench_out"
WORKDIR = os.path.join(OUT, "work")
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 15
PROBE_BUDGET_S = 6.0


class Job:
    """Outcome of one worker process."""

    def __init__(self, job: dict, spawned: float, result: dict | None, error: str | None, ended: float):
        self.job = job
        self.spawned = spawned
        self.result = result
        self.error = error
        self.ended = ended

    @property
    def setup_s(self) -> float:
        if self.result is None:
            return self.ended - self.spawned
        return self.result["ready"] - self.spawned

    @property
    def wall_s(self) -> float:
        ops = self.result["ops"] if self.result else []
        if not ops:
            return self.ended - self.spawned
        return ops[-1]["end"] - ops[0]["start"]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CYCLOMOD_PRECISION", None)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(job: dict, deadline: float) -> Job:
    """Run one worker to completion or until the run's deadline."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return Job(job, spawned, None, "timeout", time.monotonic())
    ended = time.monotonic()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return Job(job, spawned, None, f"worker exited {proc.returncode}", ended)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return Job(job, spawned, None, "worker printed no result", ended)
    if any(op["error"] for op in result.get("ops", ())):
        sys.stderr.write(proc.stderr[-4000:])
    return Job(job, spawned, result, None, ended)


def clean_workdir() -> None:
    os.makedirs(WORKDIR, exist_ok=True)
    for name in os.listdir(WORKDIR):
        os.remove(os.path.join(WORKDIR, name))


class Pass:
    """One pass over a workload's jobs."""

    def __init__(self, workload: str, seed: int, deadline: float, spans: str | None = None,
                 setup_only: bool = False):
        clean_workdir()
        started = time.monotonic()
        self.jobs = []
        for i, job in enumerate(workloads.jobs(workload, seed, WORKDIR)):
            if setup_only:
                job["setup_only"] = True
            if spans:
                job["spans"] = f"{spans}-job{i:02d}.jsonl.gz"
            self.jobs.append(spawn(job, deadline))
        self.seconds = time.monotonic() - started

    @property
    def setup_s(self) -> float:
        return sum(j.setup_s for j in self.jobs)

    @property
    def wall_s(self) -> float:
        return sum(j.wall_s for j in self.jobs)

    @property
    def peak_rss_mb(self) -> float:
        return max((j.result["maxrss_kb"] for j in self.jobs if j.result), default=0) / 1024

    @property
    def cpu_s(self) -> float:
        return sum(j.result["cpu_s"] for j in self.jobs if j.result)


def judge(jobs, reference: dict) -> list:
    """(op id, failure or None) for every operation of the given jobs."""
    out = []
    for j in jobs:
        reported = {op["id"]: op for op in (j.result or {}).get("ops", ())}
        for op in j.job["ops"]:
            got = reported.get(op["id"])
            if got is None:
                out.append((op["id"], j.error or "not run"))
            elif got["error"]:
                out.append((op["id"], got["error"]))
            else:
                out.append((op["id"], workloads.check(got["outcome"], reference.get(op["id"]))))
    return out


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["outcomes"]


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", *head[5:].split("/")), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git work tree)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(workload: str, seed: int) -> dict:
    import numpy

    from cyclomod import linalg
    from cyclomod.config import GroupConfig

    dtypes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p, n, prec in workloads.configs(workload):
            dtype = linalg.context_of(GroupConfig(p, n, prec)).dtype
            dtypes[f"p={p} n={n} N={prec}"] = "object" if dtype is object else numpy.dtype(dtype).name
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "workload": workload,
        "dtype_paths": dtypes,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple:
    """End-to-end metrics and the passes they came from.

    Another pass starts only if, judged by the last one, it will end
    within seconds of the first pass's start.
    """
    passes = []
    started = time.monotonic()
    while not passes or time.monotonic() - started + passes[-1].seconds <= seconds:
        passes.append(Pass(workload, seed, deadline))
    setups = [p.setup_s for p in passes]
    probes = []
    while len(setups) < SETUP_SAMPLES and sum(p.seconds for p in probes) < PROBE_BUDGET_S:
        probes.append(Pass(workload, seed, deadline, setup_only=True))
        setups.append(probes[-1].setup_s)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "peak_rss_mb": metric(max(p.peak_rss_mb for p in passes), "MB"),
    }
    return metrics, passes, probes


def measure_layers(workload: str, seed: int, deadline: float) -> tuple:
    """Per-layer metrics from one traced pass, against one untraced pass."""
    plain = Pass(workload, seed, deadline)
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    spans = os.path.join(OUT, "spans", f"{workload}-seed{seed}")
    traced = Pass(workload, seed, deadline, spans=spans)
    stats = tracer.merge_stats(j.result["stats"] for j in traced.jobs if j.result)
    values = tracer.layer_metrics(stats)
    values["process.cpu_s"] = plain.cpu_s
    values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s if plain.wall_s else 0.0
    units = {name: unit for name, (unit, _, _) in tracer.LAYER_METRICS.items()}
    units.update({"process.cpu_s": "s", "trace.overhead_ratio": "ratio"})
    metrics = {name: metric(value, units[name]) for name, value in values.items()}
    return metrics, [plain, traced], []


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cyclomod", "__init__.py")):
        print("run.py: no src/cyclomod here; run from the root of a cyclomod checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("CYCLOMOD_PRECISION", None)
    deadline = started + RUN_LIMIT_S
    reference = load_reference()
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    first = workloads.jobs(args.workload, args.seed, WORKDIR)[0]
    spawn(dict(first, setup_only=True), deadline)  # warms the bytecode cache, untimed
    if args.trace:
        metrics, passes, probes = measure_layers(args.workload, args.seed, deadline)
    else:
        metrics, passes, probes = measure(args.workload, args.seed, args.seconds, deadline)
    checked = [item for p in passes for item in judge(p.jobs, reference)]
    failures = [(op_id, why) for op_id, why in checked if why]
    for op_id, why in failures:
        print(f"FAILED {op_id}: {why}", file=sys.stderr)
    attempted = len(checked)
    for name, m in sorted(metrics.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops failed)")

    record = {
        "env": env,
        "args": vars(args),
        "passes": [
            {
                "setup_s": p.setup_s,
                "wall_s": p.wall_s,
                "peak_rss_mb": p.peak_rss_mb,
                "cpu_s": p.cpu_s,
                "ops": [
                    {"id": op["id"], "s": op["end"] - op["start"], "error": op["error"]}
                    for j in p.jobs if j.result for op in j.result["ops"]
                ],
            }
            for p in passes
        ],
        "setup_probes_s": [p.setup_s for p in probes],
        "failures": failures,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
