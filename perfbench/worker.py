"""One benchmark process: set up, run a job's operations, report as JSON.

Started by run.py from the checkout root, with src on PYTHONPATH:

    python3 perfbench/worker.py '<job as JSON>'

Set-up is importing cyclomod and preparing every operation's inputs.
Then the operations run one after another.  The last line of standard
output is a JSON object with the monotonic time at which set-up ended,
each operation's start, end and outcome (or error), the CPU time the
operations used and the process's peak RSS.  A job with "setup_only"
stops after set-up; a job with "spans" runs under the span recorder and
writes its spans to that path.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main(argv) -> int:
    job = json.loads(argv[1])
    import cyclomod  # noqa: F401
    import cyclomod.cli  # noqa: F401

    import workloads

    prepared = [workloads.prepare(op) for op in job["ops"]]
    result = {"ready": time.monotonic()}
    if job.get("setup_only"):
        print(json.dumps(result))
        return 0
    rec = None
    if job.get("spans"):
        import tracer

        rec = tracer.Recorder()
        rec.install()
    ops = []
    cpu0 = time.process_time()
    for i, (op, inputs) in enumerate(zip(job["ops"], prepared)):
        if rec is not None:
            rec.op = i
        outcome, error = None, None
        start = time.monotonic()
        try:
            outcome = workloads.run_op(op, inputs, job["seed"])
        except Exception as exc:  # an operation's failure is a measured outcome
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        end = time.monotonic()
        ops.append({"id": op["id"], "start": start, "end": end, "outcome": outcome, "error": error})
    result["cpu_s"] = time.process_time() - cpu0
    if rec is not None:
        rec.uninstall()
        result["stats"] = rec.finish()
        rec.write_spans(job["spans"])
    result["ops"] = ops
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
