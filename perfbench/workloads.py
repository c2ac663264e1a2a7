"""The benchmark's workloads: which processes run which operations.

A workload is a list of jobs.  A job is one fresh interpreter that
imports cyclomod, prepares its inputs and then runs its operations one
after another (closed loop, one at a time).  Jobs and operations are
plain JSON so the parent can hand them to ``worker.py``.

Each operation has an ``id`` that keys its frozen expected outcome in
``reference.json``.  ``run_op`` executes an operation in the worker and
returns an outcome summary that holds only what must not depend on the
seed: exit codes, report statuses, per-check (name, status) pairs,
invariants and verdict types.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import redirect_stdout

LEMMA3_CONFIG = (5, 2, 10)
THEOREM1_CONFIGS = ((3, 2, 12), (2, 3, 12))
THEOREM1_SHAPES = ("ideal", "ideal+free", "J1+ideal", "J1+ideal+free")
CLI_VERIFY = (
    ("axioms", ["verify", "axioms"]),
    ("prop4", ["verify", "prop4"]),
    ("prop5", ["verify", "prop5"]),
    ("theorem1", ["verify", "theorem1"]),
    ("yakovlev", ["verify", "yakovlev"]),
    ("lemma3.p7n1", ["--p", "7", "--n", "1", "verify", "lemma3"]),
    ("lemma3.p3n2", ["--p", "3", "--n", "2", "verify", "lemma3"]),
)
CLI_GROUPS = ((7, 1), (3, 2))
_GENERATORS = re.compile(r"with \d+ generators?, ")

WHY = {
    "lemma3-c25": "J-family battery at C25, e<=1: one huge module construction per J_e "
    "(submodule Smith on ~650x625 lattices), int64 path, no hom spaces",
    "theorem1-c9c8": "theorem-1 chain on four input shapes at C9 and C8: bound by hom-space "
    "search over hundreds of unknowns, covers p=2, int64 path",
    "cli-default": "17 CLI commands in fresh interpreters at default precision: many tiny "
    "eliminations, JSON document save and reload, object-dtype path at C7",
}


def _tag(p: int, n: int) -> str:
    return f"p{p}n{n}"


def jobs(workload: str, seed: int, workdir: str) -> list:
    """The jobs of one pass of a workload, in order."""
    if workload == "lemma3-c25":
        p, n, prec = LEMMA3_CONFIG
        op = {"id": f"lemma3.{_tag(p, n)}.e1", "kind": "lemma3", "config": [p, n, prec], "e_max": 1}
        return [{"seed": seed, "ops": [op]}]
    if workload == "theorem1-c9c8":
        ops = [
            {
                "id": f"theorem1.{_tag(p, n)}.{shape}",
                "kind": "theorem1",
                "config": [p, n, prec],
                "shape": shape,
            }
            for p, n, prec in THEOREM1_CONFIGS
            for shape in THEOREM1_SHAPES
        ]
        return [{"seed": seed, "ops": ops}]
    if workload == "cli-default":
        argvs = [(f"cli.verify.{name}", argv) for name, argv in CLI_VERIFY]
        for p, n in CLI_GROUPS:
            tag = _tag(p, n)
            j1 = os.path.join(workdir, f"{tag}.J1.json")
            j2 = os.path.join(workdir, f"{tag}.J2.json")
            group = ["--p", str(p), "--n", str(n)]
            argvs += [
                (f"cli.{tag}.construct.J1", group + ["construct", "j-module", "--e", "1", "--save", j1]),
                (f"cli.{tag}.construct.J2", group + ["construct", "j-module", "--e", "2", "--save", j2]),
                (f"cli.{tag}.cohomology.J1", ["cohomology", "--maps", j1]),
                (f"cli.{tag}.delta.J2", ["delta", j2]),
                (f"cli.{tag}.delta-compare", ["delta-compare", j1, j2]),
            ]
        return [
            {
                "seed": seed,
                "ops": [
                    {
                        "id": op_id,
                        "kind": "cli",
                        "argv": ["--seed", str(seed), "--format", "machine"] + argv,
                    }
                ],
            }
            for op_id, argv in argvs
        ]
    raise KeyError(workload)


def configs(workload: str) -> list:
    """(p, n, N) of every group config the workload's operations run on.

    CLI commands without --precision use the default precision for n.
    """
    from cyclomod.config import default_precision

    if workload == "lemma3-c25":
        return [LEMMA3_CONFIG]
    if workload == "theorem1-c9c8":
        return list(THEOREM1_CONFIGS)
    from cyclomod.suites import CONFIG_31, CONFIG_32, CONFIG_51

    suites = [(c.p, c.n, c.precision) for c in (CONFIG_31, CONFIG_32, CONFIG_51)]
    session = [(p, n, default_precision(n)) for p, n in CLI_GROUPS]
    return sorted(set(suites + session))


# -- in the worker -------------------------------------------------------------


def prepare(op: dict):
    """Build an operation's inputs; runs during set-up, before timing."""
    from cyclomod.config import GroupConfig

    if op["kind"] == "lemma3":
        return GroupConfig(*op["config"])
    if op["kind"] == "theorem1":
        return theorem1_input(op["shape"], GroupConfig(*op["config"]))
    return list(op["argv"])


def theorem1_input(shape: str, cfg):
    """A pipeline input of the given shape, with its witnesses.

    Same recipes as the pipeline battery in cyclomod.suites, built from
    public constructors: generator 0 of J_1 is p * 1, which spans a free
    finite-index sublattice of the J-summand.
    """
    from cyclomod.constructions import Theorem1Input, j_module
    from cyclomod.modules import augmentation_ideal, direct_sum, free_module

    ideal = augmentation_ideal(cfg)
    if shape == "ideal":
        return Theorem1Input(module=ideal, free_witness=(), ideal_witness=ideal.generator(0), rank=0)
    parts = [ideal]
    if shape.startswith("J1+"):
        parts.insert(0, j_module(cfg, 1))
    if shape.endswith("+free"):
        parts.append(free_module(cfg, 1, names=["f"]))
    ds = direct_sum(*parts)
    at = 1 if shape.startswith("J1+") else 0
    free = tuple(
        ds.injections[i].apply(part.generator(0)) for i, part in enumerate(parts) if i != at
    )
    return Theorem1Input(
        module=ds.module,
        free_witness=free,
        ideal_witness=ds.injections[at].apply(ideal.generator(0)),
        rank=len(free),
    )


def run_op(op: dict, prepared, seed: int) -> dict:
    """Execute one prepared operation and summarize its outcome."""
    from cyclomod.config import IsoSearchConfig

    if op["kind"] == "lemma3":
        from cyclomod import suites

        report = suites.suite_lemma3(
            configs=(prepared,), search=IsoSearchConfig(seed=seed), e_max=op["e_max"]
        )
        return {"status": report.status, "checks": [[c.name, c.status] for c in report.checks]}
    if op["kind"] == "theorem1":
        from cyclomod import constructions

        rep = constructions.theorem1_verify(prepared, IsoSearchConfig(seed=seed))
        return {
            "passed": rep.passed,
            "diagram": type(rep.diagram_verdict).__name__,
            "stable": type(rep.stable_verdict).__name__,
            "h2": [list(rep.h2_invariants[0]), list(rep.h2_invariants[1])],
            "kernel_invariants": list(rep.pipeline.kernel.module.torsion_invariants()),
            "stripped_free_rank": rep.stripped_free_rank,
        }
    return run_cli(prepared)


def run_cli(argv: list) -> dict:
    """Run cyclomod.cli.main in-process, as the console script would.

    A SystemExit escaping main is an error here: main is meant to turn
    every outcome into a return code.
    """
    from cyclomod import cli

    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        raise RuntimeError(f"SystemExit({exc.code}) escaped cli.main") from None
    return cli_summary(code, out.getvalue())


def cli_summary(code: int, stdout: str) -> dict:
    """Exit code plus the seed- and presentation-independent report fields.

    Kept: statuses, per-check (name, status), verdict types, invariant
    factors and module descriptions without their generator count.
    Dropped: echoed knobs and paths, free-text reasons, and matrices
    (transfer maps, diagram maps, found isomorphisms), whose entries
    depend on the chosen bases.
    """
    summary = {"exit": code}
    if not stdout.strip():
        return summary
    doc = json.loads(stdout)
    for key, value in doc.items():
        if key in ("knobs", "saved", "reason", "maps", "alpha", "beta"):
            continue
        if key == "levels" and doc.get("command") == "delta-compare":
            continue
        if key == "levels" and doc.get("command") == "delta":
            value = [level["invariants"] for level in value]
        elif key == "checks":
            value = [[c["name"], c["status"]] for c in value]
        elif isinstance(value, str):
            value = _GENERATORS.sub("", value)
        summary[key] = value
    return summary


def check(outcome: dict, expected: dict) -> str | None:
    """None when an outcome matches its reference, else the first difference."""
    if expected is None:
        return "no reference outcome"
    for key in sorted(set(outcome) | set(expected)):
        if outcome.get(key) != expected.get(key):
            return f"{key}: got {outcome.get(key)!r:.200}, expected {expected.get(key)!r:.200}"
    return None
