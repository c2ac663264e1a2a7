"""Tests of the benchmark itself: span arithmetic, patching, reference checks.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(REPO, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that reads from a script of times."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# -- self time ----------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    # 0 [0, 10] > 1 [1, 7] > 2 [2, 5]; 0 > 3 [8, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 8.0]
    end = [10.0, 7.0, 5.0, 9.0]
    assert tracer.self_times(parent, start, end) == [3.0, 3.0, 3.0, 1.0]


def test_recorder_nested_spans_and_recursion():
    # outer(0..10) calls inner(1..4) and outer(5..9); the nested outer
    # calls inner(6..7).  Clock reads: open/close in call order.
    rec = tracer.Recorder(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    calls = {"depth": 0}

    def inner():
        return None

    def outer():
        calls["depth"] += 1
        w_inner()
        if calls["depth"] == 1:
            w_outer()

    w_inner = rec.wrap("inner", inner)
    w_outer = rec.wrap("outer", outer)
    w_outer()
    stats = rec.finish()
    assert stats["outer"]["calls"] == 2
    # total time counts the outermost span only: 10, not 10 + 4
    assert stats["outer"]["total_s"] == 10
    # self: outer0 = 10 - 3 - 4 = 3; outer1 = 4 - 1 = 3
    assert stats["outer"]["self_s"] == 6
    assert stats["inner"]["calls"] == 2
    assert stats["inner"]["self_s"] == 4
    assert stats["inner"]["leaf"] == 2 and stats["outer"]["leaf"] == 0


def test_recorder_counts_escaping_exceptions():
    rec = tracer.Recorder(clock=FakeClock([0, 1]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.finish()["boom"]["raised_KeyError"] == 1


def test_merge_stats_sums_counts_and_keeps_maxima():
    a = {"linalg.smith": {"calls": 2, "cells": 10, "max_cells": 8}}
    b = {"linalg.smith": {"calls": 1, "cells": 30, "max_cells": 30}}
    merged = tracer.merge_stats([a, b])
    assert merged["linalg.smith"] == {"calls": 3, "cells": 40, "max_cells": 30}
    assert tracer.layer_metrics(merged)["linalg.smith.max_cells"] == 30


# -- patching -----------------------------------------------------------------


def _bindings(value):
    return [
        (ns.__name__, attr)
        for ns in tracer.cyclomod_namespaces()
        for attr, v in vars(ns).items()
        if v is value
    ]


def test_every_alias_is_wrapped_during_the_run_and_none_after():
    import cyclomod  # noqa: F401
    import cyclomod.cli  # noqa: F401
    from cyclomod import cohomology

    rec = tracer.Recorder()
    rec.install()
    try:
        for name, (original, wrapper) in rec.wrappers.items():
            assert not _bindings(original), name
        tate_wrapper = rec.wrappers["cohomology.tate"][1]
        bound = {mod for mod, _ in _bindings(tate_wrapper)}
        assert {
            "cyclomod",
            "cyclomod.cohomology",
            "cyclomod.oracle",
            "cyclomod.yakovlev",
            "cyclomod.suites",
            "cyclomod.cli",
        } <= bound
        for modname, clsname, meth, span in tracer.METHODS:
            cls = getattr(sys.modules[f"cyclomod.{modname}"], clsname)
            assert cls.__dict__[meth] is not rec.wrappers[span][0]
    finally:
        rec.uninstall()
    for name, (original, wrapper) in rec.wrappers.items():
        assert not _bindings(wrapper), name
    for modname, fname in tracer.FUNCTIONS:
        original = rec.wrappers[f"{modname}.{fname}"][0]
        assert getattr(sys.modules[f"cyclomod.{modname}"], fname) is original
    for modname, clsname, meth, span in tracer.METHODS:
        cls = getattr(sys.modules[f"cyclomod.{modname}"], clsname)
        assert cls.__dict__[meth] is rec.wrappers[span][0]
    assert cohomology.tate.__name__ == "tate"


def test_traced_calls_reach_every_layer_they_touch():
    from cyclomod import modules
    from cyclomod.config import GroupConfig

    cfg = GroupConfig(3, 1, 11)
    module = modules.trivial_module(cfg, 1)
    rec = tracer.Recorder()
    rec.install()
    try:
        from cyclomod.yakovlev import delta  # bound after install: the wrapper

        delta(module)
    finally:
        rec.uninstall()
    values = tracer.layer_metrics(rec.finish())
    assert values["yakovlev.delta.calls"] == 1
    assert values["cohomology.tate.calls"] >= 1
    assert values["cohomology.TateGroup.builds"] >= 1
    assert 0 <= values["cohomology.tate.hit_ratio"] <= 1
    assert values["linalg.smith.calls"] >= 1
    assert values["linalg.smith.object_calls"] == 0


# -- reference checks ------------------------------------------------------------


def test_reference_check_rejects_a_corrupted_output():
    reference = run.load_reference()
    expected = reference["lemma3.p5n2.e1"]
    assert workloads.check(json.loads(json.dumps(expected)), expected) is None
    corrupted = json.loads(json.dumps(expected))
    corrupted["checks"][3][1] = "fail"
    assert "checks" in workloads.check(corrupted, expected)
    verdict = dict(reference["theorem1.p3n2.J1+ideal+free"], stable="Undecided")
    assert "stable" in workloads.check(verdict, reference["theorem1.p3n2.J1+ideal+free"])
    assert workloads.check({"exit": 0}, None) == "no reference outcome"


def test_cli_summary_ignores_seed_echo_and_generator_counts():
    report = {
        "command": "construct.j-module",
        "module": "module over Z3[C9] with 10 generators, underlying group Zp^9",
        "saved": "a/b.json",
        "knobs": {"seed": 4},
    }
    summary = workloads.cli_summary(0, json.dumps(report))
    assert summary == {
        "exit": 0,
        "command": "construct.j-module",
        "module": "module over Z3[C9] underlying group Zp^9",
    }


def test_systemexit_escaping_cli_main_is_an_error():
    with pytest.raises(RuntimeError, match="SystemExit"):
        workloads.run_cli(["--format", "machine", "verify", "no-such-suite"])


def test_a_failing_op_raises_the_error_rate():
    reference = run.load_reference()
    good = {"id": "cli.verify.prop4", "kind": "cli", "argv": ["--seed", "3", "--format", "machine", "verify", "prop4"]}
    bad = {"id": "cli.verify.prop4", "kind": "cli", "argv": ["--format", "machine", "verify", "no-such-suite"]}
    deadline = time.monotonic() + 120
    jobs = [run.spawn({"seed": 3, "ops": [good]}, deadline), run.spawn({"seed": 3, "ops": [bad]}, deadline)]
    verdicts = run.judge(jobs, reference)
    assert verdicts[0] == ("cli.verify.prop4", None)
    assert "SystemExit" in verdicts[1][1]
    assert sum(1 for _, why in verdicts if why) / len(verdicts) == 0.5


# -- the benchmark's declaration -------------------------------------------------


def test_benchmark_json_matches_what_run_reports():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    expected = set(tracer.LAYER_METRICS) | {"process.cpu_s", "trace.overhead_ratio"}
    assert set(per_layer) == expected
    for name, (unit, better, _) in tracer.LAYER_METRICS.items():
        assert (per_layer[name]["unit"], per_layer[name]["better"]) == (unit, better), name


def test_reference_covers_every_operation():
    reference = run.load_reference()
    ids = {op["id"] for w in workloads.WHY for job in workloads.jobs(w, 0, "x") for op in job["ops"]}
    assert ids == set(reference)
