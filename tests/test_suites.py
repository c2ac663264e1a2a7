"""Battery machinery: report shapes, status precedence, determinism.

Most suites run here with reduced knobs to keep this file fast; the
J-family battery also runs at C25 with e <= 1.  The full default
batteries (ALL_SUITES at default settings) are not run here.
"""

import pytest

from cyclomod import fileio
from cyclomod.config import GroupConfig, IsoSearchConfig
from cyclomod.constructions import j_module
from cyclomod.errors import PreconditionViolated
from cyclomod.oracle import Iso, StableIso
from cyclomod.suites import (
    ALL_SUITES,
    CONFIG_31,
    CheckResult,
    SuiteReport,
    _Collector,
    suite_axioms,
    suite_lemma2,
    suite_lemma3,
    suite_negative,
    suite_prop4,
    suite_prop5,
    suite_splitting,
    suite_theorem1,
    suite_yakovlev,
)
from cyclomod.verdicts import NotIsomorphic, NotStablyIsomorphic, Undecided
from cyclomod.yakovlev import DiagramIso


def test_registry_names():
    assert set(ALL_SUITES) == {
        "lemma3",
        "axioms",
        "splitting",
        "lemma2",
        "prop4",
        "prop5",
        "theorem1",
        "yakovlev",
        "negative",
    }


def test_status_precedence():
    checks = (
        CheckResult("a", "pass"),
        CheckResult("b", "undecided", "gave up"),
        CheckResult("c", "fail", "boom"),
    )
    report = SuiteReport("probe", {}, checks)
    assert report.status == "fail"
    assert report.counts == {"pass": 1, "fail": 1, "undecided": 1}
    assert [c.name for c in report.failures()] == ["c"]
    assert SuiteReport("probe", {}, checks[:2]).status == "undecided"
    assert SuiteReport("probe", {}, checks[:1]).status == "pass"
    assert SuiteReport("probe", {}, ()).status == "pass"


@pytest.mark.parametrize(
    "verdict, if_witness, if_refutation",
    [
        (Iso(None, None), "pass", "fail"),
        (StableIso(0, 1, None), "pass", "fail"),
        (DiagramIso(()), "pass", "fail"),
        (NotIsomorphic("r"), "fail", "pass"),
        (NotStablyIsomorphic("r"), "fail", "pass"),
        (Undecided("r"), "undecided", "undecided"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_one_status_rule_for_every_verdict(verdict, if_witness, if_refutation):
    col = _Collector()
    col.add_verdict("witness", verdict, True)
    col.add_verdict("refutation", verdict, False, "own detail")
    got = [(c.name, c.status) for c in col.checks]
    assert got == [("witness", if_witness), ("refutation", if_refutation)]
    reason = f": {verdict.reason}" if hasattr(verdict, "reason") else ""
    assert col.checks[0].detail == type(verdict).__name__ + reason
    assert col.checks[1].detail == "own detail"


def test_report_dict_shape():
    report = suite_prop4()
    doc = report.to_dict()
    assert doc["suite"] == "prop4"
    assert doc["status"] == "pass"
    assert doc["counts"]["fail"] == 0
    assert all({"name", "status"} <= set(c) for c in doc["checks"])


def test_lemma3_reduced_config():
    report = suite_lemma3(configs=(CONFIG_31,))
    assert report.status == "pass"
    # e in 0..2, two parities at one level, build+resolution checks,
    # one h-isomorphism per e >= 1, one pairwise pair, one top check
    assert report.counts["pass"] == len(report.checks)


def test_lemma3_at_order_25():
    report = suite_lemma3(configs=(GroupConfig(5, 2, 10),), e_max=1)
    assert report.status == "pass"
    assert report.counts["pass"] == len(report.checks)


@pytest.mark.parametrize(
    "p, n, precision",
    [(3, 1, 40), (3, 1, 41), (3, 1, 42), (3, 1, 43), (3, 1, 44), (2, 1, 64), (5, 1, 28)],
)
def test_lemma3_with_moduli_past_int64(p, n, precision):
    # p^N of 2^63 or more: object arrays whose Python integers must not
    # pass through a float64, uint64 or C long on the way.
    report = suite_lemma3(configs=(GroupConfig(p, n, precision),))
    assert report.status == "pass"
    assert report.counts["pass"] == len(report.checks)


def test_j_module_at_order_27():
    jm = j_module(GroupConfig(3, 3, 13), 1)
    assert jm.invariant_summary() == (27, ())
    assert len(jm.gen_names) == 28


def test_lemma3_e_max_caps_family():
    capped = suite_lemma3(configs=(CONFIG_31,), e_max=0)
    names = [c.name for c in capped.checks]
    assert all(".J0." in name or name.endswith(".build") for name in names)
    assert capped.status == "pass"


def test_axioms_seeded_and_deterministic():
    one = suite_axioms(seed=3, count=4)
    two = suite_axioms(seed=3, count=4)
    assert one.status == "pass"
    assert fileio.machine_report(one.to_dict()) == fileio.machine_report(two.to_dict())


def test_splitting_battery_passes():
    report = suite_splitting()
    assert report.status == "pass"
    assert report.counts["pass"] >= 40


def test_lemma2_battery_passes():
    report = suite_lemma2()
    assert report.status == "pass"


def test_prop5_instances_pass():
    report = suite_prop5()
    assert report.status == "pass"
    assert len(report.checks) == 8


@pytest.mark.parametrize("n", [0, 3])
def test_prop5_rejects_an_instance_it_cannot_run_at_its_n(n):
    # Such an instance would run at n = 1 under its own name; the battery
    # refuses it before it runs any instance.
    with pytest.raises(PreconditionViolated, match=f"not n = {n}"):
        suite_prop5(instances=((1, (1,), 1), (1, (1,), n)))


def test_theorem1_cases_pass():
    report = suite_theorem1()
    assert report.status == "pass"


# One sample and no enumeration: the searches give up on the pairs that
# need one, and those checks go undecided, none of them fail.
GIVE_UP = IsoSearchConfig(enumeration_bound=0, max_samples=1)


def test_a_lemma3_search_that_gives_up_is_undecided():
    capped = suite_lemma3(configs=(CONFIG_31,), search=GIVE_UP)
    assert capped.status == "undecided"
    assert capped.counts["fail"] == 0


def test_a_splitting_search_that_gives_up_is_undecided():
    capped = suite_splitting(search=GIVE_UP)
    assert capped.status == "undecided"
    assert capped.counts["fail"] == 0


def test_yakovlev_cross_check_passes():
    report = suite_yakovlev()
    assert report.status == "pass"


def test_negative_controls_pass():
    report = suite_negative()
    assert report.status == "pass"
    assert len(report.checks) == 4
