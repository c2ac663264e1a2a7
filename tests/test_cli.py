"""Command-line behavior: exit codes, report formats, error surfaces."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclomod
from cyclomod import fileio
from cyclomod.cli import main
from cyclomod.config import DEFAULT_GUARD, GroupConfig, default_precision
from cyclomod.constructions import (
    ExtensionData,
    Theorem1Input,
    carry_cocycle,
    j_module,
)
from cyclomod.modules import augmentation_ideal, direct_sum, trivial_module
from cyclomod.oracle import Iso, modules_isomorphic
from cyclomod.yakovlev import delta

C31 = GroupConfig(3, 1, 11)
C32 = GroupConfig(3, 2, 12)


@pytest.fixture()
def docs(tmp_path):
    fileio.save_file(tmp_path / "ideal31.json", augmentation_ideal(C31))
    fileio.save_file(tmp_path / "j1n2.json", j_module(C32, 1))
    fileio.save_file(tmp_path / "j2n2.json", j_module(C32, 2))
    fileio.save_file(tmp_path / "carry31.json", carry_cocycle(trivial_module(C31, 1)))
    jm = j_module(C31, 1)
    ideal = augmentation_ideal(C31)
    ds = direct_sum(jm, ideal)
    data = Theorem1Input(
        module=ds.module,
        free_witness=(ds.injections[0].apply(jm.generator(0)),),
        ideal_witness=ds.injections[1].apply(ideal.generator(0)),
        rank=1,
    )
    fileio.save_file(tmp_path / "pipe.json", data)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_table(docs, capsys):
    code, out, _ = run(
        capsys, "--format", "machine", "cohomology", str(docs / "ideal31.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == [{"level": 1, "even": [], "odd": [1]}]


def test_cohomology_maps_flag(docs, capsys):
    code, out, _ = run(
        capsys, "--format", "machine", "cohomology", str(docs / "j2n2.json"), "--maps"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"][0]["even"] == [1]
    assert doc["levels"][1]["even"] == [2]
    assert len(doc["maps"]) == 4


def test_wrong_document_kind_fails(docs, capsys):
    code, out, err = run(capsys, "delta", str(docs / "carry31.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("ParseError:")


def test_diagram_document_with_huge_entry_is_rejected_cleanly(tmp_path, capsys):
    data = delta(augmentation_ideal(C32)).to_dict()
    data["levels"][0]["sigma"][0][0] += 2**70
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "delta", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("ParseError:")
    assert "expected a PresentedModule document" in err


def _set(path, value):
    """An edit that stores value at the key path of a document."""

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


# (document in the docs fixture, edit, command reading it)
MALFORMED = {
    "module.p": ("ideal31.json", _set(["p"], "three"), ["cohomology"]),
    "module.coefficient": ("ideal31.json", _set(["relations", 0, 0, 0], 1.5), ["cohomology"]),
    "module.generators": ("ideal31.json", _set(["generators"], "ab"), ["cohomology"]),
    "extension.cocycle": (
        "carry31.json",
        _set(["cocycle", 1, 1], ["x"]),
        ["construct", "split-module", "--extension"],
    ),
    "extension.entry": (
        "carry31.json",
        _set(["cocycle", 2, 2, 0], 1.9),
        ["construct", "split-module", "--extension"],
    ),
    "extension.entry-bool": (
        "carry31.json",
        _set(["cocycle", 2, 2, 0], True),
        ["construct", "split-module", "--extension"],
    ),
    "extension.action": (
        "carry31.json",
        _set(["action"], [["y"]]),
        ["construct", "split-module", "--extension"],
    ),
    "pipeline-input.witness": (
        "pipe.json",
        _set(["free_witness", 0, 0], 5),
        ["construct", "lemma2", "--input"],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_a_parse_error(docs, capsys, case):
    name, edit, argv = MALFORMED[case]
    doc = json.loads((docs / name).read_text())
    edit(doc)
    path = docs / f"malformed.{name}"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("ParseError:")


def test_split_module_over_the_trivial_group(tmp_path, capsys):
    # Over C1 the class table has one row and sigma^1 = sigma^0; the
    # augmentation ideal is zero, so the middle term is the kernel.
    doc = {
        "kind": "extension",
        "p": 3,
        "n": 0,
        "precision": 8,
        "kernel_invariants": [1],
        "action": [[1]],
        "cocycle": "split",
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "--format", "machine", "construct", "split-module", "--extension", str(path)
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["module"] == report["kernel"]
    assert report["module"].endswith("underlying group Z/3")


def test_missing_file_fails(docs, capsys):
    code, _, err = run(capsys, "cohomology", str(docs / "absent.json"))
    assert code == 1
    assert "ParseError" in err


def test_usage_error_exits_one(capsys):
    for argv in (["verify", "prop4", "--bogus"], ["verify", "prop5", "--unit-rank", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "usage" in out


def test_delta_compare_same(docs, capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "machine",
        "delta-compare",
        str(docs / "j1n2.json"),
        str(docs / "j1n2.json"),
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "DiagramIso"


def test_delta_compare_distinct(docs, capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "machine",
        "delta-compare",
        str(docs / "j1n2.json"),
        str(docs / "j2n2.json"),
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "NotIsomorphic"
    assert "level 2" in doc["reason"]


def test_verify_machine_report_deterministic(capsys):
    code1, out1, _ = run(capsys, "--format", "machine", "--seed", "5", "verify", "yakovlev")
    code2, out2, _ = run(capsys, "--format", "machine", "--seed", "5", "verify", "yakovlev")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["status"] == "pass"


def test_verify_capped_search_exits_two(capsys):
    argv = ["--enum-bound", "0", "--max-samples", "1"]
    code, out, _ = run(capsys, *argv, "--format", "machine", "verify", "yakovlev")
    assert code == 2
    assert json.loads(out)["status"] == "undecided"


def test_a_lemma3_search_that_gives_up_exits_two(capsys):
    # The detail says Undecided, and so do the status and the exit code.
    argv = ["--p", "3", "--n", "1", "--enum-bound", "0", "--max-samples", "1"]
    code, out, _ = run(capsys, *argv, "--format", "machine", "verify", "lemma3")
    doc = json.loads(out)
    assert code == 2 and doc["status"] == "undecided" and doc["counts"]["fail"] == 0
    gave_up = [c for c in doc["checks"] if c.get("detail", "").startswith("Undecided:")]
    assert gave_up and all(c["status"] == "undecided" for c in gave_up)


def test_every_undecided_splitting_check_says_why(capsys):
    # The spot checks give a detail for a pass only; an undecided one
    # reads the verdict's reason.
    argv = ["--enum-bound", "0", "--max-samples", "1", "--format", "machine"]
    code, out, _ = run(capsys, *argv, "verify", "splitting")
    undecided = [c for c in json.loads(out)["checks"] if c["status"] == "undecided"]
    assert code == 2 and "split.p3.is_split_sum" in {c["name"] for c in undecided}
    assert all(c.get("detail", "").startswith("Undecided: ") for c in undecided)


@pytest.mark.parametrize("suite", ["splitting", "lemma2", "negative"])
def test_verify_offers_every_battery(capsys, suite):
    code, out, _ = run(capsys, "--format", "machine", "verify", suite)
    assert code == 0
    golden = Path(__file__).parent / "golden" / f"{suite}.json"
    assert json.loads(out)["checks"] == json.loads(golden.read_text())["checks"]


def test_verify_lemma3_capped(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "machine",
        "--p",
        "3",
        "--n",
        "1",
        "verify",
        "lemma3",
        "--e-max",
        "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["knobs"]["e_max"] == 1
    assert doc["status"] == "pass"


@pytest.mark.parametrize(
    "argv, rejected",
    [
        (["--p", "4", "--n", "1", "verify", "prop4"], "--p, --n"),
        (["--p", "1", "--n", "1", "verify", "prop4"], "--p, --n"),
        (["--p", "7", "verify", "theorem1"], "--p"),
        (["--precision", "14", "verify", "splitting"], "--precision"),
        (["--guard", "3", "verify", "lemma2"], "--guard"),
        (["--n", "2", "verify", "yakovlev"], "--n"),
        (["--p", "5", "verify", "negative"], "--p"),
        (["--n", "2", "verify", "prop5"], "--n"),
        (["--p", "3", "--n", "2", "verify", "prop5", "--r", "1"], "--p"),
        (["--n", "3", "verify", "prop5", "--r", "1"], "--n 3"),
    ],
)
def test_verify_rejects_group_options_it_would_ignore(capsys, argv, rejected):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and f"does not take {rejected}" in err


def test_verify_axioms_runs_at_the_session_config(capsys):
    argv = ["--p", "7", "--precision", "12", "verify", "axioms", "--count", "2"]
    code, out, _ = run(capsys, "--format", "machine", *argv)
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "pass"
    assert doc["knobs"]["configs"] == ["p=7 n=1 N=12 guard=2"]
    assert [c["name"] for c in doc["checks"]] == ["p7n1.module0", "p7n1.module1"]


def test_verify_lemma3_reads_precision_and_guard_alone(capsys):
    argv = ["--precision", "13", "--guard", "3", "verify", "lemma3", "--e-max", "0"]
    code, out, _ = run(capsys, "--format", "machine", *argv)
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "pass"
    assert doc["knobs"]["configs"] == ["p=3 n=1 N=13 guard=3"]


def test_verify_prop5_reads_n_for_its_instance(capsys):
    code, out, _ = run(capsys, "--format", "machine", "--n", "2", "verify", "prop5", "--r", "1")
    doc = json.loads(out)
    assert code == 0 and doc["knobs"]["instances"] == ["r=1 exps=[1] n=2"]


def test_out_flag_writes_file(docs, capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "--format",
        "machine",
        "--out",
        str(target),
        "cohomology",
        str(docs / "ideal31.json"),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "cohomology"


def test_construct_j_module_save(docs, capsys, tmp_path):
    target = tmp_path / "j1.json"
    code, _, _ = run(capsys, "construct", "j-module", "--e", "1", "--save", str(target))
    assert code == 0
    saved = fileio.load_file(target)
    assert isinstance(modules_isomorphic(saved, j_module(GroupConfig(3, 1, 13), e=1)), Iso)


def test_construct_lemma2_reports_kernel(docs, capsys):
    code, out, _ = run(
        capsys, "--format", "machine", "construct", "lemma2", "--input", str(docs / "pipe.json")
    )
    assert code == 0
    assert json.loads(out)["kernel_invariants"] == [1, 1]


def test_construct_cocycle_round_trip(docs, capsys, tmp_path):
    target = tmp_path / "rt.json"
    code, _, _ = run(
        capsys, "construct", "cocycle", "--extension", str(docs / "carry31.json"),
        "--save", str(target),
    )
    assert code == 0
    assert isinstance(fileio.load_file(target), ExtensionData)


def test_env_var_sets_default_precision(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOMOD_PRECISION", "9")
    code, out, _ = run(capsys, "--format", "machine", "construct", "j-module", "--e", "1")
    assert code == 0
    assert "N=9" in json.loads(out)["config"]


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "j-module", "--e", "1", "--save", "{missing}"],
        ["construct", "lemma2", "--input", "{pipe}", "--save-a", "{missing}"],
        ["construct", "lemma2", "--input", "{pipe}", "--save-b", "{missing}"],
        ["--out", "{missing}", "verify", "negative"],
    ],
)
def test_unwritable_path_is_a_one_line_error(docs, capsys, argv):
    # A file that cannot be written ends the command, without a traceback.
    missing = docs / "no-such-dir" / "out.json"
    argv = [a.format(missing=missing, pipe=docs / "pipe.json") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("FileNotFoundError:") and err.count("\n") == 1
    assert str(missing) in err


def test_default_precision_covers_the_tate_margin(monkeypatch):
    # Theorem-1 chains need N >= 3n; n + guard + 8 is unchanged up to n = 5.
    monkeypatch.delenv("CYCLOMOD_PRECISION", raising=False)
    for n in range(11):
        assert default_precision(n) >= 3 * n
        if n <= 5:
            assert default_precision(n) == n + DEFAULT_GUARD + 8


@pytest.mark.parametrize("value", ["abc", "12.5"])
def test_env_var_must_be_an_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("CYCLOMOD_PRECISION", value)
    code, out, err = run(capsys, "construct", "j-module", "--e", "1")
    assert code == 1 and out == ""
    assert err.startswith("PreconditionViolated:") and "CYCLOMOD_PRECISION" in err
    assert repr(value) in err


def test_empty_env_var_counts_as_unset(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOMOD_PRECISION", "")
    code, out, _ = run(capsys, "--format", "machine", "construct", "j-module", "--e", "1")
    assert code == 0
    assert "N=11" in json.loads(out)["config"]


def _run_module(module, *argv):
    # The child imports the package the tests import, installed or not.
    src = str(Path(cyclomod.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = _run_module("cyclomod.cli", "--format", "machine", "verify", "prop4")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"


def test_package_entry_point():
    # python -m cyclomod runs cli.main and exits with its code.
    proc = _run_module("cyclomod", "verify", "no-such-suite")
    assert proc.returncode == 1
    assert "no-such-suite" in proc.stderr
