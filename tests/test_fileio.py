"""JSON document round trips, canonical residues, and report rendering."""

import json

import pytest

from cyclomod import fileio
from cyclomod.config import GroupConfig
from cyclomod.constructions import (
    Theorem1Input,
    carry_cocycle,
    j_module,
    zero_extension,
)
from cyclomod.errors import InfiniteKernel, ParseError
from cyclomod.modules import (
    augmentation_ideal,
    direct_sum,
    free_module,
    trivial_module,
)
from cyclomod.oracle import Iso, modules_isomorphic
from cyclomod.yakovlev import YakovlevDiagram, delta

C31 = GroupConfig(3, 1, 11)
C32 = GroupConfig(3, 2, 12)


def test_module_round_trip_bytes():
    module = j_module(C32, 1)
    text = fileio.save_text(module)
    again = fileio.load_text(text)
    assert again.cfg == module.cfg
    assert again.gen_names == module.gen_names
    assert fileio.save_text(again) == text
    assert isinstance(modules_isomorphic(again, module), Iso)


def test_module_coefficients_are_centered():
    # sigma - 1 acting on the trivial module gives a coefficient of
    # p^N - 1, which must serialize as -1, not as the huge residue.
    doc = fileio.to_dict(trivial_module(C31, 1))
    flat = [v for row in doc["relations"] for vec in row for v in vec]
    assert -1 in flat
    assert all(abs(v) <= C31.modulus // 2 for v in flat)


def test_extension_round_trip_bytes():
    ext = carry_cocycle(trivial_module(C31, 1))
    text = fileio.save_text(ext)
    again = fileio.load_text(text)
    assert fileio.save_text(again) == text
    doc = fileio.to_dict(again)
    assert doc["kernel_invariants"] == [1]
    assert doc["cocycle"][2][2] == [1]


def test_split_class_serializes_as_literal():
    ext = zero_extension(trivial_module(C31, 2))
    doc = fileio.to_dict(ext)
    assert doc["cocycle"] == "split"
    again = fileio.load_text(fileio.save_text(ext))
    assert again.cocycle.shape == (3, 3, 1)
    assert not again.cocycle.any()


def test_extension_entry_beyond_int64_loads_reduced():
    # Entries are reduced in Python integers before any fixed-width cast.
    ext = carry_cocycle(trivial_module(C31, 1))
    doc = fileio.to_dict(ext)
    doc["cocycle"][2][2][0] += 2**60 * C31.modulus
    assert doc["cocycle"][2][2][0] > 2**63
    again = fileio.load_text(json.dumps(doc))
    assert fileio.save_text(again) == fileio.save_text(ext)


def test_document_numbers_must_be_integers():
    # int() would truncate these to a valid document
    doc = delta(augmentation_ideal(C32)).to_dict()
    assert [lv["invariants"] for lv in doc["levels"]] == [[1], [2]]
    doc["levels"][0]["invariants"] = [1.5]
    doc["levels"][1]["invariants"] = [2.5]
    with pytest.raises(ParseError):
        fileio.load_text(json.dumps(doc))


def test_huge_kernel_invariant_is_an_infinite_kernel():
    # p^40 exceeds int64; it is reduced mod p^N (to 0, a free coordinate)
    # before any fixed-width cast
    doc = {
        "kind": "extension", "p": 3, "n": 1, "precision": 11,
        "kernel_invariants": [1, 40], "action": [[1, 0], [0, 1]], "cocycle": "split",
    }
    with pytest.raises(InfiniteKernel):
        fileio.load_text(json.dumps(doc))


def test_pipeline_input_load_save_load_is_identity():
    jm = j_module(C31, 1)
    ideal = augmentation_ideal(C31)
    ds = direct_sum(jm, ideal)
    data = Theorem1Input(
        module=ds.module,
        free_witness=(ds.injections[0].apply(jm.generator(0)),),
        ideal_witness=ds.injections[1].apply(ideal.generator(0)),
        rank=1,
    )
    first = fileio.load_text(fileio.save_text(data))
    text1 = fileio.save_text(first)
    second = fileio.load_text(text1)
    # the parsed structure is a fixed point of load o save
    assert fileio.save_text(second) == text1
    assert second.rank == first.rank == 1
    assert fileio.to_dict(second) == fileio.to_dict(first)
    assert second.module.cfg == data.module.cfg


def test_diagram_round_trip():
    diagram = delta(j_module(C32, 1))
    text = fileio.save_text(diagram)
    again = fileio.load_text(text)
    assert isinstance(again, YakovlevDiagram)
    assert again == diagram
    assert fileio.save_text(again) == text


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        fileio.load_text('{"kind": "module",\n "p": }')
    assert "line 2" in str(err.value)
    assert "column" in str(err.value)


def test_rejects_unknown_kind_and_non_object():
    with pytest.raises(ParseError):
        fileio.load_text('{"kind": "widget"}')
    with pytest.raises(ParseError):
        fileio.load_text("[1, 2, 3]")
    with pytest.raises(ParseError):
        fileio.load_text('{"p": 3}')


def test_rejects_missing_and_malformed_fields():
    good = fileio.to_dict(trivial_module(C31, 1))
    missing = dict(good)
    del missing["relations"]
    with pytest.raises(ParseError):
        fileio.module_from_dict(missing)
    ragged = dict(good)
    ragged["relations"] = [[[1, 2]]]
    with pytest.raises(ParseError):
        fileio.module_from_dict(ragged)


def test_load_file_reports_missing_path(tmp_path):
    with pytest.raises(ParseError) as err:
        fileio.load_file(tmp_path / "absent.json")
    assert "absent.json" in str(err.value)


def test_precision_override_on_load(tmp_path):
    path = tmp_path / "mod.json"
    fileio.save_file(path, augmentation_ideal(C31))
    raised = fileio.load_file(path, precision=9)
    assert raised.cfg.precision == 9
    assert raised.cfg.p == 3


def test_machine_report_is_canonical():
    doc = {"b": [1, 2], "a": {"y": 0, "x": ()}}
    one = fileio.machine_report(doc)
    two = fileio.machine_report(json.loads(one))
    assert one == two
    assert one.endswith("\n")
    assert "\n" not in one[:-1]
    assert " " not in one


def test_text_report_renders_nesting():
    text = fileio.text_report(
        {"command": "probe", "levels": [{"even": [1]}, {"even": []}]}
    )
    assert "command: probe" in text
    assert text.endswith("\n")
