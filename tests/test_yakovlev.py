"""Level diagrams: construction, axioms, and isomorphism decisions."""

import json
from pathlib import Path

import numpy as np
import pytest

from cyclomod import fileio
from cyclomod.config import GroupConfig
from cyclomod.errors import ParseError
from cyclomod.modules import (
    augmentation_ideal,
    direct_sum,
    free_module,
    quotient_by_image,
    scalar_action_hom,
    trivial_module,
    zp_trivial,
)
from cyclomod.arith import sigma_power
from cyclomod.verdicts import NotIsomorphic
from cyclomod.yakovlev import (
    DiagramIso,
    YakovlevDiagram,
    check_axioms,
    delta,
    diagrams_isomorphic,
)


def cfg(p=3, n=2, precision=9):
    return GroupConfig(p=p, n=n, precision=precision)


def test_delta_of_trivial_lattice_is_empty():
    d = delta(zp_trivial(cfg()))
    assert d.invariants == ((), ())
    assert check_axioms(d) == []
    assert isinstance(diagrams_isomorphic(d, d), DiagramIso)


def test_delta_of_augmentation_ideal():
    d = delta(augmentation_ideal(cfg()))
    assert d.invariants == ((1,), (2,))
    assert check_axioms(d) == []
    # alpha beta = p, visible directly on the 1x1 matrices
    a = int(d.alpha[0][0, 0])
    b = int(d.beta[0][0, 0])
    assert (a * b) % 9 == 3


def test_delta_levels_for_finite_trivial_modules():
    c = cfg()
    assert delta(trivial_module(c, exponent=1)).invariants == ((1,), (1,))
    assert delta(trivial_module(c, exponent=2)).invariants == ((1,), (2,))


def test_diagrams_distinguish_torsion_exponents():
    c = cfg()
    d1 = delta(trivial_module(c, exponent=1))
    d2 = delta(trivial_module(c, exponent=2))
    verdict = diagrams_isomorphic(d1, d2)
    assert isinstance(verdict, NotIsomorphic)
    assert "level 2" in verdict.reason


def test_same_module_through_different_presentations():
    c = cfg()
    lam = free_module(c, 1)
    aug = sigma_power(c, 1) - sigma_power(c, 0)
    q = quotient_by_image(scalar_action_hom(lam, 3 * aug)).module
    # q = group ring mod 3*(ideal); its diagram should match the direct
    # computation from an independently constructed module of the same
    # isomorphism type.
    d1 = delta(q)
    assert check_axioms(d1) == []
    verdict = diagrams_isomorphic(d1, d1)
    assert isinstance(verdict, DiagramIso)


def test_diagram_of_direct_sum_doubles_invariants():
    c = cfg()
    ideal = augmentation_ideal(c)
    pair = direct_sum(ideal, ideal).module
    d = delta(pair)
    assert d.invariants == ((1, 1), (2, 2))
    assert check_axioms(d) == []
    assert isinstance(diagrams_isomorphic(d, d), DiagramIso)


def test_dict_round_trip():
    d = delta(augmentation_ideal(cfg()))
    data = d.to_dict()
    loaded = YakovlevDiagram.from_dict(data)
    assert loaded.invariants == d.invariants
    assert check_axioms(loaded) == []
    assert isinstance(diagrams_isomorphic(d, loaded), DiagramIso)
    assert loaded.to_dict() == data


def _abstract_two_level(sigma1):
    """n=2 diagram with a rank-2 elementary level 1 and empty level 2."""
    return YakovlevDiagram(
        p=3,
        n=2,
        invariants=((1, 1), ()),
        sigma=(np.array(sigma1, dtype=np.int64), np.zeros((0, 0), dtype=np.int64)),
        alpha=(np.zeros((0, 2), dtype=np.int64),),
        beta=(np.zeros((2, 0), dtype=np.int64),),
    )


def test_abstract_diagram_axioms():
    good = _abstract_two_level([[1, 1], [0, 1]])
    assert check_axioms(good) == []
    # order violation: this sigma has order 9 mod 3, not dividing 3
    bad = _abstract_two_level([[1, 1], [2, 1]])
    assert any("sigma" in msg for msg in check_axioms(bad))


def test_abstract_diagrams_same_groups_different_action():
    ident = _abstract_two_level([[1, 0], [0, 1]])
    unipotent = _abstract_two_level([[1, 1], [0, 1]])
    verdict = diagrams_isomorphic(ident, unipotent)
    assert isinstance(verdict, NotIsomorphic)
    assert "singular" in verdict.reason
    assert isinstance(diagrams_isomorphic(unipotent, unipotent), DiagramIso)


def test_corrupted_composition_is_reported():
    d = delta(augmentation_ideal(cfg()))
    data = d.to_dict()
    data["alpha"][0] = [[0]]
    loaded = YakovlevDiagram.from_dict(data)
    problems = check_axioms(loaded)
    assert any("beta" in m or "alpha" in m for m in problems)


def test_single_level_group():
    c = GroupConfig(p=3, n=1, precision=8)
    d = delta(augmentation_ideal(c))
    assert d.invariants == ((1,),)
    assert d.alpha == () and d.beta == ()
    assert check_axioms(d) == []


def test_unreduced_document_entries_are_reduced_on_load():
    # alpha is divisible by 3 and beta lives mod 3, so both additions
    # leave the maps unchanged; int64 products of the unreduced alpha
    # entry would wrap.
    c = GroupConfig(3, 2, 12)
    d = delta(augmentation_ideal(c))
    data = d.to_dict()
    data["alpha"][0][0][0] += 9 * (2**61 // 9)
    data["beta"][0][0][0] += 15
    loaded = YakovlevDiagram.from_dict(data)
    assert loaded == d
    assert check_axioms(loaded) == []
    assert isinstance(diagrams_isomorphic(loaded, delta(augmentation_ideal(c))), DiagramIso)


def _with_level_one_invariants(data, invariants):
    levels = [dict(data["levels"][0], invariants=invariants)] + data["levels"][1:]
    return dict(data, levels=levels)


@pytest.mark.parametrize("exponent", [0, 40])
def test_exponent_outside_its_level_is_reported_alone(exponent):
    # 3^40 does not fit int64, and 3^0 = 1 reduces every map to zero:
    # once the level is reported, no map through it is checked.
    data = delta(augmentation_ideal(GroupConfig(3, 2, 12))).to_dict()
    loaded = YakovlevDiagram.from_dict(_with_level_one_invariants(data, [exponent]))
    assert check_axioms(loaded) == [
        "level 1: exponent outside (0, 1] (the group is killed by its subgroup order)"
    ]


def test_negative_exponent_is_rejected_on_load_and_reported_when_built():
    d = delta(augmentation_ideal(GroupConfig(3, 2, 12)))
    with pytest.raises(ParseError):
        YakovlevDiagram.from_dict(_with_level_one_invariants(d.to_dict(), [-1]))
    built = YakovlevDiagram(
        p=d.p, n=d.n, invariants=((-1,), d.invariants[1]),
        sigma=d.sigma, alpha=d.alpha, beta=d.beta,
    )
    assert check_axioms(built) == [
        "level 1: exponent outside (0, 1] (the group is killed by its subgroup order)"
    ]


def _reloaded(module, path):
    fileio.save_file(path, module)
    return fileio.load_file(path)


@pytest.mark.parametrize("p,n,precision", [(3, 2, 12), (2, 3, 12)])
def test_found_isomorphism_commutes_with_every_map(tmp_path, p, n, precision):
    """ideal + Z/p + Z/p^2 against Z/p^2 + ideal + Z/p, through documents:
    the identity is rejected, and the level matrices the search returns
    are checked here with plain numpy, square by square.  They are the
    levels of the CLI golden for the same comparison, which this checks
    independently of the golden test."""
    c = GroupConfig(p, n, precision)
    ideal = augmentation_ideal(c)
    z1, z2 = trivial_module(c, 1), trivial_module(c, 2)
    a = _reloaded(direct_sum(ideal, z1, z2).module, tmp_path / "a.json")
    b = _reloaded(direct_sum(z2, ideal, z1).module, tmp_path / "b.json")
    d1, d2 = delta(a), delta(b)
    found = diagrams_isomorphic(d1, d2)
    assert isinstance(found, DiagramIso)
    xs = [np.asarray(x, dtype=object) for x in found.level_matrices]
    assert any(not np.array_equal(x, np.eye(len(x), dtype=object)) for x in xs)

    def commutes(x_t, a1, a2, x_s, exps):
        lhs = x_t.dot(np.asarray(a1, dtype=object))
        rhs = np.asarray(a2, dtype=object).dot(x_s)
        return all(not any((lhs[r] - rhs[r]) % p**f) for r, f in enumerate(exps))

    for i in range(n):
        exps = d2.invariants[i]
        assert commutes(xs[i], d1.sigma[i], d2.sigma[i], xs[i], exps)
        det = round(np.linalg.det(xs[i].astype(float)))
        assert det % p != 0
    for i in range(n - 1):
        assert commutes(xs[i + 1], d1.alpha[i], d2.alpha[i], xs[i], d2.invariants[i + 1])
        assert commutes(xs[i], d1.beta[i], d2.beta[i], xs[i + 1], d2.invariants[i])
    golden = Path(__file__).parent / "golden" / "cli" / f"p{p}n{n}.delta-compare-sums.json"
    assert [x.tolist() for x in xs] == json.loads(golden.read_text())["levels"]
