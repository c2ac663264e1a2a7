"""Injectivity, surjectivity and exactness decided on lattices.

modules.is_injective, is_surjective and is_exact read the kernel lattice
and the Smith invariants of image + torsion lattice, with no kernel or
quotient module built.  tests/_oracles keeps the checks they replaced,
which built that module to read one bit of it; on seeded maps at five
groups both must give the same verdicts.  The constructions' checks
must build no module they do not return, and a failing input must still
raise each check's message.
"""

import dataclasses
import random
import sys
from collections import Counter

import pytest

from cyclomod import constructions, modules
from cyclomod.arith import norm_element, sigma_power
from cyclomod.config import GroupConfig
from cyclomod.constructions import (
    Theorem1Input,
    cocycle_from_section,
    h_isomorphism,
    lemma2_pipeline,
    lemma3_resolution,
    splitting_module,
)
from cyclomod.errors import CyclomodError, IllDefinedHom, PrecisionExhausted, WitnessInvalid
from cyclomod.modules import (
    ModuleHom,
    _span_dvals,
    augmentation_ideal,
    direct_sum,
    free_cover,
    free_module,
    is_exact,
    is_injective,
    is_surjective,
    kernel_of,
    scalar_action_hom,
    trivial_module,
)
from cyclomod.oracle import hom_space_basis
from cyclomod.suites import _pipeline_input

from _oracles import (
    exact_by_kernel,
    finite_index_by_quotient,
    injective_by_kernel,
    surjective_by_quotient,
)
from _seeded_lattices import lattices, seeded

CONFIGS = [(3, 1, 11), (3, 2, 12), (2, 2, 12), (2, 3, 12), (5, 1, 10)]
C31 = GroupConfig(3, 1, 11)


def _finite_index(hom):
    return len(_span_dvals(hom.target, hom.matrix)) == hom.target.model_dim


def _seeded_maps(cfg, rng):
    """Maps and composable pairs on Lambda, Lambda^2, seeded lattices and
    seeded modules with torsion: multiplication by p, sigma - 1 and N and
    their composites, free covers and p times them, the covers' kernel
    inclusions and p times those against the cover, the two summands of
    M + M against the first projection (whose kernel has the first
    summand's invariants too), and a random hom between consecutive
    lattices."""
    one, sig = sigma_power(cfg, 0), sigma_power(cfg, 1)
    lats = [m for m in lattices(cfg) if not m.is_zero()]
    torsion = [seeded(cfg, 100 + s)[0] for s in range(4)]
    maps, pairs = [], []
    for module in [free_module(cfg, 1), free_module(cfg, 2), *lats, *torsion]:
        p, s1, nm = (scalar_action_hom(module, x) for x in (cfg.p * one, sig - one, norm_element(cfg)))
        cover = free_cover(module)[1]
        inc = kernel_of(cover).inclusion
        p_ker = inc.compose(scalar_action_hom(inc.source, cfg.p * one))
        twice = direct_sum(module, module)
        (in0, in1), out0 = twice.injections, twice.projections[0]
        p_cover = cover.compose(scalar_action_hom(cover.source, cfg.p * one))
        maps += [p, s1, nm, s1.compose(p), nm.compose(s1), cover, inc, p_cover]
        pairs += [(s1, nm), (nm, s1), (s1.compose(p), nm), (p, s1), (inc, cover), (p_ker, cover)]
        pairs += [(in0, out0), (in1, out0)]
    for m1, m2 in zip(lats, lats[1:]):
        basis = hom_space_basis(m1, m2)
        if basis:
            maps.append(ModuleHom(m1, m2, sum(rng.randrange(cfg.p) * x for x in basis)))
    return maps, pairs


def _outcome(check, *homs):
    try:
        return check(*homs)
    except PrecisionExhausted:
        return PrecisionExhausted


def _agree(got, want, negative):
    """Equal verdicts, or the oracle raised on a kernel module whose
    lattice the predicate read as not zero (negative is its verdict)."""
    return got == want or (got, want) == (negative, PrecisionExhausted)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "p%dn%d" % c[:2])
def test_the_predicates_match_the_module_building_checks(config):
    # Where the oracle's kernel_of raises while building a nonzero kernel
    # module (ROADMAP item 23: maps through p(sigma - 1) and N), the
    # predicate still decides from the lattice, and the map is not
    # injective (the pair not exact) either way.
    cfg = GroupConfig(*config)
    maps, pairs = _seeded_maps(cfg, random.Random(sum(config)))
    seen = Counter()
    checks = [
        ("injective", is_injective, injective_by_kernel, False),
        ("surjective", is_surjective, surjective_by_quotient, None),
        ("finite index", _finite_index, finite_index_by_quotient, None),
    ]
    for hom in maps:
        for name, got, want, negative in checks:
            got, want = _outcome(got, hom), _outcome(want, hom)
            assert _agree(got, want, negative), (name, hom)
            seen[name, got] += 1
        if _outcome(_finite_index, hom) is True and _outcome(is_surjective, hom) is False:
            seen["finite index, not onto"] += 1
    for inner, outer in pairs:
        got, want = _outcome(is_exact, inner, outer), _outcome(exact_by_kernel, inner, outer)
        assert _agree(got, want, False), (inner, outer)
        seen["im <= ker" if outer.compose(inner).is_zero_map() else "not a complex", got] += 1
    for case in ("injective", "surjective", "finite index"):
        assert seen[case, True] and seen[case, False], case
    assert seen["finite index, not onto"] and seen["im <= ker", True] and seen["im <= ker", False]
    assert seen["not a complex", False] and not seen["not a complex", True]


def _counting(monkeypatch):
    """Count kernel_of and quotient_by_image calls by the calling function."""
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[sys._getframe(1).f_code.co_name, name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("kernel_of", "quotient_by_image"):
        real = getattr(modules, name)
        for namespace in (modules, constructions):
            monkeypatch.setattr(namespace, name, counted(name, real))
    return calls


@pytest.mark.parametrize("shape, group", [("ideal", (3, 1, 11)), ("J1+ideal+free", (3, 2, 12))])
def test_the_checks_build_only_returned_modules(shape, group, monkeypatch):
    cfg = GroupConfig(*group)
    data = _pipeline_input(shape, cfg)
    calls = _counting(monkeypatch)
    res = lemma2_pipeline(data)
    split = splitting_module(cocycle_from_section(res.pi, res.kernel))
    free_cover(split.module)
    lemma3_resolution(cfg, 1)
    h_isomorphism(cfg, cfg.n)
    for caller in ("splitting_module", "h_isomorphism", "free_cover"):
        assert calls[caller, "kernel_of"] == calls[caller, "quotient_by_image"] == 0
    assert calls["lemma3_resolution", "kernel_of"] == 0
    assert calls["lemma3_resolution", "quotient_by_image"] == 0
    assert calls["lemma2_pipeline", "kernel_of"] == 1
    assert calls["lemma2_pipeline", "quotient_by_image"] == 1 + (data.rank > 0)


def test_the_resolution_builds_its_image_once_on_first_read(monkeypatch):
    # The first read of the image builds one kernel; the surjection onto
    # it reuses that image, and a second read of either builds nothing.
    res = lemma3_resolution(C31, 1)
    calls = _counting(monkeypatch)
    image = res.image
    assert sum(calls.values()) == calls["image", "kernel_of"] == 1
    onto = res.onto_image
    assert sum(calls.values()) == 1
    assert res.image is image and res.onto_image is onto
    assert onto.source is res.free_pair and onto.target is image.module
    assert image.inclusion.compose(onto).matrix.tolist() == res.middle.matrix.tolist()


def test_a_middle_map_off_the_kernel_does_not_factor_through_the_image():
    # u -> 1, v -> 0 in place of p^e and sigma - 1: 1 is not killed by the
    # quotient map, so the image, ker(quotient_map), misses it.
    res = lemma3_resolution(C31, 1)
    lam = res.free_line
    off = ModuleHom.from_generator_images(
        res.free_pair, lam, [lam.element([sigma_power(C31, 0)]), lam.zero()]
    )
    hand_built = dataclasses.replace(res, middle=off)
    with pytest.raises(CyclomodError, match="^resolution: middle does not factor through its image$"):
        hand_built.onto_image


def test_a_quotient_that_is_too_coarse_is_not_exact_at_the_free_line(monkeypatch):
    # Z/p^(e-1) in place of Z/p^e: middle o quotient_map is still zero,
    # but the image (p^e, sigma - 1) is smaller than the kernel.
    real = trivial_module
    monkeypatch.setattr(constructions, "trivial_module", lambda cfg, e, name: real(cfg, e - 1, name=name))
    with pytest.raises(CyclomodError, match="^resolution: not exact at the free line$"):
        lemma3_resolution(C31, 2)


def test_a_free_source_in_place_of_j_fails_injectivity(monkeypatch):
    # Lambda^(d+1) on the images of J_e's generators: m_0 .. m_(d-1) and N
    # satisfy a relation, which the free module does not.
    monkeypatch.setattr(constructions, "j_module", lambda cfg, e: free_module(cfg, cfg.order + 1))
    with pytest.raises(CyclomodError, match="^resolution: first map failed injectivity$"):
        lemma3_resolution(C31, 1)


def test_a_quotient_with_a_spare_summand_fails_surjectivity(monkeypatch):
    # Z/p^e + Z/p^e: the quotient map hits the first summand only, so the
    # sequence stays exact at the free line and is not onto.
    real = trivial_module

    def doubled(cfg, e, name):
        return direct_sum(real(cfg, e, name=name), real(cfg, e)).module

    monkeypatch.setattr(constructions, "trivial_module", doubled)
    with pytest.raises(CyclomodError, match="^resolution: quotient map failed surjectivity$"):
        lemma3_resolution(C31, 1)


def test_a_generating_set_short_of_one_fails_to_generate(monkeypatch):
    real = modules.minimal_generators
    monkeypatch.setattr(modules, "minimal_generators", lambda module: real(module)[:-1])
    with pytest.raises(IllDefinedHom, match="^minimal generating set failed to generate$"):
        free_cover(augmentation_ideal(C31))


def test_a_witness_with_a_larger_annihilator_is_rejected():
    ideal = augmentation_ideal(C31)
    data = Theorem1Input(module=ideal, free_witness=(), ideal_witness=ideal.zero(), rank=0)
    with pytest.raises(WitnessInvalid, match="^annihilator of the distinguished class is not Zp N_G$"):
        lemma2_pipeline(data)
