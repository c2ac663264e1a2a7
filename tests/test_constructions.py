"""Extension tables, splitting modules, the J family, and both pipelines.

Expected cohomology values in this file were derived by hand from the
long exact sequences of the defining short exact sequences before the
implementation produced them; see the inline notes at each pin.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomod.cohomology import connecting_iso, is_cohomologically_trivial, tate
from cyclomod.config import GroupConfig
from cyclomod.constructions import (
    ExtensionData,
    Theorem1Input,
    carry_cocycle,
    coboundary_shift,
    cocycle_from_section,
    h_isomorphism,
    j_module,
    lemma2_pipeline,
    lemma3_resolution,
    predicted_unit_structure,
    splitting_module,
    theorem1_verify,
    zero_extension,
)
from cyclomod.errors import (
    InfiniteKernel,
    NotACocycle,
    NotSurjective,
    PreconditionViolated,
    WitnessInvalid,
)
from cyclomod.modules import (
    ModuleHom,
    PresentedModule,
    Submodule,
    augmentation_ideal,
    direct_sum,
    free_module,
    scalar_action_hom,
    trivial_module,
    zp_trivial,
)
from cyclomod.oracle import Iso, StableIso, modules_isomorphic, stably_isomorphic
from cyclomod.verdicts import NotIsomorphic

from _oracles import cocycle_first_failure

C31 = GroupConfig(3, 1, 11)
C32 = GroupConfig(3, 2, 12)
C51 = GroupConfig(5, 1, 10)


# -- extension tables ------------------------------------------------------


def test_carry_table_is_normalized_cocycle():
    ext = carry_cocycle(trivial_module(C31, 1))
    assert ext.is_normalized()


def test_corrupted_table_rejected():
    ext = carry_cocycle(trivial_module(C31, 1))
    table = ext.cocycle.copy()
    table[1, 1] += ext.kernel.generator(0).coords
    with pytest.raises(NotACocycle):
        ExtensionData(ext.kernel, table)


def test_coboundary_shift_needs_full_cochain():
    ext = carry_cocycle(trivial_module(C31, 1))
    with pytest.raises(PreconditionViolated):
        coboundary_shift(ext, [ext.kernel.zero()])
    other = trivial_module(C31, 1)
    with pytest.raises(PreconditionViolated):
        coboundary_shift(ext, [other.zero()] * 3)
    with pytest.raises(PreconditionViolated):
        carry_cocycle(ext.kernel, other.generator(0))


def test_extension_data_rejects_infinite_kernels_and_misshapen_tables():
    with pytest.raises(InfiniteKernel):
        zero_extension(zp_trivial(C31))
    with pytest.raises(NotACocycle, match="^table must be"):
        ExtensionData(trivial_module(C32, 1), zero_extension(trivial_module(C31, 1)).cocycle)


# (p, n, precision) of the groups the check is compared on, 7^11 on the
# limb-split int64 products; the configurations are built inside the test, where
# the p = 2 warning is filtered.
CHECK_GROUPS = [(3, 1, 11), (3, 2, 12), (2, 2, 12), (2, 3, 12), (5, 1, 10), (7, 1, 11)]
CHECK_KERNELS = ["Z/p", "Z/p^2", "ring/p", "ring/p+Z/p^2"]


@functools.lru_cache(maxsize=None)
def _check_kernel(group, kind):
    """A finite kernel and sigma-fixed elements of it (valid carry values)."""
    cfg = GroupConfig(*group)
    if kind in ("Z/p", "Z/p^2"):
        cyclic = trivial_module(cfg, len(kind) - 2)
        return cyclic, (cyclic.generator(0),)
    ring = PresentedModule(cfg, ["x"], [((cfg.p,) + (0,) * (cfg.order - 1),)])
    norm = ring.element([(1,) * cfg.order])
    if kind == "ring/p":
        return ring, (norm,)
    cyclic = trivial_module(cfg, 2)
    ds = direct_sum(ring, cyclic)
    return ds.module, (ds.injections[0].apply(norm), ds.injections[1].apply(cyclic.generator(0)))


def _extension(kernel, table):
    return ExtensionData(kernel, np.array(table, dtype=object))


@st.composite
def cocycle_tables(draw, group):
    """Carry tables shifted by a random coboundary, some with one entry moved."""
    kernel, fixed = _check_kernel(group, draw(st.sampled_from(CHECK_KERNELS)))
    d = kernel.cfg.order
    coeff = st.integers(0, kernel.cfg.p**2 - 1)

    def combination(elements):
        out = kernel.zero()
        for g in elements:
            out = out + draw(coeff) * g
        return out

    gens = kernel.generator_elements()
    ext = carry_cocycle(kernel, combination(fixed))
    table = coboundary_shift(ext, [combination(gens) for _ in range(d)]).cocycle.tolist()
    if draw(st.booleans()):
        a, b = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        table[a][b] = [x + draw(coeff) for x in table[a][b]]
    return kernel, table


@pytest.mark.filterwarnings("ignore:p = 2")
@pytest.mark.parametrize("group", CHECK_GROUPS, ids=lambda g: "p%dn%d" % g[:2])
@settings(max_examples=40)
@given(data=st.data())
def test_cocycle_check_agrees_with_the_full_scan(group, data):
    # Accepted exactly when every triple holds; otherwise rejected with
    # the first failing triple of the full (a, b, c) scan.
    kernel, table = data.draw(cocycle_tables(group))
    sigma = [[int(x) for x in row] for row in kernel.sigma_matrix]
    want = cocycle_first_failure(kernel.cfg.modulus, sigma, kernel.moduli, table)
    if want is None:
        _extension(kernel, table)
        return
    with pytest.raises(NotACocycle) as err:
        _extension(kernel, table)
    assert str(err.value) == "identity fails at (sigma^%d, sigma^%d, sigma^%d)" % want


@pytest.mark.parametrize("cfg", [C31, C32], ids=["C3", "C9"])
def test_section_of_a_non_surjection_names_the_first_generator(cfg):
    # Multiplication by p maps the ideal onto p * ideal, which misses
    # every generator sigma^t - 1.
    with pytest.raises(NotSurjective, match=r"^generator sigma\^1 - 1 has no preimage$"):
        cocycle_from_section(scalar_action_hom(augmentation_ideal(cfg), cfg.p))


def test_section_of_a_map_with_infinite_kernel_is_refused():
    ideal = augmentation_ideal(C31)
    lam2 = free_module(C31, 2)
    onto = ModuleHom.from_generator_images(lam2, ideal, [ideal.generator(0)] * 2)
    with pytest.raises(InfiniteKernel):
        cocycle_from_section(onto)


# -- splitting modules -----------------------------------------------------


def test_zero_class_middle_is_direct_sum():
    kernel = trivial_module(C31, 1)
    built = splitting_module(zero_extension(kernel))
    plain = direct_sum(trivial_module(C31, 1), augmentation_ideal(C31)).module
    assert isinstance(modules_isomorphic(built.module, plain), Iso)


def test_carry_class_middle_cohomology():
    # 0 -> Z/3 -> M -> I -> 0 with the carry class: the six-term
    # hexagon forces H^0(M) = 0 and H^1(M) = Z/3, because the
    # connecting map H^0(I) -> H^1(Z/3) is zero while
    # H^1(I) -> H^0(Z/3) (degree -1 to 0 around the corner) hits the
    # generator.  In particular the middle is not cohomologically
    # trivial and the class is visibly nonsplit.
    built = splitting_module(carry_cocycle(trivial_module(C31, 1)))
    assert tate(built.module, 0, 1).invariants == ()
    assert tate(built.module, 1, 1).invariants == (1,)
    assert not is_cohomologically_trivial(built.module)
    plain = direct_sum(trivial_module(C31, 1), augmentation_ideal(C31)).module
    assert isinstance(modules_isomorphic(built.module, plain), NotIsomorphic)


def test_class_independence_under_coboundary():
    kernel = trivial_module(C31, 1)
    ext = carry_cocycle(kernel)
    cochain = [kernel.zero(), kernel.generator(0), 2 * kernel.generator(0)]
    shifted = coboundary_shift(ext, cochain)
    first = splitting_module(ext).module
    second = splitting_module(shifted).module
    assert isinstance(modules_isomorphic(first, second), Iso)


def test_round_trip_through_fresh_section():
    built = splitting_module(carry_cocycle(trivial_module(C31, 1)))
    fresh = cocycle_from_section(
        built.projection, Submodule(built.kernel_hom.source, built.kernel_hom)
    )
    again = splitting_module(fresh).module
    assert isinstance(modules_isomorphic(built.module, again), Iso)


def test_zero_kernel_gives_the_ideal_back():
    built = splitting_module(zero_extension(trivial_module(C31, 0)))
    assert isinstance(
        modules_isomorphic(built.module, augmentation_ideal(C31)), Iso
    )


# -- the J family ----------------------------------------------------------


def test_j_module_invariants_by_level():
    # The quotient Zp[G]/J_e is Z/p^e with trivial action, and the norm
    # line inside J_e contributes Z/p^min(e, level) in both parities.
    for cfg in (C31, C32, C51):
        for e in range(cfg.n + 2):
            jm = j_module(cfg, e)
            for level in range(1, cfg.n + 1):
                want = (min(e, level),) if min(e, level) else ()
                assert tate(jm, 0, level).invariants == want
                assert tate(jm, 1, level).invariants == want


def test_j_family_pairwise_distinct():
    js = [j_module(C32, e) for e in range(C32.n + 1)]
    for a in range(len(js)):
        for b in range(a + 1, len(js)):
            assert isinstance(modules_isomorphic(js[a], js[b]), NotIsomorphic)


def test_isomorphism_is_decided_at_the_lower_precision():
    fine = GroupConfig(3, 1, 13)
    assert isinstance(modules_isomorphic(j_module(C31, 1), j_module(fine, 1)), Iso)
    assert isinstance(modules_isomorphic(j_module(C31, 0), j_module(fine, 1)), NotIsomorphic)
    assert isinstance(modules_isomorphic(augmentation_ideal(C31), augmentation_ideal(C51)), NotIsomorphic)


def test_j_above_n_is_trivial_plus_ideal():
    top = direct_sum(zp_trivial(C31), augmentation_ideal(C31)).module
    assert isinstance(modules_isomorphic(j_module(C31, 2), top), Iso)
    hom = h_isomorphism(C31, 2)
    assert hom.target is j_module(C31, 2)


def test_h_isomorphism_refuses_small_exponent():
    with pytest.raises(PreconditionViolated):
        h_isomorphism(C32, 1)


def test_resolution_composes_to_zero():
    for cfg, e in ((C31, 1), (C32, 2)):
        res = lemma3_resolution(cfg, e)
        assert res.middle.compose(res.first).is_zero_map()
        assert res.quotient_map.compose(res.middle).is_zero_map()


def test_double_connecting_shift_reaches_j():
    # Splicing the two short exact sequences of the resolution shifts
    # degree by two: the composite of both connecting maps is an
    # isomorphism from H^d of the finite quotient onto H^(d+2) of J_e.
    res = lemma3_resolution(C31, 1)
    inner = connecting_iso(res.image.inclusion, res.quotient_map, 0, 1)
    outer = connecting_iso(res.first, res.onto_image, 1, 1)
    chain = outer.compose(inner)
    assert chain.is_isomorphism()
    assert tate(res.quotient, 0, 1).invariants == (1,)
    assert chain.target.invariants == (1,)


# -- the kernel-of-projection pipeline -------------------------------------


def ideal_only(cfg):
    ideal = augmentation_ideal(cfg)
    return Theorem1Input(
        module=ideal, free_witness=(), ideal_witness=ideal.generator(0), rank=0
    )


def ideal_plus_free(cfg):
    ideal = augmentation_ideal(cfg)
    lam = free_module(cfg, 1, names=["f"])
    ds = direct_sum(ideal, lam)
    return Theorem1Input(
        module=ds.module,
        free_witness=(ds.injections[1].apply(lam.generator(0)),),
        ideal_witness=ds.injections[0].apply(ideal.generator(0)),
        rank=1,
    )


def j1_plus_ideal(cfg):
    jm = j_module(cfg, 1)
    ideal = augmentation_ideal(cfg)
    ds = direct_sum(jm, ideal)
    # generator 0 of the J-module is p * 1, spanning a free sublattice
    # of finite index inside the J summand
    return Theorem1Input(
        module=ds.module,
        free_witness=(ds.injections[0].apply(jm.generator(0)),),
        ideal_witness=ds.injections[1].apply(ideal.generator(0)),
        rank=1,
    )


def j1_plus_ideal_plus_free(cfg):
    jm = j_module(cfg, 1)
    ideal = augmentation_ideal(cfg)
    lam = free_module(cfg, 1, names=["f"])
    ds = direct_sum(jm, ideal, lam)
    return Theorem1Input(
        module=ds.module,
        free_witness=(
            ds.injections[0].apply(jm.generator(0)),
            ds.injections[2].apply(lam.generator(0)),
        ),
        ideal_witness=ds.injections[1].apply(ideal.generator(0)),
        rank=2,
    )


# Expected kernels, derived before running the pipeline: every class of
# the quotient has a representative (c, 0), and (c, 0) ~ (c', 0) exactly
# when c - c' lies in (augmentation ideal) * x_0.  So the kernel is
# C_1 / I x_0: for C = I that is I/I^2 = Z/p^n; for C = J_1 (+) I at
# n = 1 the free quotient adds a Z/p factor, giving (Z/p)^2.
LEMMA2_CASES = [
    ("ideal.p3n1", ideal_only, C31, (1,), 2),
    ("ideal.p3n2", ideal_only, C32, (2,), 8),
    ("ideal.p5n1", ideal_only, C51, (1,), 4),
    ("ideal+free.p3n1", ideal_plus_free, C31, (1,), 2),
    ("J1+ideal.p3n1", j1_plus_ideal, C31, (1, 1), 2),
    ("J1+ideal.p5n1", j1_plus_ideal, C51, (1, 1), 4),
]


@pytest.mark.parametrize(
    "name,builder,cfg,kernel_invariants,rank_b",
    LEMMA2_CASES,
    ids=[case[0] for case in LEMMA2_CASES],
)
def test_pipeline_kernel_and_rank(name, builder, cfg, kernel_invariants, rank_b):
    res = lemma2_pipeline(builder(cfg))
    assert res.kernel.module.torsion_invariants() == kernel_invariants
    assert res.b.zp_rank() == rank_b == cfg.order - 1
    levels = {(deg, lvl) for deg in (0, 1) for lvl in range(1, cfg.n + 1)}
    assert set(res.witnesses) == levels
    for witness in res.witnesses.values():
        assert witness.is_isomorphism()


def test_pipeline_rejects_torsion_input():
    bad = direct_sum(trivial_module(C31, 1), augmentation_ideal(C31)).module
    data = Theorem1Input(
        module=bad, free_witness=(), ideal_witness=bad.generator(1), rank=0
    )
    with pytest.raises(WitnessInvalid):
        lemma2_pipeline(data)


def test_pipeline_rejects_wrong_rank():
    ideal = augmentation_ideal(C31)
    data = Theorem1Input(
        module=ideal, free_witness=(), ideal_witness=ideal.generator(0), rank=1
    )
    with pytest.raises(WitnessInvalid):
        lemma2_pipeline(data)


# -- end-to-end verification -----------------------------------------------

THEOREM1_CASES = [
    ("ideal.p3n1", ideal_only, C31, ((), ()), (0, 0)),
    ("ideal.p3n2", ideal_only, C32, ((), ()), (0, 0)),
    ("ideal.p5n1", ideal_only, C51, ((), ()), (0, 0)),
    ("ideal+free.p3n1", ideal_plus_free, C31, ((), ()), (1, 0)),
    ("J1+ideal.p3n1", j1_plus_ideal, C31, ((1,), (1,)), (0, 0)),
    ("J1+ideal+free.p3n1", j1_plus_ideal_plus_free, C31, ((1,), (1,)), (1, 0)),
]


@pytest.mark.parametrize(
    "name,builder,cfg,h2,pads",
    THEOREM1_CASES,
    ids=[case[0] for case in THEOREM1_CASES],
)
def test_theorem1_chain(name, builder, cfg, h2, pads):
    report = theorem1_verify(builder(cfg))
    assert report.passed
    assert report.h2_invariants == h2
    assert report.stripped_free_rank == 0
    assert isinstance(report.stable_verdict, StableIso)
    assert (report.stable_verdict.pad_first, report.stable_verdict.pad_second) == pads


def test_stable_iso_detects_free_padding():
    j1 = j_module(C31, 1)
    padded = direct_sum(j1, free_module(C31, 1)).module
    verdict = stably_isomorphic(padded, j1)
    assert isinstance(verdict, StableIso)
    assert (verdict.pad_first, verdict.pad_second) == (0, 1)


def test_predicted_structure_shape():
    predicted = predicted_unit_structure(C31, 1, (1,), 2)
    # J_1 (+) ideal (+) one free copy: rank 3 + 2 + 3, even-degree H at
    # the top level sees only the J summand.
    assert predicted.zp_rank() == 8
    assert tate(predicted, 0, 1).invariants == (1,)
    with pytest.raises(PreconditionViolated):
        predicted_unit_structure(C31, 2, (1,), 1)
    with pytest.raises(PreconditionViolated):
        predicted_unit_structure(C31, 1, (0,), 1)
