"""Presented modules: normalization, homs, sums, kernels, quotients."""

import json
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomod import fileio, linalg
from cyclomod.arith import GroupRingElement, norm_element, sigma_power, subgroup_norm
from cyclomod.cohomology import coset_sum, tate
from cyclomod.config import GroupConfig
from cyclomod.constructions import (
    carry_cocycle,
    j_module,
    lemma2_pipeline,
    lemma3_resolution,
    splitting_module,
    theorem1_verify,
)
from cyclomod.errors import IllDefinedHom, PrecisionExhausted
from cyclomod import modules
from cyclomod.modules import (
    ModuleHom,
    PresentedModule,
    _centered_object,
    _is_module,
    _orbits,
    _quotient_model,
    augmentation_ideal,
    direct_sum,
    fixed_points,
    free_cover,
    free_module,
    identity_hom,
    kernel_of,
    minimal_generators,
    quotient_by_image,
    quotient_group_module,
    scalar_action_hom,
    submodule_from_elements,
    trivial_module,
    zp_trivial,
)
from cyclomod.oracle import _at_config, hom_space_basis
from cyclomod.suites import _pipeline_input, random_presented_module, suite_splitting

from _oracles import (
    act_matrix_by_powers,
    cokernel_valuations_mod_pN,
    expanded_relation_lattice,
    fixed_space_rank,
    images_agree,
    orbits_by_column,
    submodule_by_probe,
    synthesized_relations,
)


def cfg(p=3, n=1, precision=8):
    return GroupConfig(p=p, n=n, precision=precision)


def test_free_module_shape():
    c = cfg()
    f = free_module(c, 2)
    assert f.zp_rank() == 6
    assert f.torsion_invariants() == ()
    s = f.sigma_matrix
    sss = (s @ s @ s) % c.modulus
    assert np.array_equal(sss, np.eye(6, dtype=s.dtype))


def test_trivial_modules():
    c = cfg()
    z = zp_trivial(c)
    assert z.invariant_summary() == (1, ())
    t = trivial_module(c, exponent=2)
    assert t.invariant_summary() == (0, (2,))
    assert trivial_module(c, exponent=0).is_zero()


def test_augmentation_ideal_structure():
    c = cfg()
    ideal = augmentation_ideal(c)
    assert ideal.invariant_summary() == (2, ())
    s = ideal.sigma_matrix
    m = ideal.model_dim
    acc = (s @ s + s + np.eye(m, dtype=s.dtype)) % c.modulus
    assert not acc.any()  # 1 + s + s^2 kills the ideal
    # sigma * g_a = g_(a+1) - g_1 with g_3 = 0
    g1, g2 = ideal.generator_elements()
    assert g1.act(sigma_power(c, 1)) == g2 - g1
    assert g2.act(sigma_power(c, 1)) == -g1


def test_element_arithmetic_in_group_ring():
    c = cfg()
    lam = free_module(c, 1)
    e = lam.generator(0)
    nm = e.act(norm_element(c))
    assert nm.act(sigma_power(c, 1) - sigma_power(c, 0)).is_zero()
    assert (nm + nm - 2 * nm).is_zero()
    assert nm.act(norm_element(c)) == 3 * nm


def test_hom_from_generator_images_and_kernel():
    c = cfg()
    lam = free_module(c, 1)
    z = zp_trivial(c)
    aug = ModuleHom.from_generator_images(lam, z, [z.generator(0)])
    ker = kernel_of(aug)
    ideal = augmentation_ideal(c)
    assert ker.module.invariant_summary() == ideal.invariant_summary()
    # inclusion really lands in the kernel
    for g in ker.module.generator_elements():
        assert aug.apply(ker.inclusion.apply(g)).is_zero()


def test_ill_defined_hom_rejected():
    c = cfg()
    z = zp_trivial(c)
    lam = free_module(c, 1)
    with pytest.raises(IllDefinedHom):
        ModuleHom.from_generator_images(z, lam, [lam.generator(0)])


def test_generator_images_that_break_a_relation_are_rejected():
    # The ideal's generators sigma^a - 1 satisfy relations, and each image
    # is compared with the assembled hom's: zeroing any one is caught.
    c = GroupConfig(3, 2, 12)
    ideal, lam, one = augmentation_ideal(c), free_module(c, 1), sigma_power(c, 0)
    images = [lam.element([sigma_power(c, a) - one]) for a in range(1, c.order)]
    assert ModuleHom.from_generator_images(ideal, lam, images).matrix.shape == (9, 8)
    for j in range(len(images)):
        broken = images[:j] + [lam.zero()] + images[j + 1 :]
        with pytest.raises(IllDefinedHom, match="^generator images are inconsistent"):
            ModuleHom.from_generator_images(ideal, lam, broken)
    zero = free_module(c, 0)
    assert free_cover(zero)[1].matrix.shape == (0, 0)


def test_quotients_of_group_ring():
    c = cfg()
    lam = free_module(c, 1)
    by_aug = quotient_by_image(scalar_action_hom(lam, sigma_power(c, 1) - sigma_power(c, 0)))
    assert by_aug.module.invariant_summary() == (1, ())
    by_norm = quotient_by_image(scalar_action_hom(lam, norm_element(c)))
    assert by_norm.module.invariant_summary() == (2, ())
    scaled = norm_element(c) - norm_element(c)  # zero element
    by_zero = quotient_by_image(scalar_action_hom(lam, scaled))
    assert by_zero.module.invariant_summary() == (3, ())


def test_quotient_with_torsion():
    c = cfg()
    lam = free_module(c, 1)
    elt = sigma_power(c, 1) - sigma_power(c, 0)
    tripled = 3 * (elt)
    q = quotient_by_image(scalar_action_hom(lam, tripled))
    assert q.module.invariant_summary() == (1, (1, 1))
    # projection is surjective on model coords and kills the image
    img = lam.generator(0).act(tripled)
    assert q.projection.apply(img).is_zero()


def test_kernel_of_norm_and_augmentation():
    c = cfg()
    lam = free_module(c, 1)
    ker_norm = kernel_of(scalar_action_hom(lam, norm_element(c)))
    assert ker_norm.module.invariant_summary() == (2, ())
    ker_aug = kernel_of(scalar_action_hom(lam, sigma_power(c, 1) - sigma_power(c, 0)))
    assert ker_aug.module.invariant_summary() == (1, ())
    gen = ker_aug.inclusion.apply(ker_aug.module.generator(0))
    assert gen.act(sigma_power(c, 1)) == gen  # fixed by sigma


def test_fixed_points_of_group_ring():
    c = cfg()
    lam = free_module(c, 1)
    fp = fixed_points(lam)
    assert fp.module.invariant_summary() == (1, ())
    elt = fp.inclusion.apply(fp.module.generator(0))
    assert elt.act(sigma_power(c, 1)) == elt
    zero_level = fixed_points(lam, level=0)
    assert zero_level.module.invariant_summary() == (3, ())


def test_direct_sum_structure():
    c = cfg()
    a = trivial_module(c, exponent=2)
    b = zp_trivial(c)
    ds = direct_sum(a, b)
    assert ds.module.invariant_summary() == (1, (2,))
    inj_a, inj_b = ds.injections
    prj_a, prj_b = ds.projections
    assert np.array_equal(
        prj_a.compose(inj_a).matrix, identity_hom(a).matrix
    )
    assert prj_b.compose(inj_a).is_zero_map()
    x = inj_a.apply(a.generator(0)) + inj_b.apply(b.generator(0))
    assert prj_b.apply(x) == b.generator(0)


def test_submodule_of_free_module():
    c = cfg()
    lam = free_module(c, 1)
    scaled = submodule_from_elements(lam, [3 * lam.generator(0)])
    assert scaled.module.invariant_summary() == (3, ())
    inc_img = scaled.inclusion.apply(scaled.module.generator(0))
    assert inc_img == 3 * lam.generator(0)


PRESENTATION_GROUPS = ((3, 1, 6), (3, 2, 12), (2, 3, 12), (7, 1, 11))


def _random_coefficient(c, rng):
    """One group-ring coefficient as a GroupRingElement, an int or a list,
    with its integer coefficient list for the oracle.

    Values run negative, and some exceed 2^63 while keeping a small
    residue, so a cast before reduction would overflow.
    """
    d = c.order

    def value():
        v = rng.randrange(-4, 5)
        return v + 2**64 * c.modulus if rng.random() < 0.15 else v

    form = rng.randrange(3)
    if form == 0:
        vals = [value() for _ in range(d)]
        return GroupRingElement(c, vals), vals
    if form == 1:
        v = value()
        return v, [v] + [0] * (d - 1)
    vals = [value() for _ in range(d)]
    return vals, vals


def test_presentation_invariants_match_oracle():
    checked = 0
    for group in PRESENTATION_GROUPS:
        c = cfg(*group)
        ctx = linalg.context_of(c)
        rng = random.Random(17)
        d = c.order
        for case in range(8):
            k = case % 3  # k = 0 included
            n_rel = rng.randrange(0, 3)
            given, ints = [], []
            for _ in range(n_rel):
                pairs = [_random_coefficient(c, rng) for _ in range(k)]
                given.append([x for x, _ in pairs])
                ints.append([v for _, v in pairs])
            try:
                mod = PresentedModule(c, [f"g{i}" for i in range(k)], given)
            except PrecisionExhausted:
                continue
            rows_int = expanded_relation_lattice(d, k, ints)
            reduced = [[v % c.modulus for v in row] for row in rows_int]
            lattice = np.array(reduced, dtype=object).reshape(k * d, n_rel * d)
            shift = [
                [int(i // d == j // d and i % d == (j + 1) % d) for j in range(k * d)]
                for i in range(k * d)
            ]
            shift = np.array(shift, dtype=object).reshape(k * d, k * d)
            model, proj, lift = _quotient_model(
                ctx, linalg.mat(ctx, lattice), linalg.mat(ctx, shift)
            )
            assert mod.moduli == model.moduli
            assert np.array_equal(mod.sigma_matrix, model.sigma)
            assert np.array_equal(mod._proj, proj)
            assert np.array_equal(mod._lift, lift)
            checked += 1
            if k * d > 6:
                continue  # the minors oracle is exponential in k * d
            expected = cokernel_valuations_mod_pN(
                c.p, c.precision, rows_int if n_rel else [[0] for _ in range(k * d)]
            )
            got = sorted(list(mod.torsion_invariants()) + [c.precision] * mod.zp_rank())
            assert got == expected
    assert checked >= 24


# -- submodules against independent oracles ------------------------------

ORACLE_GROUPS = ((3, 1), (3, 2), (5, 1), (2, 2), (2, 3))
ORACLE_SEEDS = range(60)
PRECISION_SEEDS = range(30)


def _random_submodule(p, n, precision, seed):
    """A seeded random ambient and the submodule of 1-3 random elements.

    The integer data depend only on the seed, so the same case can be
    built at several precisions.
    """
    c = GroupConfig(p, n, precision)
    rng = random.Random(seed)
    ambient = random_presented_module(c, rng)
    k = len(ambient.gen_names)
    elements = [
        ambient.element([[rng.randint(-2, 2) for _ in range(c.order)] for _ in range(k)])
        for _ in range(rng.randint(1, 3))
    ]
    return ambient, submodule_from_elements(ambient, elements).module


def _oracle_fixed_rank(module):
    """The character-formula rank on the free coordinates of the model.

    The free block is the action on the module mod torsion; it is read
    mod p^(N - e), e the largest torsion exponent, because the free rows
    at torsion columns are only determined to that precision.
    """
    c = module.cfg
    free = [i for i, q in enumerate(module.moduli) if q is None]
    block = [[int(module.sigma_matrix[i, j]) for j in free] for i in free]
    depth = max(module.torsion_invariants(), default=0)
    return fixed_space_rank(c.p ** (c.precision - depth), block, c.order)


@pytest.mark.parametrize("p, n", ORACLE_GROUPS)
def test_fixed_point_rank_matches_character_oracle(p, n):
    for seed in ORACLE_SEEDS:
        ambient, sub = _random_submodule(p, n, n + 10, seed)
        for module in (ambient, sub):
            got = fixed_points(module).module.zp_rank()
            assert got == _oracle_fixed_rank(module), (seed, module)


def test_minimal_generators_are_the_greedy_unit_vectors():
    # Greedy definition: unit vector e_j is picked when it raises the
    # mod-p rank of the image of sigma - 1 plus the vectors picked so far.
    for p, n in ORACLE_GROUPS:
        for seed in range(20):
            for module in _random_submodule(p, n, n + 10, seed):
                m = module.model_dim
                eye = np.eye(m, dtype=np.int64)
                work = np.array((module.sigma_matrix - eye) % p, dtype=np.int64)
                picked = []
                for j in range(m):
                    trial = np.concatenate([work, eye[:, j : j + 1]], axis=1)
                    if linalg.rank_mod_p(p, trial) > linalg.rank_mod_p(p, work):
                        picked.append(j)
                        work = trial
                want = [module.element_from_model_coords(eye[:, j]).coords for j in picked]
                got = [g.coords for g in minimal_generators(module)]
                assert got == want, (p, n, seed)


@pytest.mark.parametrize("p, n", ORACLE_GROUPS)
def test_submodule_invariants_do_not_depend_on_precision(p, n):
    for seed in PRECISION_SEEDS:
        views = []
        for precision in (n + 10, n + 18):
            _, sub = _random_submodule(p, n, precision, seed)
            tates = [
                tate(sub, degree, level).invariants
                for level in range(1, n + 1)
                for degree in (0, 1)
            ]
            views.append((sub.invariant_summary(), tates))
        assert views[0] == views[1], seed


def test_residues_zero_mod_pN_are_zeros():
    # The augmentation of x is 3^11, zero at N = 11: x lies in the
    # augmentation ideal there, so it spans a rank-2 submodule (at any
    # higher precision it would span rank 3, hence no N + 8 check).
    c = GroupConfig(3, 1, 11)
    lam = free_module(c, 1)
    x = GroupRingElement(c, [68134, 27254, 81759])
    assert sum(x.values) == 3**11
    sub = submodule_from_elements(lam, [lam.element([x])])
    assert sub.module.invariant_summary() == (2, ())
    assert sub.inclusion.apply(sub.module.generator(0)) == lam.element([x])


@st.composite
def orbit_cases(draw):
    # Three int64 contexts and 7^12, which takes the object path.
    p, precision = draw(st.sampled_from([(3, 8), (2, 12), (5, 6), (7, 12)]))
    c = linalg.Context(p, precision, 2)
    m, k = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    d = draw(st.sampled_from([1, 2, 3, 4, 8, 9, 27]))
    residue = st.integers(0, c.modulus - 1)

    def matrix(rows, cols):
        flat = draw(st.lists(residue, min_size=rows * cols, max_size=rows * cols))
        return linalg.mat(c, np.array(flat, dtype=object).reshape(rows, cols))

    return c, matrix(m, m), [matrix(m, 1) for _ in range(k)], d


@settings(max_examples=150)
@given(orbit_cases())
def test_orbits_match_the_column_loop(case):
    c, sigma, columns, d = case
    got = _orbits(c, sigma, columns, d)
    want = orbits_by_column(c, sigma, columns, d)
    assert got.dtype == want.dtype == c.dtype
    assert got.shape == want.shape and np.array_equal(got, want)


# d = 27 on the int64 path, 5^13 (d = 25) cut into limbs, 7^12 and 3^20
# (d = 27) on the object path.
ACT_GROUPS = [(3, 3, 12), (5, 2, 13), (7, 1, 12), (3, 3, 20)]


@pytest.mark.parametrize("group", ACT_GROUPS)
def test_act_matrix_matches_the_power_loop(group):
    # The power-table product must give every action matrix bit for bit
    # as the loop over sigma-powers did, on a lazily built table (the
    # ideal, a normalized presentation), a table shared with the model
    # columns (a direct sum, built from its model) and a zero module.
    c = GroupConfig(*group)
    rng = random.Random(sum(group))
    ideal = augmentation_ideal(c)
    summed = direct_sum(ideal, trivial_module(c, 2)).module
    zero = PresentedModule(c, ["g"], [[1]])
    assert zero.model_dim == 0 and np.shares_memory(summed._powers, summed._proj)
    elements = [sigma_power(c, 1), sigma_power(c, c.order - 1), norm_element(c)]
    elements += [subgroup_norm(c, i) for i in range(c.n + 1)]
    elements += [coset_sum(c, j, i) for j in range(c.n + 1) for i in range(j)]
    big = [10**30, -(10**30), -1, 1]
    for _ in range(2):
        elements.append([rng.choice(big) * rng.randrange(c.p**2) for _ in range(c.order)])
    for module in (ideal, summed, zero, random_presented_module(c, rng)):
        for elt in elements:
            got = module.act_matrix(elt)
            want = act_matrix_by_powers(module, elt)
            assert got.dtype == want.dtype == module.ctx.dtype
            assert got.shape == want.shape and np.array_equal(got, want)
            got[...] = 0  # a new array each call: the next one is unharmed
        want = act_matrix_by_powers(module, elements[0])
        assert np.array_equal(module.act_matrix(elements[0]), want)


def derived_modules(c):
    """(name, module) for each way of building a module from a model.

    J_1 comes from the uncached constructor, so every module is fresh.
    """
    lam = free_module(c, 1)
    ring = [sigma_power(c, 1) - sigma_power(c, 0), c.p]
    jm = j_module.__wrapped__(c, 1)
    fixed = fixed_points(jm)
    yield "direct sum", direct_sum(jm, trivial_module(c, 2)).module
    yield "submodule", submodule_from_elements(lam, [lam.element([x]) for x in ring]).module
    yield "quotient", quotient_by_image(fixed.inclusion).module
    yield "kernel", kernel_of(free_cover(jm)[1]).module
    yield "fixed points", fixed.module
    yield "J_1", jm
    yield "splitting module", splitting_module(carry_cocycle(trivial_module(c, 1))).module
    yield "coarser config", _at_config(jm, GroupConfig(c.p, c.n, c.precision - 1))
    yield "quotient group", quotient_group_module(fixed.module, 1)


# int64, limb-split and object arithmetic
LAZY_GROUPS = [(3, 2, 12), (5, 1, 13), (11, 1, 11)]


@pytest.mark.parametrize("group", LAZY_GROUPS)
def test_relations_are_synthesized_only_when_read(group):
    # Building a module, its Tate groups and its hom space read no
    # relations; a saved document does, and gets the array the module
    # used to synthesize when it was built, bit for bit.
    c = GroupConfig(*group)
    for name, m in derived_modules(c):
        for level in range(m.cfg.n + 1):
            tate(m, 0, level), tate(m, 1, level)
        hom_space_basis(m, m)
        assert "relations" not in vars(m), name
        doc = json.loads(fileio.save_text(m))
        assert "relations" in vars(m), name
        want = synthesized_relations(m.cfg, len(m.gen_names), m._model, m._proj, m._lift)
        got = m.relations
        assert got.dtype == want.dtype == m.ctx.dtype and not got.flags.writeable, name
        assert got.shape == want.shape and np.array_equal(got, want), name
        assert doc["relations"] == _centered_object(want, m.cfg.modulus).tolist(), name


def test_wrong_number_of_names_is_rejected():
    c = cfg(n=2, precision=10)
    lam = free_module(c, 1)
    elems = [lam.element([sigma_power(c, 1)]), lam.element([c.p])]
    _, cover = free_cover(augmentation_ideal(c))
    dim = quotient_by_image(cover).module.model_dim
    assert len(submodule_from_elements(lam, elems, names="ab").module.gen_names) == 2
    for names in ([], ["y"], ["y"] * 3):
        with pytest.raises(ValueError):
            submodule_from_elements(lam, elems, names=names)
    for names in ([], ["y"] * 50):
        with pytest.raises(ValueError):
            kernel_of(cover, names=names)
    with pytest.raises(ValueError):
        quotient_by_image(cover, names=["q"] * (dim + 1))


PROBE_GROUPS = [(3, 1, 11), (3, 2, 12), (2, 2, 12), (2, 3, 12), (5, 1, 10), (7, 1, 11)]


def _assert_same_submodule(got, want):
    a, b = got.module, want.module
    assert a.gen_names == b.gen_names and a.moduli == b.moduli
    pairs = [(a.sigma_matrix, b.sigma_matrix), (a._proj, b._proj), (a._lift, b._lift)]
    for x, y in [*pairs, (got.inclusion.matrix, want.inclusion.matrix)]:
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


def _kernel_by_probe(hom):
    """kernel_of as it handed one element per saturated kernel vector,
    or the zero element, to the frozen construction."""
    source, ctx = hom.source, hom.source.ctx
    tc = hom.target.torsion_column_matrix()
    sat = linalg.saturated_kernel_cols(ctx, linalg.hstack(ctx, [hom.matrix, (-tc) % ctx.modulus]))
    keep = [source.element_from_model_coords(x) for x in sat[: source.model_dim].T]
    return submodule_by_probe(source, [x for x in keep if not x.is_zero()] or [source.zero()])


def _probe_cases(ambient, rng):
    """Element sets (random, with p x added for g > 0, all multiples of
    p) and homs whose kernels are fixed points, a cover's syzygies and 0."""
    c, one = ambient.cfg, linalg.eye(ambient.ctx, ambient.model_dim)
    draw = [
        ambient.element_from_model_coords([rng.randrange(c.modulus) for _ in ambient.moduli])
        for _ in range(2)
    ]
    sets = [draw[:1], draw + [c.p * draw[0]], [c.p * x for x in draw]]
    homs = [identity_hom(ambient), free_cover(ambient)[1]]
    for level in range(c.n + 1):
        tau = ambient.act_matrix(sigma_power(c, c.p ** (c.n - level)))
        homs.append(ModuleHom(ambient, ambient, (tau - one) % c.modulus))
    return sets, homs


@pytest.mark.parametrize("group", PROBE_GROUPS)
def test_submodules_match_the_probe_construction(group):
    # Bit for bit as the construction that always eliminated twice, with
    # and without a trivial Z/p^e summand (random presentations alone
    # have no torsion at p = 5 and 7), on sets with g > 0 and on kernels:
    # fixed points, syzygies and zero kernels.
    c = GroupConfig(*group)
    paths, zeros = set(), 0
    for seed in range(3):
        rng = random.Random(seed)
        base = random_presented_module(c, rng)
        with_torsion = direct_sum(base, trivial_module(c, 1 + seed)).module
        for ambient in (base, with_torsion, free_module(c, 1)):
            ctx, tc = ambient.ctx, ambient.torsion_column_matrix()
            sets, homs = _probe_cases(ambient, rng)
            for elements in sets:
                names = [f"z{j}" for j in range(len(elements))]
                got = submodule_from_elements(ambient, elements, names=names)
                _assert_same_submodule(got, submodule_by_probe(ambient, elements, names=names))
                ev = _orbits(ctx, ambient.sigma_matrix, [x.column() for x in elements], c.order)
                sm = linalg.smith(ctx, linalg.hstack(ctx, [ev, tc]), rows=False, cols=False)
                paths.add((max(sm.dvals, default=0) > 0, tc.shape[1] > 0))
            for hom in homs:
                got = kernel_of(hom)
                _assert_same_submodule(got, _kernel_by_probe(hom))
                zeros += got.module.is_zero()
    assert zeros and {(False, False), (True, False), (True, True)} <= paths


def test_submodules_match_the_probe_construction_on_the_object_path():
    # C11 at 11^11 runs on Python integers: the ideal and its fixed points.
    c = GroupConfig(11, 1, 11)
    assert linalg.context_of(c).dtype is object
    lam = free_module(c, 1)
    one = sigma_power(c, 0)
    elems = [lam.element([sigma_power(c, a) - one]) for a in range(1, c.order)]
    for elements in (elems, [11 * elems[0], elems[1]]):
        got = submodule_from_elements(lam, elements)
        _assert_same_submodule(got, submodule_by_probe(lam, elements))
    ideal = submodule_from_elements(lam, elems).module
    tau = ideal.act_matrix(sigma_power(c, 1))
    hom = ModuleHom(ideal, ideal, (tau - linalg.eye(ideal.ctx, 10)) % c.modulus)
    _assert_same_submodule(kernel_of(hom), _kernel_by_probe(hom))


def _stable_sets(cfg, ambient, rng=None):
    """Element sets whose span is sigma-stable: J_e for e = 0 .. n + 1
    and the ideal in Lambda (no rng), or the full sigma-orbit of a random
    element of the ambient, times p, and with p x added."""
    powers = [sigma_power(cfg, t) for t in range(cfg.order)]
    if rng is None:
        norm = ambient.element([norm_element(cfg)])
        sets = [[ambient.element([s * cfg.p**e]) for s in powers] + [norm] for e in range(cfg.n + 2)]
        return sets + [[ambient.element([s - powers[0]]) for s in powers[1:]]]
    x = ambient.element_from_model_coords([rng.randrange(cfg.modulus) for _ in ambient.moduli])
    orbit = [x.act(s) for s in powers]
    return [orbit, [cfg.p * y for y in orbit], orbit + [cfg.p * x]]


@pytest.mark.parametrize("group", PROBE_GROUPS + [(11, 1, 11)])
def test_sigma_stable_element_sets_take_their_own_lattice(group, monkeypatch):
    # Each set is built on its own lattice, with the frozen orbit
    # construction's moduli, sigma, lift and inclusion bit for bit, and
    # its proj too on the generators' columns (all that relations reads)
    # and below the guard band elsewhere, where the two eliminations may
    # leave different noise.  Ambients: random modules with and without a
    # trivial Z/p^e summand, and Lambda^2; C11 at 11^11 is the object
    # path, on Lambda^2 alone.
    c = GroupConfig(*group)
    routes = _routes(monkeypatch, caller="submodule_from_elements")
    lam = free_module(c, 1)
    cases = [(lam, elements) for elements in _stable_sets(c, lam)]
    for seed in range(1 if c.p == 11 else 3):
        rng = random.Random(seed)
        ambients = [free_module(c, 2)]
        if c.p != 11:
            base = random_presented_module(c, rng)
            ambients += [base, direct_sum(base, trivial_module(c, 1 + seed)).module]
        cases += [(a, elements) for a in ambients for elements in _stable_sets(c, a, rng)]
    floor = c.p ** (c.precision - c.guard)
    for ambient, elements in cases:
        got, want = submodule_from_elements(ambient, elements), submodule_by_probe(ambient, elements)
        assert routes[-1][0] and routes[-1][-1] is got
        a, b = got.module, want.module
        assert a.moduli == b.moduli
        pairs = [(a.sigma_matrix, b.sigma_matrix), (a._lift, b._lift)]
        for x, y in [*pairs, (got.inclusion.matrix, want.inclusion.matrix)]:
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        assert a._proj.shape == b._proj.shape and not ((a._proj - b._proj) % floor).any()
        assert np.array_equal(a._proj[:, :: c.order], b._proj[:, :: c.order])


def test_a_set_whose_own_lattice_meets_the_guard_band_takes_its_orbits(monkeypatch):
    # 1 and 1 + 3^10 sigma span a lattice with a pivot of valuation 10,
    # inside the guard band at 3^11, while their orbits span Lambda: the
    # raise on the own lattice sends the set to its orbits.
    c = GroupConfig(3, 1, 11)
    routes = _routes(monkeypatch, caller="submodule_from_elements")
    lam, one = free_module(c, 1), sigma_power(c, 0)
    elements = [lam.element([one]), lam.element([one + sigma_power(c, 1) * 3**10])]
    got = submodule_from_elements(lam, elements)
    _assert_same_submodule(got, submodule_by_probe(lam, elements))
    assert [own for own, *_ in routes] == [False] and got.module.invariant_summary() == (3, ())


@pytest.mark.parametrize("group, a", [((3, 1, 11), 1), ((3, 2, 12), 2), ((2, 2, 12), 2)])
def test_submodules_of_a_lifted_presentation_match_the_probe_construction(group, a):
    # The centered lift of Lambda / p^a (sigma - 1) is no module at N + 1
    # here, so these submodules are built on its presentation normalized
    # again.
    c = GroupConfig(*group)
    lam = free_module(c, 1)
    scaled = (sigma_power(c, 1) - sigma_power(c, 0)) * c.p**a
    quot = quotient_by_image(scalar_action_hom(lam, scaled)).module
    src = linalg.Context(c.p, c.precision + 1, 0)
    lifted = linalg.mat(src, _centered_object(quot.sigma_matrix, c.modulus))
    assert not _is_module(src, lifted, quot.moduli, c.order)
    sets, homs = _probe_cases(quot, random.Random(0))
    for elements in sets:
        got = submodule_from_elements(quot, elements)
        _assert_same_submodule(got, submodule_by_probe(quot, elements))
    for hom in homs:
        _assert_same_submodule(kernel_of(hom), _kernel_by_probe(hom))


def test_a_torsion_free_saturated_submodule_eliminates_once(monkeypatch):
    # g = e = 0 on the ideal's own sigma-stable lattice: the probe is the
    # one elimination, of the 9 x 8 generators alone, not of their 9 x 72
    # orbits; the orbits are expanded once, for proj, and no lift to a
    # raised precision is made.
    c = GroupConfig(3, 2, 12)
    lam = free_module(c, 1)
    one = sigma_power(c, 0)
    elems = [lam.element([sigma_power(c, a) - one]) for a in range(1, c.order)]
    columns = linalg.hstack(lam.ctx, [e.column() for e in elems])
    assert max(linalg.smith(lam.ctx, columns, rows=False, cols=False).dvals) == 0
    calls = {"smith": [], "orbits": 0, "lift": 0}
    smith, orbits = linalg.smith, modules._orbits
    centered, renormalized = modules._centered_lift, modules._renormalized_lift

    def count_smith(ctx, a, *args, **kwargs):
        calls["smith"].append(np.shape(a))
        return smith(ctx, a, *args, **kwargs)

    def count(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(linalg, "smith", count_smith)
    monkeypatch.setattr(modules, "_orbits", count("orbits", orbits))
    monkeypatch.setattr(modules, "_centered_lift", count("lift", centered))
    monkeypatch.setattr(modules, "_renormalized_lift", count("lift", renormalized))
    sub = submodule_from_elements(lam, elems)
    assert calls["smith"].count((lam.model_dim, len(elems))) == 1
    assert (lam.model_dim, len(elems) * c.order) not in calls["smith"]
    assert calls["orbits"] == 1 and calls["lift"] == 0
    assert sub.module.invariant_summary() == (c.order - 1, ())


def _assert_same_lattice(got, want):
    """Equal moduli and images, and sigma conjugate under the change of
    basis P (want.inclusion P = got.inclusion) mod p^(N - g), g the largest
    pivot valuation of the inclusion, below which P is determined."""
    a, b, ctx = got.module, want.module, got.module.ctx
    assert a.moduli == b.moduli and images_agree(got.inclusion, want.inclusion)
    if a.is_zero():
        return
    change = linalg.solve(ctx, want.inclusion.matrix, got.inclusion.matrix)
    assert change is not None and linalg.rank_mod_p(ctx.p, change) == a.model_dim
    g = max(linalg.smith(ctx, want.inclusion.matrix, rows=False, cols=False).dvals)
    lhs = linalg.matmul(ctx, b.sigma_matrix, change)
    rhs = linalg.matmul(ctx, change, a.sigma_matrix)
    assert not ((lhs - rhs) % ctx.p ** (ctx.precision - g)).any()


def _routes(monkeypatch, caller="kernel_of"):
    """Record each submodule built for caller (for every caller when it
    is None) as (own, ambient, columns, names, submodule): own says the
    columns' own lattice gave it, read
    from the widths of the eliminations _submodule hands linalg.smith,
    k + t columns on its own lattice and k d + t on the orbits (t the
    ambient's torsion columns)."""
    routes, widths = [], []
    real_submodule, real_smith = modules._submodule, linalg.smith

    def smith(ctx, a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_submodule":
            widths.append(np.shape(a)[1])
        return real_smith(ctx, a, *args, **kwargs)

    def submodule(ambient, columns, names=None):
        widths.clear()
        sub = real_submodule(ambient, columns, names)
        if caller in (None, sys._getframe(1).f_code.co_name):
            t = ambient.torsion_column_matrix().shape[1]
            own = columns.shape[1] * ambient.cfg.order + t not in widths
            routes.append((own, ambient, columns, names, sub))
        return sub

    monkeypatch.setattr(linalg, "smith", smith)
    monkeypatch.setattr(modules, "_submodule", submodule)
    return routes


@pytest.mark.parametrize("group", [(3, 1, 11), (3, 2, 12), (2, 2, 12), (5, 1, 10), (11, 1, 11)])
def test_kernels_from_their_own_lattice_match_the_probe_construction(group, monkeypatch):
    # Lattice by lattice as the construction that expanded the kernel
    # vectors' orbits: torsion-free targets (the middle map of the lemma-3
    # resolution, covers of the ideal and of a random module), the
    # augmentation onto Z/p^e for e = 1, 2 (g = e > 0) and the cover of a
    # module with a trivial Z/p^e summand.  C11 at 11^11 is the object path.
    c = GroupConfig(*group)
    routes = _routes(monkeypatch)
    lam, lam2 = free_module(c, 1), free_module(c, 2)
    ring = [lam.element([c.p]), lam.element([sigma_power(c, 1) - sigma_power(c, 0)])]
    homs = [ModuleHom.from_generator_images(lam2, lam, ring)]
    for e in (1, 2):
        tmod = trivial_module(c, e)
        homs.append(ModuleHom.from_generator_images(lam, tmod, [tmod.generator(0)]))
    base = random_presented_module(c, random.Random(sum(group)))
    for target in (augmentation_ideal(c), base, direct_sum(base, trivial_module(c, 2)).module):
        homs.append(free_cover(target)[1])
    for hom in homs:
        _assert_same_lattice(kernel_of(hom), _kernel_by_probe(hom))
    assert routes and all(own for own, *_ in routes)


@pytest.mark.parametrize("group, a", [((3, 2, 12), 2), ((5, 1, 10), 1)])
def test_kernels_into_a_lifted_presentation_fall_back_to_the_orbits(group, a, monkeypatch):
    # Lambda -> Lambda / p^a (sigma - 1), the quotient of the lifted
    # presentation test, and the same maps on Lambda + Z/p, which kill the
    # Z/p summand: its cover's kernel p^a (sigma - 1) Lambda takes its own
    # lattice.  On random images some kernels' lattices lifted to N + g
    # are not exactly sigma-stable, and those fall back to the orbits.
    # Where the probe construction meets the guard band, so does kernel_of.
    c = GroupConfig(*group)
    routes = _routes(monkeypatch)
    lam = free_module(c, 1)
    scaled = (sigma_power(c, 1) - sigma_power(c, 0)) * c.p**a
    quot = quotient_by_image(scalar_action_hom(lam, scaled)).module
    rng = random.Random(1)
    images = [quot.generator(0)]
    images += [
        quot.element_from_model_coords([rng.randrange(c.modulus) for _ in quot.moduli])
        for _ in range(4)
    ]
    for onto in (identity_hom(lam), direct_sum(lam, trivial_module(c, 1)).projections[0]):
        routes.clear()
        for image in images:
            hom = ModuleHom.from_generator_images(lam, quot, [image]).compose(onto)
            try:
                want = _kernel_by_probe(hom)
            except PrecisionExhausted:
                with pytest.raises(PrecisionExhausted):
                    kernel_of(hom)
                continue
            _assert_same_lattice(kernel_of(hom), want)
        owns = {own for own, *_ in routes}
        assert owns == {True, False}


@pytest.mark.parametrize("group", [(3, 1, 11), (3, 2, 12), (2, 3, 12), (5, 1, 10), (11, 1, 11)])
def test_kernels_of_sources_with_torsion_match_the_element_route(group, monkeypatch):
    # Bit for bit as the frozen construction on the orbits of the same
    # kernel vectors: the kernels of p and of tau - 1 at every level on
    # the finite kernel A of the J1+ideal pipeline and on a random module
    # plus a trivial Z/p^e summand, e = 1, 2 (random modules alone have no
    # torsion at p = 5 and 7), all on their own lattice, and every kernel
    # the pipeline builds on that route.  C11 at 11^11 is the object path.
    c = GroupConfig(*group)
    routes = _routes(monkeypatch)
    sources = [lemma2_pipeline(_pipeline_input("J1+ideal", c)).kernel.module]
    for e in (1, 2):
        base = random_presented_module(c, random.Random(e))
        sources.append(direct_sum(base, trivial_module(c, e)).module)
    for source in sources:
        one = linalg.eye(source.ctx, source.model_dim)
        homs = [scalar_action_hom(source, c.p)]
        for level in range(c.n + 1):
            tau = source.act_matrix(sigma_power(c, c.p ** (c.n - level)))
            homs.append(ModuleHom(source, source, (tau - one) % c.modulus))
        for hom in homs:
            assert not source.is_torsion_free() and kernel_of(hom) is routes[-1][-1]
            assert routes[-1][0]
    for own, ambient, columns, names, got in routes:
        if own:
            elements = [ambient.element_from_model_coords(x) for x in columns.T]
            _assert_same_submodule(got, submodule_by_probe(ambient, elements, names))


def test_the_chain_and_the_splitting_battery_expand_no_kernel_orbits(monkeypatch):
    # kernel_of reaches the orbits only as _submodule's fallback, and no
    # kernel of the theorem-1 chain on J1+ideal+free at C9, or of the
    # splitting battery, needs it.
    routes = _routes(monkeypatch)
    assert theorem1_verify(_pipeline_input("J1+ideal+free", GroupConfig(3, 2, 12))).passed
    assert suite_splitting().status == "pass"
    assert routes and all(own for own, *_ in routes)


def test_the_theorem1_chains_build_every_submodule_on_its_own_lattice(monkeypatch):
    # The four input shapes at C9 and C8: the free witnesses are quotiented
    # out through the hom from Lambda^rank, so no submodule of the chains,
    # kernel or element set, J_1 and the ideal included, expands orbits.
    j_module.cache_clear()
    augmentation_ideal.cache_clear()
    routes = _routes(monkeypatch, caller=None)
    for group in [(3, 2, 12), (2, 3, 12)]:
        for shape in ("ideal", "ideal+free", "J1+ideal", "J1+ideal+free"):
            assert theorem1_verify(_pipeline_input(shape, GroupConfig(*group))).passed
    assert routes and all(own for own, *_ in routes)


@pytest.mark.parametrize("p, precision", [(3, 8), (5, 13), (7, 12)])
def test_orbits_of_a_permutation_match_the_column_loop(p, precision, monkeypatch):
    # int64, 5^13 cut into limbs and 7^12 on Python integers: a row gather
    # gives the orbits bit for bit, also of columns that are not canonical,
    # and forms no product.
    c, rng = linalg.Context(p, precision, 2), random.Random(p)
    for m, d in [(0, 4), (1, 3), (6, 9), (12, 25)]:
        sigma = linalg.zeros(c, m, m)
        sigma[np.arange(m), rng.sample(range(m), m)] = 1
        columns = [linalg.mat(c, [[rng.randrange(c.modulus)] for _ in range(m)]) for _ in range(3)]
        raw = [rng.randrange(-c.modulus, c.modulus) for _ in range(m)]
        columns.append(np.array(raw, dtype=c.dtype).reshape(m, 1))
        want = orbits_by_column(c, sigma, columns, d)
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "matmul", None)
            got = _orbits(c, sigma, columns, d)
        assert got.dtype == want.dtype == c.dtype
        assert got.shape == want.shape and np.array_equal(got, want)


def test_the_lemma3_resolution_builds_no_orbit_lattice_of_its_kernels(monkeypatch):
    # Guards the element sets and kernels that take their own lattice and
    # the gather on free modules: at C25 no elimination is larger than
    # 50 x 50, neither J_1's 25 x 650 orbits (26 elements of Lambda) nor
    # the 50 x 625 orbits of the 25 kernel vectors of Lambda^2 -> Lambda,
    # and no orbit step of a permutation sigma is a product.
    j_module.cache_clear()
    augmentation_ideal.cache_clear()
    cells, products, gathers = [], [], []
    real_smith, real_orbits = linalg.smith, modules._orbits

    def smith(c, a, *args, **kwargs):
        cells.append(np.size(a))
        return real_smith(c, a, *args, **kwargs)

    def orbits(c, sigma, columns, d):
        before = len(products)
        out = real_orbits(c, sigma, columns, d)
        ones = np.isin(sigma, (0, 1)).all() and (sigma.sum(axis=0) == 1).all()
        if ones and (sigma.sum(axis=1) == 1).all():
            gathers.append(len(products) - before)
        return out

    def matmul(c, a, b):
        products.append(a.shape)
        return real_matmul(c, a, b)

    real_matmul = linalg.matmul
    monkeypatch.setattr(linalg, "smith", smith)
    monkeypatch.setattr(linalg, "matmul", matmul)
    monkeypatch.setattr(modules, "_orbits", orbits)
    res = lemma3_resolution(GroupConfig(5, 2, 10), 1)
    # The image of Lambda^2 -> Lambda is built on first read, so read it.
    assert res.onto_image.target is res.image.module
    assert max(cells) <= 50 * 50
    assert gathers and not any(gathers)
