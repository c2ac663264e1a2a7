"""Tate groups, restriction and corestriction, induced maps."""

import gc
import random
import weakref

import numpy as np
import pytest

from cyclomod import cohomology, linalg
from cyclomod.arith import sigma_power, subgroup_norm
from cyclomod.cohomology import (
    CohomMap,
    connecting_iso,
    coset_sum,
    corestriction,
    induced_map,
    is_cohomologically_trivial,
    restriction,
    tate,
)
from cyclomod.config import GroupConfig
from cyclomod.constructions import (
    cocycle_from_section,
    j_module,
    lemma2_pipeline,
    lemma3_resolution,
    splitting_module,
    theorem1_verify,
)
from cyclomod.errors import CyclomodError, PrecisionExhausted, PreconditionViolated
from cyclomod.modules import (
    ModuleHom,
    PresentedModule,
    _Model,
    augmentation_ideal,
    direct_sum,
    free_cover,
    free_module,
    kernel_of,
    minimal_generators,
    quotient_by_image,
    scalar_action_hom,
    trivial_module,
    zp_trivial,
)
from cyclomod.oracle import Iso, modules_isomorphic
from cyclomod.suites import _pipeline_input, random_presented_module
from cyclomod.yakovlev import DiagramIso, delta, diagrams_isomorphic

from _oracles import (
    FiniteModule,
    brute_tate_invariants,
    connecting_map_by_generators,
    herbrand_log,
    map_by_generators,
    tate_core_by_relations,
)
from _seeded_lattices import lattices


def cfg(p=3, n=1, precision=8):
    return GroupConfig(p=p, n=n, precision=precision)


def test_trivial_coefficients_even_degree():
    # Fixed points are everything, the level-i norm is p^i: Z/p^i.
    c = cfg(n=2, precision=9)
    z = zp_trivial(c)
    for level in (0, 1, 2):
        h0 = tate(z, 0, level)
        assert h0.invariants == ((level,) if level else ())


def test_trivial_coefficients_odd_degree():
    c = cfg(n=2, precision=9)
    z = zp_trivial(c)
    for level in (0, 1, 2):
        assert tate(z, 1, level).is_trivial()


def test_finite_trivial_coefficients_both_parities():
    c = cfg(n=2, precision=9)
    for e in (1, 2, 3):
        m = trivial_module(c, exponent=e)
        for level in (1, 2):
            expected = (min(e, level),)
            assert tate(m, 0, level).invariants == expected
            assert tate(m, 1, level).invariants == expected


def test_group_ring_is_cohomologically_trivial():
    c = cfg(n=2, precision=9)
    assert is_cohomologically_trivial(free_module(c, 1))
    assert is_cohomologically_trivial(free_module(c, 2))
    assert not is_cohomologically_trivial(zp_trivial(c))


def test_finite_quotient_of_group_ring_is_trivial():
    c = cfg()
    lam = free_module(c, 1)
    mod_p = PresentedModule(c, ["e"], [([3, 0, 0],)])
    assert mod_p.invariant_summary() == (0, (1, 1, 1))
    assert is_cohomologically_trivial(mod_p)
    assert is_cohomologically_trivial(lam)


def test_augmentation_ideal_cohomology():
    # Dimension shift along 0 -> I -> group ring -> Zp -> 0 moves the
    # even-degree Z/p^i of Zp into odd degree for the ideal.
    for n in (1, 2):
        c = cfg(n=n, precision=9)
        ideal = augmentation_ideal(c)
        for level in range(1, n + 1):
            assert tate(ideal, 0, level).is_trivial()
            assert tate(ideal, 1, level).invariants == (level,)


def test_tate_generators_reduce_to_unit_vectors():
    c = cfg(n=2, precision=9)
    z = zp_trivial(c)
    h = tate(z, 0, 2)
    assert h.invariants == (2,)
    assert h.reduce(h.generators[0]) == (1,)
    assert h.reduce(9 * h.generators[0]) == (0,)
    assert h.reduce(h.generators[0]) == h.reduce(10 * h.generators[0])


def test_reduce_rejects_elements_outside_numerator():
    c = cfg(n=1, precision=8)
    ideal = augmentation_ideal(c)
    h0 = tate(ideal, 0, 1)  # trivial group, numerator = ker(sigma - 1)
    g = ideal.generator(0)
    assert not g.act(sigma_power(c, 1) - sigma_power(c, 0)).is_zero()
    with pytest.raises(PreconditionViolated):
        h0.reduce(g)


def test_a_map_off_the_target_numerator_is_refused():
    # H^0 of trivial Zp into H^0 of Lambda, whose numerator is Zp N_G:
    # the generator 1 goes to sigma^0, which sigma does not fix.
    c = cfg(n=1, precision=8)
    z, lam = zp_trivial(c), free_module(c, 1)
    rep = linalg.zeros(lam.ctx, lam.model_dim, z.model_dim)
    rep[0, 0] = 1
    with pytest.raises(PreconditionViolated, match="^element is not in the numerator of this"):
        CohomMap.from_representative_matrix(tate(z, 0, 1), tate(lam, 0, 1), rep)


def _augmentation(lam, target, scale):
    return ModuleHom.from_generator_images(lam, target, [scale * target.generator(0)])


def test_a_connecting_map_whose_proj_misses_a_representative_is_refused():
    # Lambda -(sigma - 1)-> Lambda -(p augmentation)-> Zp: the class of 1
    # in H^0(Zp) has no preimage.
    c = cfg(n=1, precision=8)
    lam, z = free_module(c, 1), zp_trivial(c)
    inc = scalar_action_hom(lam, sigma_power(c, 1) - sigma_power(c, 0))
    with pytest.raises(PreconditionViolated, match="^proj misses a cohomology representative$"):
        connecting_iso(inc, _augmentation(lam, z, c.p), 0, 1)


def test_a_connecting_map_whose_boundary_escapes_inc_is_refused():
    # Lambda -(p (sigma - 1))-> Lambda -(augmentation)-> Zp: a lift of 1
    # has boundary (sigma - 1) u, u a unit, outside p I.
    c = cfg(n=1, precision=8)
    lam, z = free_module(c, 1), zp_trivial(c)
    inc = scalar_action_hom(lam, c.p * (sigma_power(c, 1) - sigma_power(c, 0)))
    with pytest.raises(PreconditionViolated, match="^boundary of a lifted representative escapes"):
        connecting_iso(inc, _augmentation(lam, z, 1), 0, 1)


def test_random_finite_modules_match_brute_force():
    c = cfg(p=3, n=2, precision=9)
    rng = random.Random(41)
    checked = 0
    for _ in range(12):
        rel0 = [rng.randrange(-6, 7) for _ in range(c.order)]
        mod = PresentedModule(
            c,
            ["g"],
            [([9] + [0] * (c.order - 1),), (rel0,)],
        )
        if mod.model_dim == 0 or not mod.is_finite():
            continue
        total = 1
        for m in mod.moduli:
            total *= m
        if total > 3000:
            continue
        fm = FiniteModule(list(mod.moduli), [[int(x) for x in row] for row in mod.sigma_matrix])
        for level in (1, 2):
            for degree in (0, 1):
                got = tate(mod, degree, level).invariants
                want = tuple(
                    brute_tate_invariants(c.p, c.order, fm, degree, subgroup_order=c.p**level)
                )
                assert got == want, (level, degree, mod.describe())
        checked += 1
    assert checked >= 3


def test_restriction_then_corestriction_is_index_scale():
    c = cfg(n=2, precision=9)
    for module in (zp_trivial(c), augmentation_ideal(c), trivial_module(c, exponent=2)):
        for degree in (0, 1):
            for i, j in ((1, 2), (0, 2), (1, 1)):
                res = restriction(module, degree, j, i)
                cor = corestriction(module, degree, i, j)
                expect = CohomMap.scalar(tate(module, degree, j), c.p ** (j - i))
                assert cor.compose(res) == expect


def test_corestriction_then_restriction_is_coset_sum_action():
    c = cfg(n=2, precision=9)
    for module in (zp_trivial(c), augmentation_ideal(c)):
        for degree in (0, 1):
            i, j = 1, 2
            res = restriction(module, degree, j, i)
            cor = corestriction(module, degree, i, j)
            low = tate(module, degree, i)
            expect = CohomMap.from_representative_matrix(
                low, low, module.act_matrix(coset_sum(c, j, i))
            )
            assert res.compose(cor) == expect


def test_coset_sum_values():
    c = cfg(n=2, precision=9)
    assert coset_sum(c, 2, 1).values == (1, 1, 1, 0, 0, 0, 0, 0, 0)
    assert coset_sum(c, 1, 0).values == (1, 0, 0, 1, 0, 0, 1, 0, 0)
    assert coset_sum(c, 1, 1).values == (1, 0, 0, 0, 0, 0, 0, 0, 0)


def test_induced_map_of_scalar_multiplication():
    c = cfg(n=2, precision=9)
    z = zp_trivial(c)
    hom = scalar_action_hom(z, 3)
    ind = induced_map(hom, 0, 2)
    assert ind.matrix.tolist() == [[3]]
    assert not ind.is_isomorphism()
    unit = induced_map(scalar_action_hom(z, 2), 0, 2)
    assert unit.is_isomorphism()


def test_induced_map_into_trivial_target():
    c = cfg()
    ideal = augmentation_ideal(c)
    lam = free_module(c, 1)
    one = sigma_power(c, 0)
    inc = ModuleHom.from_generator_images(
        ideal,
        lam,
        [lam.element([sigma_power(c, a) - one]) for a in (1, 2)],
    )
    ind = induced_map(inc, 1, 1)
    assert ind.target.is_trivial()
    assert ind.matrix.shape == (0, 1)


def test_a_map_out_of_a_trivial_group_makes_no_product(monkeypatch):
    # Lambda's groups are all zero, so restriction on Lambda and the map
    # the augmentation Lambda -> Zp induces are empty and need no product,
    # into a zero group or into Zp's Z/p^level.
    c = cfg(n=2, precision=9)
    lam, z = free_module(c, 1), zp_trivial(c)
    aug = ModuleHom.from_generator_images(lam, z, [z.generator(0)])
    for module in (lam, z):
        for degree in (0, 1):
            for level in (1, 2):
                tate(module, degree, level)
    products = []
    real = linalg.matmul

    def matmul(ctx, a, b):
        products.append((a.shape, b.shape))
        return real(ctx, a, b)

    monkeypatch.setattr(linalg, "matmul", matmul)
    maps = [restriction(lam, 0, 2, 1), induced_map(aug, 0, 2), induced_map(aug, 1, 1)]
    assert not products
    assert [m.matrix.shape for m in maps] == [(0, 0), (1, 0), (0, 0)]
    assert all(m.matrix.dtype == np.int64 for m in maps)


REDUCE_GROUPS = [(3, 1, 11), (3, 2, 12), (5, 1, 10), (2, 2, 12), (7, 1, 11)]
REDUCE_SEEDS = 20


def _check_reduce(mod, rng) -> int:
    """Check reduce() on every level and parity; count nontrivial groups."""
    c = mod.cfg
    torsion = [i for i, q in enumerate(mod.moduli) if q is not None]
    nontrivial = 0
    for level in range(1, c.n + 1):
        one, tau = sigma_power(c, 0), sigma_power(c, c.p ** (c.n - level))
        for degree in (0, 1):
            h = tate(mod, degree, level)
            nontrivial += bool(h.invariants)
            b_op = subgroup_norm(c, level) if degree == 0 else tau - one

            def combo():
                coeffs = [rng.randrange(c.modulus) for _ in h.generators]
                x = mod.zero()
                for k, g in zip(coeffs, h.generators):
                    x = x + k * g
                return coeffs, x

            for _ in range(4):
                coeffs, x = combo()
                want = tuple(k % c.p**f for k, f in zip(coeffs, h.invariants))
                assert h.reduce(x) == want
                # x plus a denominator element: a column of B, a torsion
                # column, a multiple of p^level.
                coords = list(x.coords)
                if torsion:
                    i = rng.choice(torsion)
                    coords[i] += rng.randrange(1, c.p) * mod.moduli[i]
                y = [rng.randrange(c.modulus) for _ in range(mod.model_dim)]
                for shifted in (
                    x + mod.element_from_model_coords(y).act(b_op),
                    mod.element_from_model_coords(coords),
                    x + c.p**level * combo()[1],
                ):
                    assert h.reduce(shifted) == want
    return nontrivial


@pytest.mark.parametrize("group", REDUCE_GROUPS, ids=[f"p{p}n{n}" for p, n, _ in REDUCE_GROUPS])
def test_reduce_is_linear_and_ignores_the_denominator(group):
    # reduce() reads coordinates off any representative; these are the
    # two facts that make that safe.  REDUCE_SEEDS seeded random modules
    # per group, alone and plus a trivial Z/p^e (most random modules
    # have trivial cohomology at p = 5 and 7).
    c = GroupConfig(*group)
    nontrivial = 0
    for seed in range(REDUCE_SEEDS):
        rng = random.Random(seed)
        mod = random_presented_module(c, rng)
        extra = trivial_module(c, exponent=1 + seed % 2)
        for m in (mod, direct_sum(mod, extra).module):
            nontrivial += _check_reduce(m, rng)
    assert nontrivial >= REDUCE_SEEDS


PRECISION_GROUPS = [(3, 1, 11), (3, 2, 12), (2, 2, 12), (5, 1, 10)]


@pytest.mark.parametrize(
    "group", PRECISION_GROUPS, ids=[f"p{p}n{n}" for p, n, _ in PRECISION_GROUPS]
)
def test_tate_invariants_do_not_depend_on_the_precision(group):
    # Every level and parity agrees at N and N + 8 (the second is on
    # the object path at 3^20 and 5^18).  Each module carries a trivial
    # Z/p^e summand, so the groups are nontrivial even at p = 5, where
    # the random modules alone have trivial cohomology.
    p, n, precision = group
    low, high = GroupConfig(p, n, precision), GroupConfig(p, n, precision + 8)

    def invariants(c, seed):
        mod = random_presented_module(c, random.Random(seed))
        m = direct_sum(mod, trivial_module(c, exponent=1 + seed % 3)).module
        return [tate(m, d, lv).invariants for lv in range(n + 1) for d in (0, 1)]

    for seed in range(12):
        want = invariants(low, seed)
        assert any(want)
        assert invariants(high, seed) == want


@pytest.fixture
def cores(monkeypatch):
    """A fresh shared-core table, holding only what the test builds."""
    table = weakref.WeakValueDictionary()
    monkeypatch.setattr(cohomology, "_cores", table)
    return table


@pytest.fixture
def smith_calls(monkeypatch):
    calls = []
    real = linalg.smith

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "smith", counted)
    return calls


def _twins(c):
    """Two distinct modules on one model with nontrivial cohomology in
    both parities: the augmentation ideal plus a trivial Z/p."""
    base = direct_sum(augmentation_ideal(c), trivial_module(c, exponent=1)).module
    return [PresentedModule._from_model(c, base._model) for _ in range(2)]


def _all_groups(mod):
    return [tate(mod, d, lv) for lv in range(1, mod.cfg.n + 1) for d in (0, 1)]


SHARING_GROUPS = [((3, 2, 9), np.int64), ((7, 1, 12), object)]


@pytest.mark.parametrize("group, dtype", SHARING_GROUPS, ids=["C9", "C7-object"])
def test_modules_with_one_model_share_the_eliminations(group, dtype, cores, smith_calls):
    c = GroupConfig(*group)
    assert linalg.context_of(c).dtype is dtype
    first, second = _twins(c)
    groups1 = _all_groups(first)
    assert smith_calls and all(h.invariants for h in groups1)
    smith_calls.clear()
    groups2 = _all_groups(second)
    assert not smith_calls
    assert [h.invariants for h in groups2] == [h.invariants for h in groups1]
    for mod, own, other in ((first, groups1, groups2), (second, groups2, groups1)):
        for h, h_other in zip(own, other):
            assert h is not h_other
            assert all(g.module is mod for g in h.generators)
            for k, g in enumerate(h.generators):
                assert h.reduce(g) == tuple(int(j == k) for j in range(len(h.generators)))
            with pytest.raises(ValueError):
                h.reduce(h_other.generators[0])


def test_other_precision_or_guard_shares_nothing(cores, smith_calls):
    # The group ring plus Z/3: its sigma is a permutation and a 1, the
    # same bytes at 3^9 and 3^10, so the model is a module at both.
    c9 = GroupConfig(3, 1, 9)
    mods = [direct_sum(free_module(c9, 1), trivial_module(c9, 1)).module]
    assert all(h.invariants == (1,) for h in _all_groups(mods[0]))
    for c in (GroupConfig(3, 1, 10), GroupConfig(3, 1, 9, guard=3)):
        smith_calls.clear()
        mods.append(PresentedModule._from_model(c, mods[0]._model))
        assert mods[-1].sigma_matrix.tobytes() == mods[0].sigma_matrix.tobytes()
        _all_groups(mods[-1])
        assert smith_calls
    # Per module and parity, each of the two blocks (the group ring and
    # Z/3) has a boundary and a core of its own.
    assert len(cores) == len(mods) * 2 * 2 * 2


def test_a_model_that_is_no_module_is_refused():
    # The ideal's sigma at 3^9 holds -1 as 3^9 - 1, so at 3^10 sigma^3
    # is not 1 and the image of tau - 1 leaves ker(norm) in odd degree.
    model = _twins(GroupConfig(3, 1, 9))[0]._model
    module = PresentedModule._from_model(GroupConfig(3, 1, 10), model)
    with pytest.raises(CyclomodError, match="not a module at this precision"):
        tate(module, 1, 1)


def test_shared_cores_die_with_their_modules(cores):
    c = GroupConfig(3, 2, 9)
    twins = _twins(c)
    groups = [h for mod in twins for h in _all_groups(mod)]
    # Per level and parity, a boundary and a core for each of the two
    # blocks (the ideal and Z/3), which the twins share.
    assert len(cores) == 2 * c.n * 2 * 2
    del twins, groups
    gc.collect()
    assert len(cores) == 0


HERBRAND_GROUPS = [(3, 1, 11), (3, 2, 12), (2, 2, 12), (2, 3, 12), (5, 1, 10)]


@pytest.mark.parametrize("group", HERBRAND_GROUPS)
def test_tate_orders_match_the_herbrand_quotient(group):
    # sum inv H^0 - sum inv H^1 at every level, against ranks of fixed
    # spaces on M (x) Qp.  Zp, the ideal and J1 have quotients other
    # than 1; the random modules mostly have 1.  Each module gets a
    # trivial Z/p^e summand, which leaves the quotient as it is and
    # gives the p = 5 modules nontrivial Tate groups.
    c = GroupConfig(*group)
    rng = random.Random(sum(group))
    named = [zp_trivial(c), augmentation_ideal(c), free_module(c, 2), j_module(c, 1)]
    bases = named + [random_presented_module(c, rng) for _ in range(20)]
    checked, values = 0, set()
    for i, base in enumerate(bases):
        module = direct_sum(base, trivial_module(c, 1 + i % 3)).module
        for level in range(c.n + 1):
            try:
                h0, h1 = (sum(tate(module, deg, level).invariants) for deg in (0, 1))
                want = herbrand_log(module, level)
            except PrecisionExhausted:
                continue
            assert h0 - h1 == want, (i, level)
            checked, values = checked + 1, values | {want}
    assert checked >= 20 * (c.n + 1) and len(values) >= 3


CORE_SEEDS = 25


def _agrees_with_relation_system(module, degree, level, rng) -> bool:
    """Compare tate() with the frozen relation-system core; True when the
    group is nontrivial."""
    c = module.cfg
    try:
        old = tate_core_by_relations(module, degree, level)
    except PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            tate(module, degree, level)
        return False
    new = tate(module, degree, level)
    exps = new.invariants
    assert exps == old.invariants
    if not exps:
        return False
    # Column j of G is the new coordinates of old generator j.
    old_gens = [module.element_from_model_coords(x) for x in old.generator_coords]
    g = np.array([new.reduce(x) for x in old_gens], dtype=object).T
    assert linalg.rank_mod_p(c.p, g) == len(exps)
    ctx = linalg.Context(c.p, c.precision, 0)
    for shift in (0, 0, 1, 1):
        coeffs = linalg.mat(ctx, [rng.randrange(c.modulus) for _ in range(old.ker.shape[1])])
        noise = [shift * c.p**old.floor * rng.randrange(c.modulus) for _ in range(module.model_dim)]
        x = module.element_from_model_coords(
            (linalg.matmul(ctx, old.ker, coeffs).ravel() + noise) % c.modulus
        )
        want = g.dot(np.array(old.reduce(x.column()), dtype=object))
        assert new.reduce(x) == tuple(int(w) % c.p**f for w, f in zip(want, exps))
    return True


@pytest.mark.parametrize("group", HERBRAND_GROUPS)
def test_tate_core_matches_the_relation_system(group):
    # Against the frozen relation-system core: equal invariants (or both
    # PrecisionExhausted), the old generators reduce to a change of
    # generators G invertible mod p, and reduce() of random numerator
    # elements, plain and shifted by p^floor v, agrees with the old
    # coordinates up to G.  Each module carries a trivial Z/p^e summand.
    c = GroupConfig(*group)
    rng = random.Random(7 * sum(group))
    nontrivial = 0
    for i in range(CORE_SEEDS):
        base = random_presented_module(c, rng)
        module = direct_sum(base, trivial_module(c, 1 + i % 3)).module
        for level in range(1, c.n + 1):
            for degree in (0, 1):
                nontrivial += _agrees_with_relation_system(module, degree, level, rng)
    assert nontrivial >= CORE_SEEDS


def _unsplit_core(monkeypatch, module, degree, level):
    """The core of the whole model taken as one block, in a fresh table."""
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_block_bounds", lambda sigma: [0, len(sigma)])
        patch.setattr(cohomology, "_cores", weakref.WeakValueDictionary())
        return cohomology._core(module, degree, level)


def _core_reduce(core, column, exps, p):
    y = linalg.matmul(core.ctx, core.rows, core.coords(column))
    return [int(v) % p**f for v, f in zip(y[:, 0], exps)]


def _agrees_with_the_unsplit_core(module, degree, level, rng, monkeypatch):
    """Compare tate() with the core of the unsplit model; return the
    blocks' boundary divisors when the group is nontrivial."""
    c, ctx = module.cfg, linalg.Context(module.cfg.p, module.cfg.precision, 0)
    try:
        old = _unsplit_core(monkeypatch, module, degree, level)
    except PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            tate(module, degree, level)
        return None
    new = tate(module, degree, level)
    exps = new.invariants
    assert exps == old.invariants
    if not exps:
        return None
    # Each set of generators has full rank mod p in the other's coordinates.
    h = np.array([_core_reduce(old, g.column(), exps, c.p) for g in new.generators]).T
    assert linalg.rank_mod_p(c.p, h) == len(exps)
    old_gens = [module.element_from_model_coords(x) for x in old.generator_matrix.T]
    g = np.array([new.reduce(x) for x in old_gens], dtype=object).T
    assert linalg.rank_mod_p(c.p, g) == len(exps)
    # reduce() of numerator elements, plain and plus p^floor v, agrees up to G.
    zsm, floor = old.boundary.zsm, c.precision - old.boundary.g
    basis = (zsm.left_inv[:, : len(old.scale)] * old.scale.T) % c.modulus
    for shift in (0, 1, 1):
        coeffs = linalg.mat(ctx, [rng.randrange(c.modulus) for _ in range(basis.shape[1])])
        noise = [shift * c.p**floor * rng.randrange(c.modulus) for _ in range(module.model_dim)]
        x = (linalg.matmul(ctx, basis, coeffs).ravel() + noise) % c.modulus
        x = module.element_from_model_coords(x)
        want = g.dot(np.array(_core_reduce(old, x.column(), exps, c.p), dtype=object))
        assert new.reduce(x) == tuple(int(w) % c.p**f for w, f in zip(want, exps))
    parts = getattr(new._core, "parts", [new._core])
    return [part.boundary.g for part in parts]


@pytest.mark.parametrize("group", HERBRAND_GROUPS)
def test_split_cores_match_the_unsplit_model(group, monkeypatch):
    # Block-diagonal models against their core taken whole: equal
    # invariants (or both PrecisionExhausted), generators of full rank
    # mod p in each other's coordinates, and reduce() agreeing under
    # p^floor noise.  Summands come in both orders, with a free block
    # and trivial Z/p^e blocks, and some sums have blocks whose own
    # boundary divisors, so their own floors, differ.
    c = GroupConfig(*group)
    rng = random.Random(13 * sum(group))
    ideal, lam = augmentation_ideal(c), free_module(c, 1)
    sums = [(ideal, trivial_module(c, 2)), (zp_trivial(c), lam, trivial_module(c, 1))]
    for i in range(3):
        base, extra = random_presented_module(c, rng), trivial_module(c, 1 + i % 3)
        sums += [(base, extra, lam), (extra, ideal, base)]
    divisors = []
    for parts in sums:
        module = direct_sum(*parts).module
        for level in range(1, c.n + 1):
            for degree in (0, 1):
                divisors.append(_agrees_with_the_unsplit_core(module, degree, level, rng, monkeypatch))
    split = [d for d in divisors if d and len(d) > 1]
    assert len(split) >= 2 * c.n and any(len(set(d)) > 1 for d in split)


@pytest.mark.parametrize("group", [(3, 2, 12), (2, 3, 12)])
def test_a_change_of_basis_keeps_the_invariants(group):
    # A random unimodular conjugate U sigma U^-1 of ideal + J1 + Lambda
    # no longer splits into blocks; every level and parity keeps its
    # invariants, the level diagrams are isomorphic, and so are the
    # modules, by an Iso whose inverse is a verified hom.
    c = GroupConfig(*group)
    whole = direct_sum(augmentation_ideal(c), j_module(c, 1), free_module(c, 1)).module
    ctx, m, rng = whole.ctx, whole.model_dim, random.Random(sum(group))
    draw = linalg.mat(ctx, [[rng.randrange(c.modulus) for _ in range(m)] for _ in range(m)])
    u = linalg.matmul(ctx, np.tril(draw, -1) + linalg.eye(ctx, m), np.triu(draw, 1) + linalg.eye(ctx, m))
    sigma = linalg.matmul(ctx, linalg.matmul(ctx, u, whole.sigma_matrix), linalg.invert(ctx, u))
    moved = PresentedModule._from_model(c, _Model(whole.moduli, sigma))
    assert len(cohomology._block_bounds(whole.sigma_matrix)) >= 4
    assert cohomology._block_bounds(sigma) == [0, m]
    for level in range(1, c.n + 1):
        for degree in (0, 1):
            assert tate(moved, degree, level).invariants == tate(whole, degree, level).invariants
    assert isinstance(diagrams_isomorphic(delta(moved), delta(whole)), DiagramIso)
    iso = modules_isomorphic(moved, whole)
    assert isinstance(iso, Iso)
    assert iso.forward.source is moved and iso.forward.target is whole
    inverse = ModuleHom(whole, moved, iso.inverse.matrix)
    assert np.array_equal(inverse.compose(iso.forward).matrix, linalg.eye(ctx, m))
    assert np.array_equal(iso.forward.compose(inverse).matrix, linalg.eye(ctx, m))


def test_margin_error_names_the_precision_needed():
    # C8 ideal: a level-3 boundary kernel has a divisor of valuation 6.
    with pytest.raises(PrecisionExhausted, match="needed N >= 9"):
        theorem1_verify(_pipeline_input("ideal", GroupConfig(2, 3, 8)))
    assert theorem1_verify(_pipeline_input("ideal", GroupConfig(2, 3, 9))).passed


def test_theorem1_chain_matches_the_herbrand_quotient():
    # Every module the C27 J1+ideal chain builds: the quotient is the
    # input's, 0, -1, -2, -3 by level, on all but the finite kernel A,
    # where it is 1 (log 0).
    c = GroupConfig(3, 3, 13)
    data = _pipeline_input("J1+ideal", c)
    res = lemma2_pipeline(data)
    split = splitting_module(cocycle_from_section(res.pi, res.kernel)).module
    syzygy = split
    for _ in range(2):
        syzygy = kernel_of(free_cover(syzygy)[1]).module
    chain = {"input": data.module, "C1": res.c1, "C2": res.c2, "B": res.b}
    chain.update({"A": res.kernel.module, "split": split, "syzygy": syzygy})
    for name, module in chain.items():
        for level in range(c.n + 1):
            h0, h1 = (sum(tate(module, deg, level).invariants) for deg in (0, 1))
            want = herbrand_log(module, level)
            assert h0 - h1 == want == (0 if name == "A" else -level), (name, level)


BLOCK_GROUPS = [(3, 1, 11), (3, 2, 12), (2, 2, 12), (2, 3, 12), (5, 1, 10)]


@pytest.fixture
def checked_maps(monkeypatch):
    """Every map built from representatives, checked against the
    per-generator builder as it is built; the list of their matrices."""
    built, block = [], CohomMap.from_representative_matrix.__func__

    def checked(cls, source, target, rep):
        got = block(cls, source, target, rep)
        assert got.matrix.dtype == np.int64
        assert np.array_equal(got.matrix, map_by_generators(source, target, rep))
        built.append(got.matrix)
        return got

    monkeypatch.setattr(CohomMap, "from_representative_matrix", classmethod(checked))
    return built


@pytest.mark.parametrize("group", BLOCK_GROUPS)
def test_maps_match_the_per_generator_builder(group, checked_maps):
    # Restriction and corestriction at every level pair in both parities,
    # induced maps of direct-sum injections and projections and of a
    # quotient projection, and delta's sigma matrices, on seeded lattices.
    c = GroupConfig(*group)
    for module in lattices(c):
        ds = direct_sum(module, trivial_module(c, 1))
        cover = ModuleHom.from_generator_images(
            free_module(c, 1), module, minimal_generators(module)[:1]
        )
        homs = [*ds.injections, *ds.projections, quotient_by_image(cover).projection]
        for degree in (0, 1):
            for j in range(c.n + 1):
                for i in range(j + 1):
                    restriction(module, degree, j, i)
                    corestriction(module, degree, i, j)
                for hom in homs:
                    induced_map(hom, degree, j)
        delta(module)
    assert len(checked_maps) >= 500 and sum(m.any() for m in checked_maps) >= 200


@pytest.mark.parametrize("group", BLOCK_GROUPS)
def test_pipeline_legs_match_the_per_generator_builder(group, checked_maps):
    # The three legs of lemma2_pipeline at every level and parity, and
    # the restrictions and corestrictions its witnesses commute with.
    c = GroupConfig(*group)
    for shape in ("ideal", "J1+ideal+free"):
        lemma2_pipeline(_pipeline_input(shape, c))
    assert sum(m.any() for m in checked_maps) >= 9 * c.n


@pytest.mark.parametrize("group", BLOCK_GROUPS)
def test_connecting_maps_match_the_per_generator_builder(group):
    # Both connecting maps of the lemma-3 resolution of Z/p^e by J_e.
    c = GroupConfig(*group)
    nonzero = 0
    for e in (1, 2):
        res = lemma3_resolution(c, e)
        for inc, proj in ((res.image.inclusion, res.quotient_map), (res.first, res.onto_image)):
            for level in range(1, c.n + 1):
                for degree in (0, 1):
                    got = connecting_iso(inc, proj, degree, level).matrix
                    assert got.dtype == np.int64
                    want = connecting_map_by_generators(inc, proj, degree, level)
                    assert np.array_equal(got, want)
                    nonzero += got.any()
    assert nonzero >= 4 * c.n
