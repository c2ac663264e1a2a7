"""Isomorphism testing for small presented modules, by direct search.

The hom space between two presented modules is a finitely generated
Zp-module, and a spanning set of it mod p^N can be computed outright:
a hom is fixed by the images of the source's minimal generators, and
those images are exactly the tuples of target elements that kill the
source's relations, one linear system with g m2 unknowns (g generators,
m2 the target's model size).  Once a spanning set is in hand, deciding
isomorphism reduces to finding one member that is invertible, and
invertibility over a local ring only depends on the matrix mod p.
That gives the search its shape:

  * cheap invariant comparisons first (underlying group, cohomology),
    any mismatch being a definitive negative;
  * then linalg.search_invertible over the spanning set (shared with the
    diagram search in yakovlev), each candidate verified by an honest
    two-sided inverse check: a full enumeration of a low-dimensional
    mod-p image makes a negative answer definitive as well, while
    seeded sampling of a larger one ends in Undecided on exhaustion.

Stable isomorphism needs no padding.  Krull-Schmidt holds for
Zp[G]-lattices (Zp is complete and Zp[G] is local, so Zp[G] is
indecomposable; Curtis and Reiner, Methods of Representation Theory I,
section 6), so free summands cancel: with M' and N' without free
summands, M' + Zp[G]^a = N' + Zp[G]^b exactly when a = b and M' = N'.
Both sides are stripped of their free summands, each found by a norm
test without a hom space (krull_schmidt_note), and one search compares
the complements at the stripped size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .arith import norm_element
from .cohomology import tate
from .config import IsoSearchConfig
from .errors import IllDefinedHom, NotAUnit, PrecisionExhausted, PreconditionViolated
from .modules import (
    ModuleHom,
    PresentedModule,
    _canon_rows,
    _Model,
    _orbits,
    free_module,
    kernel_of,
    minimal_generators,
)
from .verdicts import NotIsomorphic, NotStablyIsomorphic, Undecided

__all__ = [
    "Iso",
    "StableIso",
    "FreeSummandReport",
    "hom_space_basis",
    "modules_isomorphic",
    "stably_isomorphic",
    "krull_schmidt_note",
]


@dataclass(frozen=True)
class Iso:
    """A verified isomorphism with its verified inverse."""

    forward: ModuleHom
    inverse: ModuleHom

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class StableIso:
    """Isomorphism after padding: first + pad_first free = second + pad_second free.

    iso relates the complements of the free summands of first and second
    (krull_schmidt_note), not the padded modules.
    """

    pad_first: int
    pad_second: int
    iso: Iso

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class FreeSummandReport:
    """How many free rank-one summands split off, and what remains."""

    free_rank: int
    complement: PresentedModule


def hom_space_basis(source: PresentedModule, target: PresentedModule) -> list:
    """Matrices spanning Hom(source, target) as a module mod p^N.

    A hom is fixed by the images y_1..y_g of the source's minimal
    generators.  With E = [sigma1^k u_j] their orbits, the relations
    are the kappa with E kappa in the source's torsion lattice, and y is
    a hom when each sum_(j,k) kappa[j d + k] sigma2^k y_j dies in the
    target; row r is scaled by p^N / q_r so that one congruence mod p^N
    stands for one mod the target modulus q_r.  Both kernels are
    congruence kernels at guard 0: hom matrices are used mod p^N only,
    so residues of any valuation are legitimate here.  The matrix X of
    a solution has X E = [sigma2^k y_j]; the columns P of E independent
    mod p are m1 in number (the generators span M/pM), so X is
    [sigma2^k y_j]_P E_P^-1.  Solutions that are the zero hom are dropped.
    """
    if source.cfg != target.cfg:
        raise PreconditionViolated("hom spaces need matching group parameters")
    m1, m2 = source.model_dim, target.model_dim
    if m1 == 0 or m2 == 0:
        return []
    cfg = source.cfg
    ctx = linalg.Context(cfg.p, cfg.precision, 0)
    d = cfg.order
    gens = [u.column() for u in minimal_generators(source)]
    g = len(gens)
    orbits = _orbits(ctx, source.sigma_matrix, gens, d)
    rel = linalg.kernel_cols(ctx, linalg.hstack(ctx, [orbits, source.torsion_column_matrix()]))
    powers = target._powers
    kappa = rel[: g * d].reshape(g, d, -1).transpose(1, 0, 2).reshape(d, -1)
    # blocks[i, r, j, c]: entry (r, c) of relation i's block for generator j.
    blocks = linalg.matmul(ctx, powers.reshape(m2 * m2, d), kappa)
    blocks = blocks.reshape(m2, m2, g, -1).transpose(3, 0, 2, 1)
    scale = [1 if q is None else ctx.modulus // q for q in target.moduli]
    scale = np.array(scale, dtype=ctx.dtype)[None, :, None, None]
    system = (blocks * scale).reshape(-1, g * m2) % ctx.modulus
    ys = linalg.kernel_cols(ctx, system).reshape(g, m2, -1)
    pivots = np.array(linalg.pivot_cols_mod_p(cfg.p, orbits))
    # One product per generator j, of its pivots' blocks sigma2^t stacked (one j at a time).
    by_power = powers.transpose(2, 0, 1)
    stacks = (by_power[pivots[pivots // d == j] % d].reshape(-1, m2) for j in range(g))
    images = np.concatenate([linalg.matmul(ctx, s, y) for s, y in zip(stacks, ys)])
    images = images.reshape(len(pivots), m2, -1).transpose(2, 1, 0).reshape(-1, m1)
    homs = linalg.matmul(ctx, images, linalg.invert(ctx, orbits[:, pivots])).reshape(-1, m2, m1)
    basis = [_canon_rows(ctx, x, target.moduli) for x in homs]
    return [x for x in basis if not linalg.is_zero(x)]


def _verify_iso(source, target, x):
    """Promote a candidate matrix to an Iso, or return None.

    The candidate must be a well-defined hom, surjective mod p (which
    by Nakayama makes it surjective, and with equal invariants
    bijective); the inverse residue is computed and both compositions
    are checked against the identity.
    """
    m2 = target.model_dim
    if linalg.rank_mod_p(source.cfg.p, x) != m2:
        return None
    try:
        fwd = ModuleHom(source, target, x)
    except IllDefinedHom:
        return None
    try:
        xi = linalg.invert(target.ctx, np.array(x, dtype=target.ctx.dtype))
    except NotAUnit:
        return None
    try:
        inv = ModuleHom(target, source, xi)
    except IllDefinedHom:
        return None
    ident_s = ModuleHom(source, source, linalg.eye(source.ctx, source.model_dim), check=False)
    ident_t = ModuleHom(target, target, linalg.eye(target.ctx, m2), check=False)
    if not np.array_equal(inv.compose(fwd).matrix, ident_s.matrix):
        return None
    if not np.array_equal(fwd.compose(inv).matrix, ident_t.matrix):
        return None
    return Iso(fwd, inv)


def _at_config(module: PresentedModule, cfg) -> PresentedModule:
    """The module's model re-normalized at a coarser config of its group."""
    if module.cfg == cfg:
        return module
    deep = [e for e in module.torsion_invariants() if e >= cfg.precision - cfg.guard]
    if deep:
        raise PrecisionExhausted(
            f"torsion exponent {max(deep)} does not fit below the guard band "
            f"at precision {cfg.precision}; needed N >= {max(deep) + cfg.guard + 1}"
        )
    ctx = linalg.context_of(cfg)
    sigma = np.array(module.sigma_matrix % cfg.modulus, dtype=ctx.dtype)
    return PresentedModule._from_model(cfg, _Model(module.moduli, sigma))


def _tate_mismatch(m1: PresentedModule, m2: PresentedModule):
    """First (level, degree, t1, t2) whose Tate groups differ, or None."""
    for level in range(1, m1.cfg.n + 1):
        for degree in (0, 1):
            t1 = tate(m1, degree, level)
            t2 = tate(m2, degree, level)
            if sorted(t1.invariants) != sorted(t2.invariants):
                return level, degree, t1, t2
    return None


def modules_isomorphic(m1: PresentedModule, m2: PresentedModule, search=None):
    """Iso, NotIsomorphic, or Undecided for two presented modules.

    Modules over the same group at different precisions are compared at
    the lower one: the finer model is re-normalized there, and an Iso
    then relates the coarser-precision models.  Invariant screens
    (underlying abelian group, Tate groups at every level and parity)
    decide most negatives outright.  Otherwise candidates from the hom
    space are tried; if the mod-p image of the hom space has dimension
    at most search.enumeration_bound it is enumerated exhaustively, so a
    negative is again definitive.  Random sampling past that point can
    only produce Iso or Undecided.
    """
    if search is None:
        search = IsoSearchConfig()
    if (m1.cfg.p, m1.cfg.n) != (m2.cfg.p, m2.cfg.n):
        return NotIsomorphic("group-ring parameters differ")
    cfg = min(m1.cfg, m2.cfg, key=lambda c: c.precision)
    m1, m2 = _at_config(m1, cfg), _at_config(m2, cfg)
    if m1.invariant_summary() != m2.invariant_summary():
        return NotIsomorphic(
            f"underlying groups differ: {m1.invariant_summary()} vs "
            f"{m2.invariant_summary()}"
        )
    mismatch = _tate_mismatch(m1, m2)
    if mismatch:
        level, degree, t1, t2 = mismatch
        return NotIsomorphic(
            f"cohomology differs at level {level}, degree {degree}: "
            f"{t1.invariants} vs {t2.invariants}"
        )
    return _search_iso(m1, m2, search)


def _search_iso(m1: PresentedModule, m2: PresentedModule, search):
    """The search part of modules_isomorphic, without the screens."""
    m = m1.model_dim
    if m == 0:
        empty = linalg.zeros(m1.ctx, 0, 0)
        h = ModuleHom(m1, m2, empty, check=False)
        hi = ModuleHom(m2, m1, empty, check=False)
        return Iso(h, hi)
    basis = hom_space_basis(m1, m2)
    if not basis:
        return NotIsomorphic("hom space is zero")
    first = (linalg.eye(m1.ctx, m),) if m == m2.model_dim else ()
    found = linalg.search_invertible(
        basis, m2.ctx.modulus, m1.cfg.p, lambda x: _verify_iso(m1, m2, x), search, first
    )
    if not isinstance(found, linalg.SearchMiss):
        return found
    if found.enumerated:
        return NotIsomorphic(
            "no member of the hom space is invertible mod p "
            f"(enumerated all {m1.cfg.p}**{found.rank} mod-p classes)"
        )
    return Undecided(
        f"no isomorphism found in {search.max_samples} samples over a hom "
        f"space with more than {search.enumeration_bound} mod-p directions"
    )


def stably_isomorphic(m1: PresentedModule, m2: PresentedModule, search=None):
    """StableIso, NotStablyIsomorphic, or Undecided for torsion-free modules.

    Padding cannot change cohomology or the rank mod the group order,
    so mismatches there are definitive negatives.  Else both sides lose
    their free summands, s1 and s2 of them, however many, and by
    Krull-Schmidt cancellation the complements decide: different ranks
    are a definitive negative, else the search of modules_isomorphic
    without its screens, whose budget alone can leave the pair Undecided.
    The pads are (max(0, s2 - s1), max(0, s1 - s2)).
    """
    if search is None:
        search = IsoSearchConfig()
    if not m1.is_torsion_free() or not m2.is_torsion_free():
        raise PreconditionViolated("stable comparison is defined for torsion-free modules")
    if m1.cfg != m2.cfg:
        return NotStablyIsomorphic("group-ring parameters differ")
    d = m1.cfg.order
    r1, r2 = m1.zp_rank(), m2.zp_rank()
    if (r1 - r2) % d != 0:
        return NotStablyIsomorphic(
            f"rank difference {r1 - r2} is not a multiple of the group order {d}"
        )
    mismatch = _tate_mismatch(m1, m2)
    if mismatch:
        level, degree = mismatch[:2]
        return NotStablyIsomorphic(
            f"cohomology differs at level {level}, degree {degree}; "
            "free padding cannot change it"
        )
    k1, k2 = krull_schmidt_note(m1), krull_schmidt_note(m2)
    c1, c2 = k1.complement, k2.complement
    if c1.zp_rank() != c2.zp_rank():
        ranks = f"{c1.zp_rank()} and {c2.zp_rank()}"
        return NotStablyIsomorphic(f"the complements of the free summands have ranks {ranks}")
    a, b = max(0, k2.free_rank - k1.free_rank), max(0, k1.free_rank - k2.free_rank)
    res = _search_iso(c1, c2, search)
    if isinstance(res, Iso):
        return StableIso(a, b, res)
    if isinstance(res, NotIsomorphic):
        return NotStablyIsomorphic(
            f"padding ({a}, {b}) gives non-isomorphic modules ({res.reason}); "
            "by Krull-Schmidt cancellation of free summands no other "
            "padding can succeed"
        )
    return Undecided(f"the complements of the free summands are inconclusive: {res.reason}")


def krull_schmidt_note(module: PresentedModule) -> FreeSummandReport:
    """Split off free rank-one summands until none remain.

    The group ring Lambda is self-dual: Hom(M, Lambda) -> Hom(M, Zp),
    rho -> (coefficient of 1 in rho), has inverse f -> rho_f(x) =
    sum_g f(g^-1 x) g, and the augmentation of rho_f(x) is f(N x), N the
    norm.  A hom to Lambda splits off a free summand exactly when it is
    onto, by Nakayama exactly when its augmentation is a unit somewhere.
    The f kill torsion, so the free coordinates' functionals span them:
    M has a free summand exactly when a free coordinate's row i of N's
    matrix holds a unit mod p, and then rho_f for f = e_i^* has row i of
    sigma^(d - t) as its row t.  A negative answer is definitive.
    """
    cfg = module.cfg
    lam = free_module(cfg, 1, names=["f"])
    back = -np.arange(cfg.order) % cfg.order
    free_rank, current = 0, module
    while True:
        free = [i for i, q in enumerate(current.moduli) if q is None]
        hits = np.argwhere(current.act_matrix(norm_element(cfg))[free] % cfg.p)
        if not len(hits):
            return FreeSummandReport(free_rank, current)
        rho = current._powers[free[hits[0][0]]][:, back].T
        current = kernel_of(ModuleHom(current, lam, rho)).module
        free_rank += 1
