"""Tate cohomology of Zp[G]-modules along the subgroup tower.

For the subgroup of order p^i generated by tau = sigma^(p^(n-i)), the
periodicity of cyclic groups leaves two groups per level:

  even degree:  ker(tau - 1) / image(subgroup norm)
  odd degree:   ker(subgroup norm) / image(tau - 1)

Both are finite.  All lattice work happens at the module's own
precision N, where the kernel of the boundary operator is a congruence
kernel: it picks up shadow directions of valuation N - g (the classic
symptom: a rank-one trivial module acquiring a fake class killed by
the norm).  Instead of chasing exactness, the denominator carries an
explicit noise-floor block p^(N-g) * identity that swallows every
shadow, and a margin check N - g >= level guarantees the block cannot
swallow a genuine class, since those all have order dividing p^level.
This stays correct even when the model's structure constants are
residues of p-adic numbers with no exact integer lift.

A group costs three eliminations, each keeping only the transforms it
reads: the boundary kernel system (column transform), its kernel, the
numerator Z, whose row transform gives Z coordinates of its own, and
the denominator in those coordinates (row transforms).  The boundary
image and the torsion lattice lie in Z, and the noise block enters cut
down to Z, so reducing a block of numerator columns is a product, a
divisibility test and a product.

The eliminations read only the configuration, the degree's parity,
the level and the model (moduli and sigma).  A model that splits into
contiguous diagonal blocks, as direct_sum builds them, has a block
diagonal kernel system, so its g is the largest over the blocks and
its group is the sum of the blocks' groups, each taken at the whole
model's floor N - g.  So eliminations are shared per block: a weak
table keyed on a block's content hands each new group the first two
eliminations of any live block with that key, and the third of any
with that key and floor; an entry goes when the last module using it
does.  Groups stay per module, each with its generators as one array in
its module's canonical coordinates, whose images a map reduces as one
block; maps between groups still compare groups by identity.

Restriction and corestriction are realized on representatives.  With
nu(j, i) the sum of sigma^(t * p^(n-j)) over 0 <= t < p^(j-i), i.e. the
coset sum of the level-i subgroup inside the level-j one:

  even:  res = identity on representatives, cor = multiply by nu
  odd:   res = multiply by nu,               cor = identity

These satisfy cor after res = p^(j-i) and res after cor = action of nu.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from . import linalg
from .arith import GroupRingElement, sigma_power, subgroup_norm
from .config import GroupConfig
from .errors import CyclomodError, PrecisionExhausted, PreconditionViolated
from .modules import ElementVector, ModuleHom, PresentedModule, _canon_rows, _torsion_columns

__all__ = [
    "TateGroup",
    "CohomMap",
    "tate",
    "restriction",
    "corestriction",
    "induced_map",
    "connecting_iso",
    "coset_sum",
    "is_cohomologically_trivial",
]


class _Boundary:
    """Eliminations 1 and 2 of one diagonal block of a model: the largest
    divisor g of its boundary kernel system, and the Smith form zsm of its
    numerator Z = span(ker), whose basis is left_inv[:, i] p^(e_i), i < r."""

    def __init__(self, ctx: linalg.Context, a_mat, b_mat, tc):
        self.ctx, self.den = ctx, linalg.hstack(ctx, [b_mat, tc])
        # Elimination 1, the boundary kernel: only right and dvals are read.
        ksys = linalg.hstack(ctx, [a_mat, (-tc) % ctx.modulus])
        ksm = linalg.smith(ctx, ksys, rows=False)
        self.g = max(ksm.dvals, default=0)
        ker = linalg.kernel_cols(ctx, ksys, sm=ksm)[: len(b_mat), :]
        self.zsm = linalg.smith(ctx, ker, cols=False)


class _TateCore:
    """A Tate group of one block at a given floor: its invariants, the
    generators' model coordinates and the two transforms reduce() applies."""

    def __init__(self, bd: _Boundary, floor: int, level: int):
        # The boundary stays in the shared table while this core lives.
        self.boundary, self.ctx = bd, bd.ctx
        ctx, zsm, m, p = bd.ctx, bd.zsm, len(bd.den), bd.ctx.p
        e, r = zsm.dvals, len(zsm.dvals)
        # coords() accepts Z + p^floor, as the noise block does; Z's
        # divisors stay unreduced (p^N if g = 0).
        self.left, self.scale = zsm.left, np.array([p**v for v in e], dtype=ctx.dtype)[:, None]
        tol = [p ** min(v, floor) for v in e] + [p**floor] * (m - r)
        self.tolerance = np.array(tol, dtype=ctx.dtype)[:, None]
        den = self.coords(bd.den)
        if den is None:
            raise CyclomodError("denominator leaves the numerator: not a module at this precision")
        # Elimination 3, the relations on Z's coordinates: the denominator,
        # and the noise block cut down to Z, diag(p^max(0, floor - e_i)).
        cut = np.diag(np.array([p ** max(0, floor - v) for v in e], dtype=ctx.dtype))
        sm = linalg.smith(ctx, linalg.hstack(ctx, [den, cut]), cols=False)
        if len(sm.dvals) < r:
            raise CyclomodError(
                "cohomology subquotient came out infinite; this indicates "
                "an internal inconsistency"
            )
        slots = [(k, v) for k, v in enumerate(sm.dvals) if v > 0]
        if any(v > level for _, v in slots):
            raise CyclomodError(
                "cohomology invariant exceeds the subgroup order; "
                "working precision is too low for this module"
            )
        slots.sort(key=lambda kv: -kv[1])
        self.invariants = tuple(v for _, v in slots)
        picked = [k for k, _ in slots]
        self.rows = sm.left[picked, :]
        gens = (sm.left_inv[:, picked] * self.scale) % ctx.modulus
        self.generator_matrix = linalg.matmul(ctx, zsm.left_inv[:, :r], gens)

    def coords(self, x: np.ndarray) -> np.ndarray | None:
        """(left x)_i / p^(e_i), the Z coordinates of the columns of x, or
        None when a column is outside Z + p^floor."""
        y = linalg.matmul(self.ctx, self.left, x)
        if (y % self.tolerance).any():
            return None
        return y[: len(self.scale)] // self.scale


class _SumCore:
    """The core of a block-diagonal model from one core per block:
    invariants merged largest first, each generator its block's padded
    with zeros, coords() block by block and rows block diagonal."""

    def __init__(self, parts, bounds):
        self.parts, self.bounds, self.ctx = parts, bounds, parts[0].ctx
        slots = sorted((-v, b, k) for b, c in enumerate(parts) for k, v in enumerate(c.invariants))
        self.invariants = tuple(-v for v, _, _ in slots)
        offsets = np.cumsum([0] + [len(c.scale) for c in parts])
        self.rows = linalg.zeros(self.ctx, len(slots), offsets[-1])
        self.generator_matrix = linalg.zeros(self.ctx, bounds[-1], len(slots))
        for i, (_, b, k) in enumerate(slots):
            self.rows[i, offsets[b] : offsets[b + 1]] = parts[b].rows[k]
            self.generator_matrix[bounds[b] : bounds[b + 1], i] = parts[b].generator_matrix[:, k]

    def coords(self, x: np.ndarray) -> np.ndarray | None:
        zs = [c.coords(x[lo:hi]) for c, lo, hi in zip(self.parts, self.bounds, self.bounds[1:])]
        return None if any(z is None for z in zs) else np.concatenate(zs)


# Every boundary and core alive in the process, keyed on what they read.
_cores = weakref.WeakValueDictionary()


def _block_bounds(sigma: np.ndarray) -> list:
    """0 and the end of each contiguous diagonal block of sigma, finest first."""
    m = len(sigma)
    linked = (sigma != 0) | (sigma.T != 0) | np.eye(m, dtype=bool)
    reach = np.maximum.accumulate((linked * np.arange(m)).max(axis=1, initial=0))
    return [0, *((np.flatnonzero(reach == np.arange(m)) + 1).tolist() or [0])]


def _core(module: PresentedModule, degree: int, level: int):
    cfg, sigma, moduli = module.cfg, module.sigma_matrix, module.moduli
    # Guard zero: pivot decisions at any valuation below N are taken at
    # face value: the margin check N - g >= level (module docstring), not
    # the pivot guard, settles honesty.  A block-diagonal model's kernel
    # system is block diagonal too, so g is the largest over the blocks,
    # and every block's core is taken at that one floor.
    ctx = linalg.Context(cfg.p, cfg.precision, 0)
    bounds, ops, bds = _block_bounds(sigma), (), []
    for lo, hi in zip(bounds, bounds[1:]):
        block = sigma[lo:hi, lo:hi]
        # tobytes() of an object array holds pointers, not the integers.
        content = block.tobytes() if block.dtype == np.int64 else tuple(map(int, block.ravel()))
        key = (cfg, degree, level, moduli[lo:hi], content)
        bd = _cores.get(key)
        if bd is None:
            if not ops:  # the boundary pair on the whole model, sliced per block
                tau_1 = module.act_matrix(sigma_power(cfg, cfg.p ** (cfg.n - level)))
                tau_1 = (tau_1 - linalg.eye(ctx, len(sigma))) % ctx.modulus
                nm = module.act_matrix(subgroup_norm(cfg, level))
                ops = (tau_1, nm) if degree % 2 == 0 else (nm, tau_1)
            a_mat, b_mat = (x[lo:hi, lo:hi] for x in ops)
            bd = _cores[key] = _Boundary(ctx, a_mat, b_mat, _torsion_columns(ctx, moduli[lo:hi]))
        bds.append((key, bd))
    g = max(bd.g for _, bd in bds)
    floor = cfg.precision - g
    if floor < level:
        raise PrecisionExhausted(
            f"boundary kernel has an elementary divisor of valuation {g} "
            f"at precision {cfg.precision}, leaving no room below the noise "
            f"floor for classes of order up to p^{level}; needed N >= {g + level}"
        )
    parts = []
    for key, bd in bds:
        core = _cores.get((key, floor))
        if core is None:
            core = _cores[key, floor] = _TateCore(bd, floor, level)
        parts.append(core)
    return parts[0] if len(parts) == 1 else _SumCore(parts, bounds)


class TateGroup:
    """A Tate cohomology group with explicit generators and reduction.

    invariants lists the exponents e of the Z/p^e cyclic summands,
    largest first; column k of generator_matrix holds the canonical
    model coordinates of the k-th summand's generator, and generators
    makes the columns module elements when first read; reduce() rewrites
    a numerator representative as coordinates with respect to the
    summands.  The eliminations live in cores shared per diagonal block.
    """

    def __init__(self, module: PresentedModule, degree: int, level: int):
        self.module = module
        self.degree = degree
        self.level = level
        if level == 0:
            self.invariants = ()
            self.generator_matrix = linalg.zeros(module.ctx, module.model_dim, 0)
            return
        self._core = _core(module, degree, level)
        self.invariants = self._core.invariants
        self.generator_matrix = _canon_rows(module.ctx, self._core.generator_matrix, module.moduli)

    @cached_property
    def generators(self) -> list:
        return [self.module.element_from_model_coords(c) for c in self.generator_matrix.T]

    def is_trivial(self) -> bool:
        return not self.invariants

    def _classes(self, cols: np.ndarray) -> np.ndarray:
        """Summand coordinates of a block of model columns, one int64 column
        each; PreconditionViolated if a column is outside the numerator."""
        if self.level == 0:
            return np.zeros((0, cols.shape[1]), dtype=np.int64)
        core, module = self._core, self.module
        z = core.coords(_canon_rows(module.ctx, cols, module.moduli))
        if z is None:
            raise PreconditionViolated(
                "element is not in the numerator of this cohomology group"
            )
        y = linalg.matmul(core.ctx, core.rows, z)
        orders = np.array([module.cfg.p**f for f in self.invariants], dtype=y.dtype)
        return (y % orders[:, None]).astype(np.int64)

    def reduce(self, elt: ElementVector) -> tuple:
        """Coordinates of a numerator element with respect to the summands.

        Raises PreconditionViolated if the element does not represent a
        class (is not killed by the relevant operator).
        """
        if self.level and elt.module is not self.module:
            raise ValueError("element belongs to a different module")
        return tuple(map(int, self._classes(elt.column())[:, 0]))

    def __repr__(self) -> str:
        p = self.module.cfg.p
        parts = " + ".join(f"Z/{p}^{e}" if e > 1 else f"Z/{p}" for e in self.invariants)
        return (
            f"TateGroup(degree {self.degree}, level {self.level}: "
            f"{parts if parts else '0'})"
        )


def coset_sum(cfg: GroupConfig, upper: int, lower: int) -> GroupRingElement:
    """Sum of sigma^(t * p^(n-upper)) over t < p^(upper-lower).

    One group-ring element per coset of the level-``lower`` subgroup in
    the level-``upper`` one; multiplying by it realizes corestriction in
    even degree and restriction in odd degree.
    """
    if not 0 <= lower <= upper <= cfg.n:
        raise PreconditionViolated(
            f"need 0 <= lower <= upper <= {cfg.n}, got {lower}, {upper}"
        )
    vals = [0] * cfg.order
    step = cfg.p ** (cfg.n - upper)
    for t in range(cfg.p ** (upper - lower)):
        vals[(t * step) % cfg.order] += 1
    return GroupRingElement(cfg, vals)


def tate(module: PresentedModule, degree: int, level: int | None = None) -> TateGroup:
    """Tate cohomology of the level subgroup (default: the whole group).

    Cohomology of a cyclic group is periodic with period 2, so only the
    parity of the degree matters; results are cached per module, which
    also makes repeated map constructions composable.  The eliminations
    behind a group are shared weakly per diagonal block of the model, at
    the whole model's floor, so a second module with the same model
    eliminates nothing and a direct sum only its blocks not seen yet.
    """
    if level is None:
        level = module.cfg.n
    if not 0 <= level <= module.cfg.n:
        raise ValueError(f"subgroup level {level} outside [0, {module.cfg.n}]")
    key = (degree % 2, level)
    cached = module._tate_cache.get(key)
    if cached is None:
        cached = TateGroup(module, degree % 2, level)
        module._tate_cache[key] = cached
    return cached


class CohomMap:
    """A homomorphism between Tate groups, stored on summand coordinates."""

    def __init__(self, source: TateGroup, target: TateGroup, matrix: np.ndarray):
        self.source = source
        self.target = target
        self.matrix = canon_map_matrix(matrix, target.module.cfg.p, target.invariants)

    @classmethod
    def from_representative_matrix(
        cls, source: TateGroup, target: TateGroup, rep_matrix: np.ndarray
    ) -> "CohomMap":
        """Build the induced map from a matrix acting on module models.

        The matrix must send the source numerator into the target
        numerator; PreconditionViolated is raised otherwise.
        """
        if source.is_trivial():
            return cls(source, target, np.zeros((len(target.invariants), 0), dtype=np.int64))
        images = linalg.matmul(target.module.ctx, rep_matrix, source.generator_matrix)
        return cls(source, target, target._classes(images))

    @classmethod
    def scalar(cls, group: TateGroup, c: int) -> "CohomMap":
        return cls(group, group, c * np.eye(len(group.invariants), dtype=np.int64))

    def compose(self, inner: "CohomMap") -> "CohomMap":
        if inner.target is not self.source:
            raise ValueError("composition mismatch")
        prod = _product(self.matrix, inner.matrix, self.target.module.cfg.p, self.target.invariants)
        return CohomMap(inner.source, self.target, prod)

    def is_isomorphism(self) -> bool:
        if sorted(self.source.invariants) != sorted(self.target.invariants):
            return False
        size = len(self.source.invariants)
        if size == 0:
            return True
        return linalg.rank_mod_p(self.target.module.cfg.p, self.matrix) == size

    def __eq__(self, other):
        return (
            isinstance(other, CohomMap)
            and other.source is self.source
            and other.target is self.target
            and np.array_equal(other.matrix, self.matrix)
        )

    def __repr__(self) -> str:
        return f"CohomMap({self.source} -> {self.target})"


def canon_map_matrix(matrix, p: int, exps) -> np.ndarray:
    """A map into the finite group with cyclic summand exponents exps, as
    an int64 matrix whose row r is reduced mod p^exps[r]."""
    mat = np.array(matrix, dtype=np.int64)
    if mat.ndim != 2 or mat.shape[0] != len(exps):
        raise ValueError("map matrix has wrong shape")
    for r, f in enumerate(exps):
        mat[r, :] %= p**f
    return mat


def _product(x, y, p: int, exps) -> np.ndarray:
    """x y mod p^max(exps) by linalg.matmul, row r then reduced mod p^exps[r]."""
    ctx = linalg.Context(p, max(exps, default=0), 0)
    return canon_map_matrix(linalg.matmul(ctx, linalg.mat(ctx, x), linalg.mat(ctx, y)), p, exps)


def restriction(
    module: PresentedModule, degree: int, from_level: int, to_level: int
) -> CohomMap:
    """Restriction from the level-j group down to a level-i subgroup."""
    cfg = module.cfg
    if not 0 <= to_level <= from_level <= cfg.n:
        raise PreconditionViolated("restriction goes from a group to a subgroup")
    src = tate(module, degree, from_level)
    tgt = tate(module, degree, to_level)
    if degree % 2 == 0:
        rep = linalg.eye(module.ctx, module.model_dim)
    else:
        rep = module.act_matrix(coset_sum(cfg, from_level, to_level))
    return CohomMap.from_representative_matrix(src, tgt, rep)


def corestriction(
    module: PresentedModule, degree: int, from_level: int, to_level: int
) -> CohomMap:
    """Corestriction (transfer) from a level-i subgroup up to level j."""
    cfg = module.cfg
    if not 0 <= from_level <= to_level <= cfg.n:
        raise PreconditionViolated("corestriction goes from a subgroup to a group")
    src = tate(module, degree, from_level)
    tgt = tate(module, degree, to_level)
    if degree % 2 == 0:
        rep = module.act_matrix(coset_sum(cfg, to_level, from_level))
    else:
        rep = linalg.eye(module.ctx, module.model_dim)
    return CohomMap.from_representative_matrix(src, tgt, rep)


def induced_map(hom: ModuleHom, degree: int, level: int | None = None) -> CohomMap:
    """The map on Tate groups induced by a module homomorphism."""
    if level is None:
        level = hom.source.cfg.n
    src = tate(hom.source, degree, level)
    tgt = tate(hom.target, degree, level)
    return CohomMap.from_representative_matrix(src, tgt, hom.matrix)


def is_cohomologically_trivial(module: PresentedModule) -> bool:
    """True when every Tate group at every level vanishes.

    For a cyclic p-group both parities at each subgroup level are
    checked outright.
    """
    for level in range(1, module.cfg.n + 1):
        for degree in (0, 1):
            if not tate(module, degree, level).is_trivial():
                return False
    return True


def connecting_iso(
    inc: ModuleHom, proj: ModuleHom, degree: int, level: int | None = None
) -> CohomMap:
    """Degree-raising connecting map of a short exact sequence.

    For 0 -> A -> B -> C -> 0 with B having trivial cohomology at the
    requested level, the long exact sequence collapses and the
    connecting map is an isomorphism from the degree-d group of C to
    the degree-(d+1) group of A.  It is computed on representatives:
    lift a cocycle along proj, apply the boundary operator of the
    target parity (tau - 1 into odd degree, the subgroup norm into
    even), pull the result back along inc.

    The caller is responsible for exactness of the sequence; proj o inc
    is checked to vanish, and the middle term's cohomology must vanish
    at the level in both parities or PreconditionViolated is raised.
    Lifts are exact only mod p^N, so a headroom check refuses
    configurations where solve denominators could reach the class
    coordinates; PrecisionExhausted then asks for a higher precision.
    """
    mid = proj.source
    if inc.target is not mid:
        raise ValueError("inc and proj do not share the middle module")
    cfg = mid.cfg
    if level is None:
        level = cfg.n
    if not proj.compose(inc).is_zero_map():
        raise PreconditionViolated("proj o inc does not vanish")
    for parity in (0, 1):
        if not tate(mid, parity, level).is_trivial():
            raise PreconditionViolated(
                "middle module has nontrivial cohomology at this level; "
                "the connecting map need not be an isomorphism"
            )
    a_mod, c_mod = inc.source, proj.target
    src = tate(c_mod, degree, level)
    tgt = tate(a_mod, degree + 1, level)
    ctx = mid.ctx
    step = cfg.p ** (cfg.n - level)
    if degree % 2 == 0:
        op = (mid.act_matrix(sigma_power(cfg, step)) - linalg.eye(ctx, mid.model_dim)) % ctx.modulus
    else:
        op = mid.act_matrix(subgroup_norm(cfg, level))
    lift_sys = linalg.hstack(ctx, [proj.matrix, c_mod.torsion_column_matrix()])
    pull_sys = linalg.hstack(ctx, [inc.matrix, mid.torsion_column_matrix()])
    sm_lift = linalg.smith(ctx, lift_sys)
    sm_pull = linalg.smith(ctx, pull_sys)
    worst = max([0, *sm_lift.dvals, *sm_pull.dvals])
    if worst + level + ctx.guard >= cfg.precision:
        raise PrecisionExhausted(
            "solve denominators leave too little headroom for the class "
            "coordinates; raise the working precision"
        )
    images = linalg.zeros(ctx, a_mod.model_dim, len(src.invariants))
    for j in range(len(src.invariants)):
        lifted = linalg.solve(ctx, lift_sys, src.generator_matrix[:, j : j + 1], sm=sm_lift)
        if lifted is None:
            raise PreconditionViolated("proj misses a cohomology representative")
        moved = linalg.matmul(ctx, op, lifted[: mid.model_dim, :])
        pulled = linalg.solve(ctx, pull_sys, moved, sm=sm_pull)
        if pulled is None:
            raise PreconditionViolated(
                "boundary of a lifted representative escapes the image of inc"
            )
        images[:, j] = pulled[: a_mod.model_dim, 0]
    return CohomMap(src, tgt, tgt._classes(images))
