"""Finitely presented modules over L = Zp[G], G cyclic of order p^n.

A module is described by generators and L-linear relations, stored as
one read-only integer array of shape (r, k, d), d = p^n: entry
[rho, g, t] is the coefficient of sigma^t on generator g in relation
rho, a residue mod p^N.  Internally every module also carries a
normalized coordinate model: a minimal list of Zp-coordinates, each
either free or killed by an exact power of p, together with the matrix
of the generator sigma in those coordinates.
All computation (sums, kernels, quotients, fixed points, cohomology)
happens at model scale.  A group-ring element acts through a table of
sigma^0..sigma^(d-1) on the model (d m^2 entries for m coordinates),
built on a module's first use and shared with the model columns of a
module built from its model.

A module given by a user presentation is normalized once, by Smith
elimination of its expanded relation lattice.  Every derived module is
built from a lattice in the model of an existing one: a submodule is
(span of its generators' sigma-orbits + torsion lattice) / torsion
lattice, eliminated at the ambient's model size on the generators alone
when their span is exactly sigma-stable; kernels and fixed points are
generated by saturated kernel vectors, pivot-free directions of a Smith
form, so congruence shadows of valuation N - d never enter a structural
lattice.  A derived module is its model; its relation array is
synthesized on first read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .arith import GroupRingElement, sigma_power
from .config import GroupConfig
from .errors import IllDefinedHom, PrecisionExhausted, PreconditionViolated

__all__ = [
    "PresentedModule",
    "ElementVector",
    "ModuleHom",
    "Submodule",
    "DirectSum",
    "Quotient",
    "free_module",
    "trivial_module",
    "zp_trivial",
    "augmentation_ideal",
    "submodule_from_elements",
    "direct_sum",
    "quotient_by_image",
    "descend_to_quotient",
    "quotient_group_module",
    "kernel_of",
    "fixed_points",
    "minimal_generators",
    "free_cover",
    "is_injective",
    "is_surjective",
    "is_exact",
    "identity_hom",
    "scalar_action_hom",
]


@dataclass(frozen=True)
class _Model:
    """Normalized Zp-coordinates: moduli[i] is p^d for torsion, None if free."""

    moduli: tuple
    sigma: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.moduli)


def _canon_rows(ctx: linalg.Context, a: np.ndarray, moduli) -> np.ndarray:
    out = a % ctx.modulus
    for i, m in enumerate(moduli):
        if m is not None:
            out[i, :] = out[i, :] % m
    return out


def _canon_vec(ctx: linalg.Context, v, moduli) -> tuple:
    # A torsion modulus p^e divides p^N, so one reduction by it suffices.
    mod, v = ctx.modulus, v.tolist() if isinstance(v, np.ndarray) else list(v)
    return tuple(int(v[i]) % (q or mod) for i, q in enumerate(moduli))


def _torsion_columns(ctx: linalg.Context, moduli) -> np.ndarray:
    idx = [i for i, q in enumerate(moduli) if q is not None]
    t = linalg.zeros(ctx, len(moduli), len(idx))
    for c, i in enumerate(idx):
        t[i, c] = moduli[i]
    return t


def _coerce_ring(cfg: GroupConfig, value) -> GroupRingElement:
    if isinstance(value, GroupRingElement):
        if value.cfg != cfg:
            raise ValueError("group ring element belongs to a different group")
        return value
    if isinstance(value, int):
        vals = [0] * cfg.order
        vals[0] = value
        return GroupRingElement(cfg, vals)
    return GroupRingElement(cfg, list(value))


class PresentedModule:
    """A Zp[G]-module given by generators and relations.

    relations is given as rows of k group-ring coefficients, one per
    generator (each a GroupRingElement, an int or a coefficient
    sequence), or as an (r, k, d) integer array; each row asserts that
    the corresponding combination vanishes.  It is stored as a read-only
    (r, k, d) array in the context dtype, entry [rho, g, t] the residue
    mod p^N of the coefficient of sigma^t on generator g in relation rho.
    A module built from a model (_derived) synthesizes them on first read.
    """

    def __init__(self, cfg: GroupConfig, gen_names, relations):
        self.cfg = cfg
        self.gen_names = tuple(str(g) for g in gen_names)
        k, d, ctx = len(self.gen_names), cfg.order, self.ctx
        if not isinstance(relations, np.ndarray):
            relations = [[_coerce_ring(cfg, c).values for c in row] for row in relations]
            for row in relations:
                if len(row) != k:
                    raise ValueError(f"relation has {len(row)} coefficients for {k} generators")
            relations = np.array(relations, dtype=object).reshape(len(relations), k, d)
        if relations.shape[1:] != (k, d):
            raise ValueError(f"relations must have shape (r, {k}, {d}), not {relations.shape}")
        # reduce in Python integers before any int64 cast; this attribute
        # shadows the relations property that derived modules read
        rel = relations if relations.dtype == ctx.dtype else relations.astype(object)
        self.relations = (rel % ctx.modulus).astype(ctx.dtype, copy=False)
        self.relations.flags.writeable = False
        self._tate_cache: dict = {}
        self._model, self._proj, self._lift = self._normalize()

    # -- construction ------------------------------------------------

    def _normalize(self):
        """Smith-reduce the expanded relation lattice to model coordinates.

        Relation rho contributes the columns rho d + t of its shifts
        sigma^t rho: entry (g d + u, rho d + t) is R[rho, g, (u - t) mod d].
        """
        ctx = self.ctx
        r, k, d = self.relations.shape
        u = np.arange(d)
        shifted = self.relations[:, :, (u[:, None] - u[None, :]) % d]
        rel = shifted.transpose(1, 2, 0, 3).reshape(k * d, r * d)
        # The block cyclic shift: sigma on the expanded coordinates.
        shift = np.kron(np.eye(k, dtype=np.int64), np.roll(np.eye(d, dtype=np.int64), 1, axis=0))
        return _quotient_model(ctx, rel, linalg.mat(ctx, shift))

    @classmethod
    def _derived(cls, cfg: GroupConfig, names, model: _Model, proj, lift):
        """The module on the named generators whose model was just built.

        proj maps the free module on the generators onto the model and lift
        is its right inverse; only the number of names is checked.
        """
        names = tuple(map(str, names))
        if len(names) * cfg.order != proj.shape[1]:
            raise ValueError(f"{len(names)} names for {proj.shape[1] // cfg.order} generators")
        module = cls.__new__(cls)
        module.cfg, module.gen_names, module._tate_cache = cfg, names, {}
        module._model, module._proj, module._lift = model, proj, lift
        return module

    @classmethod
    def _from_model(cls, cfg: GroupConfig, model: _Model, names=None):
        """The module on one generator per model coordinate.

        Its relations, the sigma-action rows and the torsion annihilators,
        are synthesized on first read.
        """
        ctx = linalg.context_of(cfg)
        m, d = model.dim, cfg.order
        if names is None:
            names = [f"x{i}" for i in range(m)]
        proj = _sigma_powers(ctx, model, d)
        lift = linalg.zeros(ctx, m * d, m)
        lift[np.arange(m) * d, np.arange(m)] = 1
        module = cls._derived(cfg, names, model, proj, lift)
        module._powers = proj.reshape(m, m, d)  # the same sigma^t e_i columns
        return module

    # -- structure ---------------------------------------------------

    @functools.cached_property
    def ctx(self) -> linalg.Context:
        return linalg.context_of(self.cfg)

    @property
    def model_dim(self) -> int:
        return self._model.dim

    @property
    def moduli(self) -> tuple:
        return self._model.moduli

    @property
    def sigma_matrix(self) -> np.ndarray:
        return self._model.sigma

    def zp_rank(self) -> int:
        return sum(1 for m in self._model.moduli if m is None)

    def torsion_invariants(self) -> tuple:
        """Exponents e of the Z/p^e summands, largest first."""
        ctx = self.ctx
        exps = [
            linalg.valuation_int(ctx, m)
            for m in self._model.moduli
            if m is not None
        ]
        return tuple(sorted(exps, reverse=True))

    def is_finite(self) -> bool:
        return self.zp_rank() == 0

    def is_torsion_free(self) -> bool:
        return not self.torsion_invariants()

    def is_zero(self) -> bool:
        return self.model_dim == 0

    def torsion_column_matrix(self) -> np.ndarray:
        """Columns p^d e_i for the torsion coordinates (the model lattice)."""
        return _torsion_columns(self.ctx, self.moduli)

    @functools.cached_property
    def _powers(self) -> np.ndarray:
        """The power table: entry [r, c, t] is entry (r, c) of sigma^t."""
        m, d = self.model_dim, self.cfg.order
        return _sigma_powers(self.ctx, self._model, d).reshape(m, m, d)

    @functools.cached_property
    def relations(self) -> np.ndarray:
        """The (r, k, d) relation array on generators y_j, from the model.

        Read lift column i as k group-ring elements g_i.  The rows say that
        y_j = sum_i proj[i, j p^n] g_i, that sigma g_i = sum_l sigma[l, i] g_l
        and that p^e g_i = 0 for each torsion coordinate.  They hold in the
        model, and they make e_i -> g_i a module map from the model onto the
        presented module; proj @ lift = 1 makes it injective, so these rows
        generate every relation.  Rows that vanish identically are dropped.
        """
        ctx, d, model = self.ctx, self.cfg.order, self._model
        k, m, lift = len(self.gen_names), model.dim, self._lift
        spell = -linalg.matmul(ctx, lift, self._proj[:, ::d])
        spell[::d] += linalg.eye(ctx, k)
        shifted = np.roll(lift.reshape(k, d, m), 1, axis=1).reshape(k * d, m)
        act = shifted - linalg.matmul(ctx, lift, model.sigma)
        tors = [lift[:, i] * q for i, q in enumerate(model.moduli) if q is not None]
        cols = np.concatenate([spell, act, *(t.reshape(-1, 1) for t in tors)], axis=1) % ctx.modulus
        rows = cols.T[(cols != 0).any(axis=0)].reshape(-1, k, d)
        rows.flags.writeable = False
        return rows

    def act_matrix(self, elt) -> np.ndarray:
        """Matrix of multiplication by a group-ring element on the model,
        sum_t c_t sigma^t: _powers (d m^2 entries) times the coefficients."""
        ctx, m, d = self.ctx, self.model_dim, self.cfg.order
        coeffs = np.array(_coerce_ring(self.cfg, elt).values, dtype=ctx.dtype).reshape(d, 1)
        out = linalg.matmul(ctx, self._powers.reshape(m * m, d), coeffs).reshape(m, m)
        return _canon_rows(ctx, out, self._model.moduli)

    # -- elements ----------------------------------------------------

    def zero(self) -> "ElementVector":
        return ElementVector(self, (0,) * self.model_dim)

    def element_from_model_coords(self, coords) -> "ElementVector":
        return ElementVector(self, coords)

    def generator(self, index: int) -> "ElementVector":
        d = self.cfg.order
        return self.element_from_model_coords(self._proj[:, index * d])

    def generator_elements(self) -> list:
        return [self.generator(i) for i in range(len(self.gen_names))]

    def element(self, coeffs) -> "ElementVector":
        """Element sum_g coeffs[g] * generator_g, coeffs in the group ring."""
        cfg = self.cfg
        d = cfg.order
        if len(coeffs) != len(self.gen_names):
            raise ValueError("one coefficient per generator required")
        ctx = self.ctx
        # Entry g d + t is the (canonical) coefficient of sigma^t on generator g.
        amb = np.array([_coerce_ring(cfg, c).values for c in coeffs], dtype=ctx.dtype)
        coords = linalg.matmul(ctx, self._proj, amb.reshape(len(coeffs) * d, 1))
        return self.element_from_model_coords(coords.ravel())

    # -- misc ----------------------------------------------------------

    def invariant_summary(self) -> tuple:
        return (self.zp_rank(), self.torsion_invariants())

    def describe(self) -> str:
        parts = []
        r = self.zp_rank()
        if r:
            parts.append(f"Zp^{r}" if r > 1 else "Zp")
        for e in self.torsion_invariants():
            parts.append(f"Z/{self.cfg.p}^{e}" if e > 1 else f"Z/{self.cfg.p}")
        shape = " + ".join(parts) if parts else "0"
        return (
            f"module over Z{self.cfg.p}[C{self.cfg.order}] with "
            f"{len(self.gen_names)} generators, underlying group {shape}"
        )

    def __repr__(self) -> str:
        return f"PresentedModule({self.describe()})"


def _quotient_model(ctx: linalg.Context, lattice: np.ndarray, sigma: np.ndarray, ceiling=None):
    """Normalize Z^a / (column span of lattice), sigma acting on Z^a.

    The span must be sigma-stable.  Returns (model, proj, lift) with
    proj @ lift = identity; pivots at or above ceiling count as zeros.
    """
    a = lattice.shape[0]
    if not lattice.shape[1]:  # no elimination: every coordinate is free
        return _Model((None,) * a, linalg.mat(ctx, sigma)), linalg.eye(ctx, a), linalg.eye(ctx, a)
    sm = linalg.smith(ctx, lattice, cols=False, ceiling=ceiling)
    units = sum(1 for v in sm.dvals if v == 0)
    moduli = [ctx.p**v for v in sm.dvals[units:]] + [None] * (a - len(sm.dvals))
    proj, lift = sm.left[units:, :], sm.left_inv[:, units:]
    sigma = _canon_rows(ctx, linalg.matmul(ctx, linalg.matmul(ctx, proj, sigma), lift), moduli)
    return _Model(tuple(moduli), sigma), proj, lift


class ElementVector:
    """An element of a PresentedModule in model coordinates."""

    __slots__ = ("module", "coords")

    def __init__(self, module: PresentedModule, coords):
        self.module = module
        self.coords = _canon_vec(module.ctx, coords, module.moduli)

    def _check(self, other):
        if not isinstance(other, ElementVector) or other.module is not self.module:
            raise ValueError("elements belong to different modules")

    def __add__(self, other):
        self._check(other)
        return ElementVector(
            self.module, [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other):
        self._check(other)
        return ElementVector(
            self.module, [a - b for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self):
        return ElementVector(self.module, [-a for a in self.coords])

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            raise TypeError("left scalars must be plain integers")
        return ElementVector(self.module, [scalar * a for a in self.coords])

    def act(self, ring_elt) -> "ElementVector":
        """Image under multiplication by a group-ring element."""
        mat = self.module.act_matrix(ring_elt)
        ctx = self.module.ctx
        col = linalg.matmul(ctx, mat, linalg.mat(ctx, [[v] for v in self.coords]))
        return ElementVector(self.module, col.ravel())

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, ElementVector)
            and other.module is self.module
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((id(self.module), self.coords))

    def column(self) -> np.ndarray:
        ctx = self.module.ctx
        return linalg.mat(ctx, [[v] for v in self.coords])

    def __repr__(self) -> str:
        return f"ElementVector{self.coords}"


class ModuleHom:
    """A Zp[G]-linear map between presented modules, as a model matrix."""

    def __init__(self, source: PresentedModule, target: PresentedModule, matrix, check=True):
        if source.cfg != target.cfg:
            raise ValueError("source and target live over different group rings")
        self.source = source
        self.target = target
        ctx = target.ctx
        m = linalg.mat(ctx, matrix) if not isinstance(matrix, np.ndarray) else matrix.copy()
        if m.shape != (target.model_dim, source.model_dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match "
                f"{target.model_dim} x {source.model_dim}"
            )
        self.matrix = _canon_rows(ctx, m, target.moduli)
        if check:
            self._validate()

    def _validate(self):
        ctx = self.target.ctx
        # Multiples of a torsion coordinate's annihilator must die.
        for i, mod in enumerate(self.source.moduli):
            if mod is None:
                continue
            col = (self.matrix[:, i] * mod) % ctx.modulus
            col = _canon_vec(ctx, col, self.target.moduli)
            if any(col):
                raise IllDefinedHom(
                    f"source coordinate {i} has annihilator {mod} but its "
                    f"image does not"
                )
        lhs = linalg.matmul(ctx, self.matrix, self.source.sigma_matrix)
        rhs = linalg.matmul(ctx, self.target.sigma_matrix, self.matrix)
        lhs = _canon_rows(ctx, lhs, self.target.moduli)
        rhs = _canon_rows(ctx, rhs, self.target.moduli)
        if not np.array_equal(lhs, rhs):
            raise IllDefinedHom("matrix does not commute with the group action")

    @classmethod
    def from_generator_images(cls, source: PresentedModule, target: PresentedModule, images):
        """Hom determined by where the presentation generators go.

        Raises IllDefinedHom when a relation of the source fails to map
        to zero.
        """
        if len(images) != len(source.gen_names):
            raise ValueError("need one image per generator")
        for img in images:
            if img.module is not target:
                raise ValueError("images must lie in the target module")
        ctx, d = target.ctx, source.cfg.order
        cols = [img.column() for img in images]
        orbits = _orbits(ctx, target.sigma_matrix, cols, d)
        rows = np.flatnonzero(source._lift.any(axis=1))  # lift is zero elsewhere
        mat = linalg.matmul(ctx, orbits[:, rows], source._lift[rows])
        # Well-definedness comes down to two checks on the assembled
        # matrix: it must be a valid hom of the normalized models, and it
        # must reproduce the requested generator images.  Together these
        # force every relation to map to zero (a model-valid matrix is a
        # genuine hom, and relations already vanish in the source), so no
        # relation-by-relation scan is needed.  The images are compared as
        # one array, against the sigma^0 columns of their orbits.
        hom = cls(source, target, mat, check=True)
        got = linalg.matmul(ctx, hom.matrix, source._proj[:, ::d])
        if not np.array_equal(_canon_rows(ctx, got, target.moduli), orbits[:, ::d]):
            raise IllDefinedHom("generator images are inconsistent with the source relations")
        return hom

    def apply(self, elt: ElementVector) -> ElementVector:
        if elt.module is not self.source:
            raise ValueError("element does not belong to the source module")
        ctx = self.target.ctx
        col = linalg.matmul(ctx, self.matrix, elt.column())
        return ElementVector(self.target, col.ravel())

    def compose(self, inner: "ModuleHom") -> "ModuleHom":
        """self after inner."""
        if inner.target is not self.source:
            raise ValueError("composition mismatch")
        ctx = self.target.ctx
        return ModuleHom(
            inner.source,
            self.target,
            linalg.matmul(ctx, self.matrix, inner.matrix),
            check=False,
        )

    def is_zero_map(self) -> bool:
        return linalg.is_zero(self.matrix)

    def __repr__(self) -> str:
        return f"ModuleHom({self.source.describe()} -> {self.target.describe()})"


def identity_hom(module: PresentedModule) -> ModuleHom:
    return ModuleHom(module, module, linalg.eye(module.ctx, module.model_dim), check=False)


def scalar_action_hom(module: PresentedModule, elt) -> ModuleHom:
    """Multiplication by a group-ring element as an endomorphism."""
    return ModuleHom(module, module, module.act_matrix(elt), check=False)


# -- constructors ------------------------------------------------------


def free_module(cfg: GroupConfig, rank: int, names=None) -> PresentedModule:
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    if names is None:
        names = [f"e{i}" for i in range(rank)]
    return PresentedModule(cfg, names, [])


def trivial_module(cfg: GroupConfig, exponent=None, name="u") -> PresentedModule:
    """Zp (exponent None) or Z/p^e with the group acting trivially."""
    sig = sigma_power(cfg, 1)
    one = sigma_power(cfg, 0)
    rows = [((sig - one),)]
    if exponent is not None:
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if exponent >= cfg.precision - cfg.guard:
            raise PreconditionViolated(
                f"torsion exponent {exponent} is not representable below the "
                f"guard band at precision {cfg.precision}"
            )
        rows.append((GroupRingElement(cfg, [cfg.p**exponent] + [0] * (cfg.order - 1)),))
    return PresentedModule(cfg, [name], rows)


def zp_trivial(cfg: GroupConfig) -> PresentedModule:
    return trivial_module(cfg, None)


@dataclass(frozen=True)
class Submodule:
    """A module together with its inclusion into an ambient module."""

    module: PresentedModule
    inclusion: ModuleHom


@dataclass(frozen=True)
class DirectSum:
    module: PresentedModule
    injections: tuple
    projections: tuple


@dataclass(frozen=True)
class Quotient:
    """A quotient with its projection and a coordinate section.

    lift is a Zp-linear right inverse of the projection matrix (not a
    module hom); it lets maps that kill the collapsed submodule be
    factored through the quotient, see descend_to_quotient.
    """

    module: PresentedModule
    projection: ModuleHom
    lift: np.ndarray | None = field(default=None, compare=False, repr=False)


def _centered_object(a, modulus: int) -> np.ndarray:
    """Symmetric integer lift of canonical residues, as Python ints.

    Residues above (p^N - 1) / 2 come back negative, so entries that
    represent small signed integers (the usual case for hand-built and
    permutation models) recover their exact values.
    """
    out = np.array(a, dtype=object)
    out[out > modulus // 2] -= modulus
    return out


def _orbits(ctx: linalg.Context, sigma: np.ndarray, columns, d: int) -> np.ndarray:
    """The columns x, sigma x, ..., sigma^(d-1) x for each column x of the
    given blocks in turn.  A permutation sigma (free modules and their sums:
    m nonzeros, rows and columns summing to 1) acts by one row gather,
    reduced as matmul reduces: sigma^t x = x[perm_t], perm_t = perm_(t-1)[perm]."""
    m, k = sigma.shape[0], sum(c.shape[1] for c in columns)
    out = linalg.zeros(ctx, m, k * d)
    if columns:
        out[:, ::d] = np.concatenate(columns, axis=1)
    few = d > 1 and np.count_nonzero(sigma) == m  # one count turns a dense sigma away
    if few and (sigma.sum(axis=0) == 1).all() and (sigma.sum(axis=1) == 1).all():
        index = [np.nonzero(sigma)[1]]
        for _ in range(2, d):
            index.append(index[-1][index[0]])
        gathered = (out[:, ::d] % ctx.modulus)[np.array(index)]
        out.reshape(m, k, d)[:, :, 1:] = gathered.transpose(1, 2, 0)
        return out
    for t in range(1, d):
        out[:, t::d] = linalg.matmul(ctx, sigma, out[:, t - 1 :: d])
    return out


def _sigma_powers(ctx: linalg.Context, model: _Model, d: int) -> np.ndarray:
    """Column i d + t is sigma^t e_i, rows reduced by the moduli."""
    orbits = _orbits(ctx, model.sigma, [linalg.eye(ctx, model.dim)], d)
    return _canon_rows(ctx, orbits, model.moduli)


def _is_module(ctx: linalg.Context, sigma: np.ndarray, moduli, d: int) -> bool:
    """Whether sigma maps the torsion lattice into itself and sigma^d = 1."""
    m = len(moduli)
    image = linalg.matmul(ctx, sigma, _torsion_columns(ctx, moduli))
    if not linalg.is_zero(_canon_rows(ctx, image, moduli)):
        return False
    power, base, e = linalg.eye(ctx, m), sigma, d
    while e:
        if e & 1:
            power = linalg.matmul(ctx, power, base)
        base, e = linalg.matmul(ctx, base, base), e >> 1
    return linalg.is_zero(_canon_rows(ctx, (power - linalg.eye(ctx, m)) % ctx.modulus, moduli))


def _centered_lift(ambient: PresentedModule, columns: np.ndarray, precision: int):
    """(context, sigma, moduli, columns): the ambient's model and the columns
    lifted centered to the given precision, or None if no module there."""
    cfg = ambient.cfg
    src = linalg.Context(cfg.p, precision, 0)
    sigma = linalg.mat(src, _centered_object(ambient.sigma_matrix, cfg.modulus))
    if not _is_module(src, sigma, ambient.moduli, cfg.order):
        return None
    return src, sigma, ambient.moduli, linalg.mat(src, _centered_object(columns, cfg.modulus))


def _renormalized_lift(ambient: PresentedModule, columns: np.ndarray, precision: int):
    """_centered_lift from the ambient's presentation, whose relations are
    exact integers, normalized again at the precision plus the guard: a model
    with coordinates of its own, to which the columns are carried over
    through their group-ring coefficients."""
    cfg, d = ambient.cfg, ambient.cfg.order
    fine = GroupConfig(cfg.p, cfg.n, precision + cfg.guard, cfg.guard)
    rows = _centered_object(ambient.relations, cfg.modulus)
    lifted = PresentedModule(fine, ambient.gen_names, rows)
    amb = _centered_object(linalg.matmul(ambient.ctx, ambient._lift, columns), cfg.modulus)
    coeffs = amb.T.reshape(columns.shape[1], -1, d).tolist()
    cols = np.concatenate([lifted.element(c).column() for c in coeffs], axis=1)
    return lifted.ctx, lifted.sigma_matrix, lifted.moduli, cols


def _divide_rows(ctx: linalg.Context, a: np.ndarray, dvals, out: linalg.Context) -> np.ndarray:
    """Divide row i by p^dvals[i], then reduce into out; rows must be divisible."""
    scale = np.array([ctx.p**v for v in dvals], dtype=a.dtype).reshape(-1, 1)
    return linalg.mat(out, (a // scale) % out.modulus)


def submodule_from_elements(ambient: PresentedModule, elements, names=None) -> Submodule:
    """The L-submodule generated by the given elements.

    With ev the m x (k p^n) matrix of the elements' sigma-orbits and T
    the ambient's torsion columns, the submodule is (span(ev) + T) / T
    inside the ambient model, so the work is done at model size m.  The
    steps run on C = X, the elements' m x k coordinates, and again on
    C = ev when step 1 meets the guard band or a lift that is no module,
    or the lattice of [X | T] is not exactly sigma-stable (rows of
    left sigma B past s nonzero, or row i not divisible by p^d_i).

    1. [C | T] is eliminated once, on a model of the ambient that is a
       module at a raised precision N' (_centered_lift, else on the
       orbits _renormalized_lift), counting residues of valuation >= N
       as zeros (the config precision policy).
       The pivot columns of U^-1 scaled by p^d_i form a basis B of the
       lattice, and dividing the rows of U [C | T] by p^d_i gives the
       B-coordinates of C and T; at N itself the division would lose
       up to g = max d_i digits.  A probe at N finds g and raises on
       guard-band pivots.  With no torsion in the ambient (e = 0, see
       step 2) it keeps its row transforms, and when it finds g = 0 as
       well, N' = N and it is this elimination, on the ambient's own
       model when that is a module at N; no lift is made.
    2. A Smith form of T's coordinates gives the moduli, with sigma on
       the submodule proj2 (B^-1 sigma B) lift2 and proj = proj2 E, E the
       coordinates of C, expanded to the orbits when C = X.  The
       submodule's torsion lies in the ambient's, so its exponents are
       at most the ambient's largest, e; pivots above e are zeros, and
       the transforms lose up to e digits more.  Hence N' = N + g + e.
    3. lift, the right inverse of proj, inverts proj on columns that are
       independent mod p; the inclusion is B lift2 when C = X, else
       ev[:, pivots] lift[pivots].

    The result has one generator per element; its relation array is
    synthesized from the model on first read.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one generating element")
    for e in elements:
        if e.module is not ambient:
            raise ValueError("generating elements must lie in the ambient module")
    return _submodule(ambient, np.concatenate([e.column() for e in elements], axis=1), names)


def _submodule(ambient: PresentedModule, columns: np.ndarray, names=None) -> Submodule:
    """submodule_from_elements on the m x k array of the elements'
    canonical model coordinates: its own lattice, else its orbits."""
    cfg, ctx, d = ambient.cfg, ambient.ctx, ambient.cfg.order
    k, e_max = columns.shape[1], max(ambient.torsion_invariants(), default=0)
    if names is None:
        names = [f"y{j}" for j in range(k)]
    for stable in (True, False):
        # Step 1.  The eliminations keep the guard floor N - guard.
        ev = columns if stable else _orbits(ctx, ambient.sigma_matrix, [columns], d)
        stacked = linalg.hstack(ctx, [ev, ambient.torsion_column_matrix()])
        try:
            sm = linalg.smith(ctx, stacked, rows=not e_max, cols=False)
            g = max(sm.dvals, default=0)
            if g + e_max == 0 and _is_module(ctx, ambient.sigma_matrix, ambient.moduli, d):
                hi, sigma_src, lattice = ctx, ambient.sigma_matrix, stacked
            else:
                prec = cfg.precision + g + e_max
                lifted = _centered_lift(ambient, columns, prec)
                if lifted is None and stable:
                    continue
                src, sigma_src, moduli, cols = lifted or _renormalized_lift(ambient, columns, prec)
                ev_src = cols if stable else _orbits(src, sigma_src, [cols], d)
                lattice = linalg.hstack(src, [ev_src, _torsion_columns(src, moduli)])
                hi = linalg.Context(cfg.p, src.precision, src.precision - cfg.precision + cfg.guard)
                sm = linalg.smith(hi, lattice, cols=False, ceiling=cfg.precision)
        except PrecisionExhausted:
            if not stable:
                raise
            continue
        s = len(sm.dvals)
        scale = np.array([cfg.p**v for v in sm.dvals], dtype=hi.dtype)
        basis = sm.left_inv[:, :s] * scale % hi.modulus
        image = linalg.matmul(hi, sm.left[: None if stable else s], linalg.matmul(hi, sigma_src, basis))
        if not (stable and (image[s:].any() or (image[:s] % scale[:, None]).any())):
            break
    mid = linalg.Context(cfg.p, cfg.precision + e_max, cfg.guard + e_max)
    sigma_b = _divide_rows(hi, image[:s], sm.dvals, mid)
    coords = _divide_rows(hi, linalg.matmul(hi, sm.left[:s], lattice), sm.dvals, mid)

    # Step 2.
    inner, proj2, lift2 = _quotient_model(mid, coords[:, ev.shape[1] :], sigma_b, ceiling=e_max + 1)
    sigma = linalg.mat(ctx, inner.sigma % ctx.modulus)
    model = _Model(inner.moduli, _canon_rows(ctx, sigma, inner.moduli))
    if not _is_module(ctx, model.sigma, model.moduli, d):
        raise PrecisionExhausted(
            f"submodule does not close up as a module at precision {cfg.precision}; "
            "raise the working precision"
        )
    proj = linalg.matmul(mid, proj2, coords[:, : ev.shape[1]]) % ctx.modulus
    proj = _canon_rows(ctx, linalg.mat(ctx, proj), model.moduli)
    if stable:
        proj = _orbits(ctx, model.sigma, [proj], d)

    # Step 3.  lift is zero outside the pivot rows.
    lift = linalg.zeros(ctx, k * d, model.dim)
    pivots = linalg.pivot_cols_mod_p(cfg.p, proj) if model.dim else []
    if pivots:
        lift[pivots, :] = linalg.invert(ctx, proj[:, pivots])

    sub = PresentedModule._derived(cfg, names, model, proj, lift)
    left, right = (basis, lift2) if stable else (ev[:, pivots], lift[pivots])
    inc = linalg.matmul(ctx, linalg.mat(ctx, left), linalg.mat(ctx, right))
    return Submodule(sub, ModuleHom(sub, ambient, inc, check=False))


def direct_sum(*modules: PresentedModule) -> DirectSum:
    if not modules:
        raise ValueError("empty direct sum")
    cfg = modules[0].cfg
    if any(m.cfg != cfg for m in modules):
        raise ValueError("summands live over different group rings")
    ctx = linalg.context_of(cfg)
    moduli = tuple(x for m in modules for x in m.moduli)
    total = len(moduli)
    sigma = linalg.zeros(ctx, total, total)
    off = 0
    offsets = []
    for m in modules:
        offsets.append(off)
        sigma[off : off + m.model_dim, off : off + m.model_dim] = m.sigma_matrix
        off += m.model_dim
    model = _Model(moduli, sigma)
    summed = PresentedModule._from_model(cfg, model)
    injections = []
    projections = []
    for idx, m in enumerate(modules):
        inj = linalg.zeros(ctx, total, m.model_dim)
        prj = linalg.zeros(ctx, m.model_dim, total)
        o = offsets[idx]
        for i in range(m.model_dim):
            inj[o + i, i] = 1
            prj[i, o + i] = 1
        injections.append(ModuleHom(m, summed, inj, check=False))
        projections.append(ModuleHom(summed, m, prj, check=False))
    return DirectSum(summed, tuple(injections), tuple(projections))


def quotient_by_image(hom: ModuleHom, names=None) -> Quotient:
    """target / image(hom)."""
    target = hom.target
    cfg = target.cfg
    ctx = target.ctx
    lattice = linalg.hstack(ctx, [hom.matrix, target.torsion_column_matrix()])
    model, proj, lift = _quotient_model(ctx, lattice, target.sigma_matrix)
    quot = PresentedModule._from_model(cfg, model, names=names)
    projection = ModuleHom(target, quot, proj, check=False)
    return Quotient(quot, projection, lift)


def _kernel_lattice(hom: ModuleHom) -> np.ndarray:
    """Saturated kernel vectors {x : Hx in T}, canonical, zero columns dropped."""
    source, ctx = hom.source, hom.source.ctx
    tc = hom.target.torsion_column_matrix()
    stacked = linalg.hstack(ctx, [hom.matrix, (-tc) % ctx.modulus])
    sat = linalg.saturated_kernel_cols(ctx, stacked)
    xs = _canon_rows(ctx, sat[: source.model_dim, :], source.moduli)
    return xs[:, xs.any(axis=0)]


def kernel_of(hom: ModuleHom, names=None) -> Submodule:
    """The kernel of a hom, with its inclusion into the source.

    Solved as a saturated system: an element is in the kernel only when
    its image lies in the target's honest torsion lattice, not merely
    when the image vanishes mod p^N.  The kernel is generated by the
    nonzero saturated kernel vectors, reduced in the source model; with
    none, it is the zero submodule on one generator (y0 by default), as
    submodule_from_elements builds it from the zero element.  With the
    source's torsion columns they span the sigma-stable lattice
    {x : Hx in T}, built as every submodule is.
    """
    source = hom.source
    ctx, d = source.ctx, source.cfg.order
    xs = _kernel_lattice(hom)
    if xs.shape[1]:
        return _submodule(source, xs, names)
    names = ["y0"] if names is None else names
    zero = _Model((), linalg.zeros(ctx, 0, 0))
    sub = PresentedModule._derived(
        source.cfg, names, zero, linalg.zeros(ctx, 0, d), linalg.zeros(ctx, d, 0)
    )
    inc = ModuleHom(sub, source, linalg.zeros(ctx, source.model_dim, 0), check=False)
    return Submodule(sub, inc)


def fixed_points(module: PresentedModule, level: int | None = None) -> Submodule:
    """Fixed points under the subgroup of order p^level (default: all of G)."""
    cfg = module.cfg
    if level is None:
        level = cfg.n
    if not 0 <= level <= cfg.n:
        raise ValueError(f"subgroup level {level} outside [0, {cfg.n}]")
    step = cfg.p ** (cfg.n - level)
    ctx = module.ctx
    t = module.act_matrix(sigma_power(cfg, step))
    diff = (t - linalg.eye(ctx, module.model_dim)) % ctx.modulus
    hom = ModuleHom(module, module, diff, check=False)
    return kernel_of(hom)


@functools.lru_cache(maxsize=None)
def augmentation_ideal(cfg: GroupConfig) -> PresentedModule:
    """The kernel of the augmentation Zp[G] -> Zp.

    Presented on the generators sigma^a - 1, a = 1 .. p^n - 1, matching
    the generator indexing used by extension-class constructions.
    Cached per configuration: the module is immutable and carries its
    own cohomology cache.
    """
    if cfg.order == 1:
        return free_module(cfg, 0)
    lam = free_module(cfg, 1, names=["e"])
    one = sigma_power(cfg, 0)
    elems = [
        lam.element([sigma_power(cfg, a) - one]) for a in range(1, cfg.order)
    ]
    names = [f"g{a}" for a in range(1, cfg.order)]
    return submodule_from_elements(lam, elems, names=names).module


def descend_to_quotient(quot: Quotient, hom: ModuleHom) -> ModuleHom:
    """Factor a hom through a quotient of its source.

    Requires hom to vanish on everything the quotient collapses; the
    result fbar satisfies fbar o projection == hom.  Raises
    IllDefinedHom when no factorization exists.
    """
    if hom.source is not quot.projection.source:
        raise ValueError("hom does not start at the quotient's ambient module")
    if quot.lift is None:
        raise ValueError("quotient carries no section to descend along")
    ctx = hom.target.ctx
    mat = linalg.matmul(ctx, hom.matrix, quot.lift)
    try:
        fbar = ModuleHom(quot.module, hom.target, mat, check=True)
    except IllDefinedHom as exc:
        raise IllDefinedHom(
            f"hom does not factor through the quotient: {exc}"
        ) from exc
    back = fbar.compose(quot.projection)
    if not np.array_equal(back.matrix, hom.matrix):
        raise IllDefinedHom("hom does not vanish on the collapsed submodule")
    return fbar


def quotient_group_module(module: PresentedModule, level: int) -> PresentedModule:
    """Reinterpret a module over the quotient by the level subgroup.

    The subgroup of order p^level must act trivially; the same
    coordinate model is then a module for the cyclic group of order
    p^(n-level), with sigma-bar acting through the original sigma.
    """
    cfg = module.cfg
    if not 0 <= level <= cfg.n:
        raise ValueError(f"subgroup level {level} outside [0, {cfg.n}]")
    step = cfg.p ** (cfg.n - level)
    tau = module.act_matrix(sigma_power(cfg, step))
    if not np.array_equal(tau, linalg.eye(module.ctx, module.model_dim)):
        raise PreconditionViolated(
            f"the subgroup of order {cfg.p}**{level} does not act trivially"
        )
    new_cfg = cfg.quotient(level)
    model = _Model(module.moduli, module.sigma_matrix.copy())
    return PresentedModule._from_model(new_cfg, model)


def minimal_generators(module: PresentedModule) -> list:
    """Lifts of a basis of M/(p, sigma-1)M; a smallest generating set.

    Over the local ring Zp[G] Nakayama's lemma promotes any such lift to
    a generating set, and no smaller set can generate.
    """
    m = module.model_dim
    if m == 0:
        return []
    p = module.cfg.p
    ctx = module.ctx
    coords = linalg.eye(ctx, m)
    diff = (module.sigma_matrix - coords) % ctx.modulus
    # Pivots in the identity block are the unit vectors that raise the
    # mod-p rank of the image of sigma - 1, taken greedily in order.
    pivots = linalg.pivot_cols_mod_p(p, linalg.hstack(ctx, [diff, coords]))
    return [module.element_from_model_coords(coords[:, j - m]) for j in pivots if j >= m]


def free_cover(module: PresentedModule, names=None):
    """A minimal surjection from a free module, as (free, cover).

    The free rank equals the residue dimension of the module, so the
    kernel of the cover has no free direct summand forced by slack in
    the generating set.
    """
    gens = minimal_generators(module)
    free = free_module(module.cfg, len(gens), names=names)
    cover = ModuleHom.from_generator_images(free, module, gens)
    if not is_surjective(cover):
        raise IllDefinedHom("minimal generating set failed to generate")
    return free, cover


def _span_dvals(module: PresentedModule, *blocks) -> list:
    """Smith invariants of span(blocks) + T, T the module's torsion lattice."""
    ctx = module.ctx
    lattice = linalg.hstack(ctx, [*blocks, module.torsion_column_matrix()])
    return linalg.smith(ctx, lattice, rows=False, cols=False).dvals


def is_injective(hom: ModuleHom) -> bool:
    """Whether the kernel is zero: the kernel lattice has no vector."""
    return not _kernel_lattice(hom).shape[1]


def is_surjective(hom: ModuleHom) -> bool:
    """Whether image + T is the whole model lattice: m unit invariants."""
    return _span_dvals(hom.target, hom.matrix) == [0] * hom.target.model_dim


def is_exact(inner: ModuleHom, outer: ModuleHom) -> bool:
    """Whether im(inner) = ker(outer).  outer o inner = 0 puts span(inner) + T
    in the kernel lattice + T (T the middle module's torsion lattice), and a
    sublattice with the same Smith invariants is all of it."""
    if not outer.compose(inner).is_zero_map():
        return False
    mid = outer.source
    return _span_dvals(mid, inner.matrix) == _span_dvals(mid, _kernel_lattice(outer))
