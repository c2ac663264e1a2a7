"""Module constructions around extension classes of the group ring.

Three families of objects live here, all over Zp[G] for G cyclic of
order p^n:

  * extension data (a finite kernel plus a two-variable class table,
    one (d, d, m) array of kernel coordinates for d = p^n) and its
    splitting module: the middle term of the extension by the
    augmentation ideal, realized on explicit coordinates;
  * the submodule family J_e = p^e Zp[G] + Zp N_G with its four-term
    free resolution (its image module built on first read: exactness
    at the free line, verified at construction, already makes it the
    kernel of the quotient map) and, for e >= n, an explicit
    isomorphism from Zp (+) augmentation ideal;
  * the kernel-of-projection pipeline: from a torsion-free module with
    a distinguished free part and a distinguished class, build the
    finite kernel module A together with degree-preserving cohomology
    identifications, extract the extension class, and compare the
    second syzygy of its splitting module with the original module.

Everything is verified as it is built.  Injectivity, surjectivity and
exactness are decided on lattices and arrays, so kernel_of and
quotient_by_image build only modules that are returned or read on;
cohomology identifications are checked to be isomorphisms, and the
witness data of the pipeline is validated before use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .arith import GroupRingElement, norm_element, sigma_power, zero_element
from .cohomology import corestriction, induced_map, restriction, tate
from .config import GroupConfig, IsoSearchConfig
from .errors import (
    CyclomodError,
    InfiniteKernel,
    NotACocycle,
    NotSurjective,
    PreconditionViolated,
    WitnessInvalid,
)
from .modules import (
    ElementVector,
    ModuleHom,
    PresentedModule,
    Submodule,
    _Model,
    _canon_rows,
    _is_module,
    _orbits,
    _span_dvals,
    augmentation_ideal,
    descend_to_quotient,
    direct_sum,
    free_cover,
    free_module,
    identity_hom,
    is_exact,
    is_injective,
    is_surjective,
    kernel_of,
    quotient_by_image,
    scalar_action_hom,
    submodule_from_elements,
    trivial_module,
    zp_trivial,
)
from .oracle import krull_schmidt_note, stably_isomorphic
from .verdicts import Undecided
from .yakovlev import delta, diagrams_isomorphic

__all__ = [
    "ExtensionData",
    "zero_extension",
    "coboundary_shift",
    "SplittingModule",
    "splitting_module",
    "cocycle_from_section",
    "j_module",
    "FourTermResolution",
    "lemma3_resolution",
    "h_isomorphism",
    "predicted_unit_structure",
    "Theorem1Input",
    "Lemma2Result",
    "lemma2_pipeline",
    "Theorem1Report",
    "theorem1_verify",
]


def _ring(cfg: GroupConfig, c: int, t: int = 0) -> GroupRingElement:
    vals = [0] * cfg.order
    vals[t % cfg.order] = c
    return GroupRingElement(cfg, vals)


@dataclass(frozen=True, eq=False)
class ExtensionData:
    """A finite kernel together with a two-variable class table.

    cocycle[a, b] holds f(sigma^a, sigma^b) in kernel model coordinates:
    an array of shape (d, d, m), reduced coordinate by coordinate by the
    kernel's moduli.  Construction checks the finiteness of the kernel,
    the shape, and the cocycle identity

        sigma^a f(b, c) - f(a+b, c) + f(a, b+c) - f(a, b) = 0

    for a in {0, 1}, naming the first failing (a, b, c) in NotACocycle.
    That suffices: the left side is df, and d(df) = 0 at (sigma, sigma^a,
    sigma^b, sigma^c) gives df(sigma^(a+1), -, -) = sigma df(sigma^a, -, -)
    once row a = 1 vanishes, so every row vanishes if rows 0 and 1 do.
    """

    kernel: PresentedModule
    cocycle: np.ndarray

    def __post_init__(self):
        ka, ctx = self.kernel, self.kernel.ctx
        d, m = ka.cfg.order, ka.model_dim
        if not ka.is_finite():
            raise InfiniteKernel("extension kernels must be finite modules")
        if np.shape(self.cocycle) != (d, d, m):
            raise NotACocycle(f"table must be {d} x {d} with {m} coordinates per entry")
        cols = linalg.mat(ctx, np.reshape(self.cocycle, (d * d, m)).T)
        f = _canon_rows(ctx, cols, ka.moduli).T.reshape(d, d, m)
        f.flags.writeable = False
        object.__setattr__(self, "cocycle", f)
        moved = linalg.matmul(ctx, ka.sigma_matrix, cols).T.reshape(d, d, m)
        bc = np.add.outer(range(d), range(d)) % d
        row0 = f[0][bc] - f[0][:, None]
        row1 = moved - np.roll(f, -1, axis=0) + f[1 % d][bc] - f[1 % d][:, None]
        lhs = np.stack([row0, row1]).reshape(2 * d * d, m).T
        bad = (_canon_rows(ctx, lhs, ka.moduli) != 0).any(axis=0)
        if bad.any():
            a, b, c = np.unravel_index(bad.argmax(), (2, d, d))
            raise NotACocycle(f"identity fails at (sigma^{a}, sigma^{b}, sigma^{c})")

    def is_normalized(self) -> bool:
        """Whether f(1, -) and f(-, 1) vanish."""
        return linalg.is_zero(self.cocycle[0]) and linalg.is_zero(self.cocycle[:, 0])


def zero_extension(kernel: PresentedModule) -> ExtensionData:
    """The split class on the given kernel."""
    d = kernel.cfg.order
    return ExtensionData(kernel, np.zeros((d, d, kernel.model_dim), dtype=np.int64))


def _coboundary(module: PresentedModule, cochain: np.ndarray) -> np.ndarray:
    """sigma^a c_b - c_{a+b} + c_a in column a * d + b, with c_t in column t."""
    ctx, d = module.ctx, module.cfg.order
    orbits = _orbits(ctx, module.sigma_matrix, [cochain[:, t : t + 1] for t in range(d)], d)
    moved = orbits.reshape(-1, d, d).transpose(0, 2, 1)
    out = moved - cochain[:, np.add.outer(range(d), range(d)) % d] + cochain[:, :, None]
    return _canon_rows(ctx, out.reshape(-1, d * d), module.moduli)


def coboundary_shift(ext: ExtensionData, cochain) -> ExtensionData:
    """The same class represented by f + (coboundary of the 1-cochain).

    cochain[t] is an element of the kernel for sigma^t; the shift adds
    sigma^a c_b - c_{a+b} + c_a, which never changes the class.
    """
    ka = ext.kernel
    d = ka.cfg.order
    cochain = list(cochain)
    if len(cochain) != d or any(c.module is not ka for c in cochain):
        raise PreconditionViolated(f"need one kernel element per group element ({d})")
    cols = linalg.mat(ka.ctx, [c.coords for c in cochain]).T
    shift = _coboundary(ka, cols).T.reshape(d, d, ka.model_dim)
    return ExtensionData(ka, ext.cocycle + shift)


def carry_cocycle(kernel: PresentedModule, elt: ElementVector | None = None) -> ExtensionData:
    """The index-carry table f(sigma^a, sigma^b) = floor((a+b)/d) * elt.

    With elt a generator of a trivial-action kernel this is the class
    of the cyclic lift of order d * exponent; any fixed elt gives a
    valid table because the carry function satisfies the two-variable
    identity with constant coefficients.
    """
    d = kernel.cfg.order
    if elt is None:
        elt = kernel.generator(0)
    elif elt.module is not kernel:
        raise PreconditionViolated("the carry value must be an element of the kernel")
    carries = np.add.outer(range(d), range(d)) // d
    return ExtensionData(kernel, carries[:, :, None] * linalg.mat(kernel.ctx, [elt.coords]))


@dataclass(frozen=True)
class SplittingModule:
    """The middle term of an extension of the augmentation ideal.

    kernel_hom includes the kernel, projection maps onto the ideal, and
    the sequence kernel -> module -> ideal is exact (verified at
    construction time on honest lattices).
    """

    module: PresentedModule
    kernel_hom: ModuleHom
    projection: ModuleHom


def splitting_module(ext: ExtensionData) -> SplittingModule:
    """Realize the extension 0 -> kernel -> M -> ideal -> 0 concretely.

    M is modeled on the kernel coordinates plus one free coordinate b_a
    per ideal generator sigma^a - 1, with the action

        sigma . b_a = b_{a+1} - b_1 + f(sigma, sigma^a)

    (b_{p^n} meaning the kernel element f(1, 1)).  The projection sends
    b_a to sigma^a - 1 and the exactness of the resulting sequence is
    verified: injectivity of the kernel map, ker(projection) = image of
    the kernel, and surjectivity.
    """
    ka = ext.kernel
    cfg = ka.cfg
    d = cfg.order
    ma = ka.model_dim
    ctx = ka.ctx
    total = ma + d - 1
    moduli = ka.moduli + (None,) * (d - 1)
    sig = linalg.zeros(ctx, total, total)
    sig[:ma, :ma] = ka.sigma_matrix
    f = ext.cocycle
    for a in range(1, d):
        col = ma + a - 1
        if a + 1 < d:
            sig[ma + a, col] += 1
        else:
            sig[:ma, col] += f[0, 0]
        sig[ma, col] -= 1
        sig[:ma, col] += f[1, a]
    sig = _canon_rows(ctx, sig % ctx.modulus, moduli)
    if not _is_module(ctx, sig, moduli, d):
        raise NotACocycle("assembled action does not have the group order")
    names = [f"a{i}" for i in range(ma)] + [f"b{a}" for a in range(1, d)]
    module = PresentedModule._from_model(cfg, _Model(moduli, sig), names=names)

    inc_mat = linalg.zeros(ctx, total, ma)
    inc_mat[:ma, :ma] = linalg.eye(ctx, ma)
    kernel_hom = ModuleHom(ka, module, inc_mat)
    ideal = augmentation_ideal(cfg)
    proj_mat = linalg.zeros(ctx, ideal.model_dim, total)
    for a in range(1, d):
        proj_mat[:, ma + a - 1] = ideal.generator(a - 1).column().ravel()
    projection = ModuleHom(module, ideal, proj_mat)

    if not is_injective(kernel_hom):
        raise CyclomodError("splitting module: kernel map failed injectivity")
    if not projection.compose(kernel_hom).is_zero_map():
        raise CyclomodError("splitting module: projection does not kill the kernel")
    if not is_exact(kernel_hom, projection):
        raise CyclomodError("splitting module: sequence is not exact in the middle")
    if not is_surjective(projection):
        raise CyclomodError("splitting module: projection failed surjectivity")
    return SplittingModule(module, kernel_hom, projection)


def cocycle_from_section(projection: ModuleHom, kernel: Submodule | None = None) -> ExtensionData:
    """Extension data extracted from a surjection onto the ideal.

    The target must be presented on the generators sigma^a - 1 in order
    (as augmentation_ideal builds them).  A Zp-linear section s is
    chosen by solving for preimages of those generators (s(0) = 0, so
    the table is normalized), and

        f(sigma^a, sigma^b) = sigma^a s_b - s_{a+b} + s_a

    is rewritten in kernel coordinates.  Raises NotSurjective when a
    generator has no preimage and InfiniteKernel when the kernel has
    positive rank (no finite class table exists then).
    """
    b_mod = projection.source
    ideal = projection.target
    cfg = b_mod.cfg
    d = cfg.order
    ctx = b_mod.ctx
    if kernel is None:
        kernel = kernel_of(projection)
    if kernel.module.zp_rank() > 0:
        raise InfiniteKernel(
            f"kernel has rank {kernel.module.zp_rank()}; extension data needs a finite kernel"
        )
    lift_sys = linalg.hstack(ctx, [projection.matrix, ideal.torsion_column_matrix()])
    sm_lift = linalg.smith(ctx, lift_sys)
    gens = linalg.hstack(ctx, [ideal.generator(t).column() for t in range(d - 1)])
    sol = linalg.solve(ctx, lift_sys, gens, sm=sm_lift)
    if sol is None:
        for t in range(1, d):
            if linalg.solve(ctx, lift_sys, gens[:, t - 1 : t], sm=sm_lift) is None:
                raise NotSurjective(f"generator sigma^{t} - 1 has no preimage")
    sec = linalg.hstack(ctx, [linalg.zeros(ctx, b_mod.model_dim, 1), sol[: b_mod.model_dim]])
    memb = linalg.hstack(ctx, [kernel.inclusion.matrix, b_mod.torsion_column_matrix()])
    sol = linalg.solve(ctx, memb, _coboundary(b_mod, sec))
    if sol is None:
        raise CyclomodError(
            "section defect escaped the kernel; the map is not a hom onto the ideal"
        )
    km = kernel.module
    return ExtensionData(km, sol[: km.model_dim, :].T.reshape(d, d, km.model_dim))


@functools.lru_cache(maxsize=None)
def j_module(cfg: GroupConfig, e: int) -> PresentedModule:
    """The submodule p^e Zp[G] + Zp N_G of the group ring.

    Presented on the generators m_t = p^e sigma^t (t = 0 .. p^n - 1)
    followed by ng = N_G, with relations synthesized from its model
    inside the group ring.  Cached per (cfg, e): the module is
    immutable and carries its own cohomology cache.
    """
    if e < 0:
        raise PreconditionViolated("exponent must be nonnegative")
    if e >= cfg.precision - cfg.guard:
        raise PreconditionViolated(
            f"p^{e} is not representable below the guard band at precision "
            f"{cfg.precision}"
        )
    lam = free_module(cfg, 1, names=["e"])
    pe = cfg.p**e
    elems = [lam.element([_ring(cfg, pe, t)]) for t in range(cfg.order)]
    elems.append(lam.element([norm_element(cfg)]))
    names = [f"m{t}" for t in range(cfg.order)] + ["ng"]
    return submodule_from_elements(lam, elems, names=names).module


@dataclass(frozen=True)
class FourTermResolution:
    """0 -> J_e -> Zp[G]^2 -> Zp[G] -> Z/p^e -> 0, exactness verified.

    image is ker(quotient_map) = im(middle) as a submodule of the free
    rank-one module, and onto_image restates middle as a surjection
    onto it; the two short exact sequences obtained this way are the
    inputs for connecting-map computations.  Both are built on first
    read, not at construction: exactness at the free line, verified
    there, already says im(middle) = ker(quotient_map), so middle
    factors through the image and onto it, and a caller that reads
    neither pays for neither.
    """

    j_mod: PresentedModule
    free_pair: PresentedModule
    free_line: PresentedModule
    quotient: PresentedModule
    first: ModuleHom
    middle: ModuleHom
    quotient_map: ModuleHom

    @functools.cached_property
    def image(self) -> Submodule:
        return kernel_of(self.quotient_map)

    @functools.cached_property
    def onto_image(self) -> ModuleHom:
        image = self.image
        onto = linalg.solve(self.free_line.ctx, image.inclusion.matrix, self.middle.matrix)
        if onto is None:
            raise CyclomodError("resolution: middle does not factor through its image")
        onto_image = ModuleHom(self.free_pair, image.module, onto)
        if not is_surjective(onto_image):
            raise CyclomodError("resolution: factored middle map failed surjectivity")
        return onto_image


def lemma3_resolution(cfg: GroupConfig, e: int) -> FourTermResolution:
    """The explicit four-term resolution of Z/p^e by J_e.

    Maps: first sends m_t to (-(sigma - 1) sigma^t, p^e sigma^t) and ng
    to (0, N_G); middle sends (alpha, beta) to p^e alpha + (sigma - 1)
    beta; quotient_map is reduction mod (p^e, sigma - 1).  Exactness is
    verified joint by joint on honest lattices.  The image of middle
    and the surjection onto it are built when first read: exactness at
    the free line, proven here, is what guarantees them.
    """
    jm = j_module(cfg, e)
    d = cfg.order
    pe = cfg.p**e
    lam2 = free_module(cfg, 2, names=["u", "v"])
    lam1 = free_module(cfg, 1, names=["w"])
    tmod = trivial_module(cfg, e, name="t")
    one = sigma_power(cfg, 0)
    sig = sigma_power(cfg, 1)

    imgs = []
    for t in range(d):
        neg_shift = _ring(cfg, 1, t) - _ring(cfg, 1, t + 1)
        imgs.append(lam2.element([neg_shift, _ring(cfg, pe, t)]))
    imgs.append(lam2.element([zero_element(cfg), norm_element(cfg)]))
    first = ModuleHom.from_generator_images(jm, lam2, imgs)
    middle = ModuleHom.from_generator_images(
        lam2, lam1, [lam1.element([_ring(cfg, pe)]), lam1.element([sig - one])]
    )
    quotient_map = ModuleHom.from_generator_images(lam1, tmod, [tmod.generator(0)])

    if not is_injective(first):
        raise CyclomodError("resolution: first map failed injectivity")
    if not middle.compose(first).is_zero_map():
        raise CyclomodError("resolution: middle o first is nonzero")
    if not is_exact(first, middle):
        raise CyclomodError("resolution: not exact at the free pair")
    if not is_exact(middle, quotient_map):
        raise CyclomodError("resolution: not exact at the free line")
    if not is_surjective(quotient_map):
        raise CyclomodError("resolution: quotient map failed surjectivity")

    return FourTermResolution(
        j_mod=jm,
        free_pair=lam2,
        free_line=lam1,
        quotient=tmod,
        first=first,
        middle=middle,
        quotient_map=quotient_map,
    )


def h_isomorphism(cfg: GroupConfig, e: int) -> ModuleHom:
    """An explicit isomorphism Zp (+) ideal -> J_e, defined for e >= n.

    The trivial summand's generator u goes to N_G; the ideal generator
    sigma^c - 1 goes to m_0 + ... + m_{c-1} - p^(e-n) c N_G.  Returns
    the verified hom (zero kernel and zero cokernel); raises
    PreconditionViolated when e < n, where no such map exists (the two
    modules have different cohomology there).
    """
    if e < cfg.n:
        raise PreconditionViolated(
            f"the map exists only for exponents >= n = {cfg.n}"
        )
    jm = j_module(cfg, e)
    ideal = augmentation_ideal(cfg)
    ds = direct_sum(zp_trivial(cfg), ideal)
    src = ds.module
    d = cfg.order
    scale = cfg.p ** (e - cfg.n)
    imgs = []
    for c in range(1, d):
        acc = jm.zero()
        for t in range(c):
            acc = acc + jm.generator(t)
        imgs.append(acc - (scale * c) * jm.generator(d))
    on_ideal = ModuleHom.from_generator_images(ideal, jm, imgs)
    mat = linalg.zeros(jm.ctx, jm.model_dim, src.model_dim)
    mat[:, :1] = jm.generator(d).column()
    mat[:, 1:] = on_ideal.matrix
    h = ModuleHom(src, jm, mat)
    if not is_injective(h):
        raise CyclomodError("claimed isomorphism has a kernel")
    if not is_surjective(h):
        raise CyclomodError("claimed isomorphism is not surjective")
    return h


def predicted_unit_structure(
    cfg: GroupConfig, r: int, exponents, unit_rank: int
) -> PresentedModule:
    """The predicted module (+) J_min(e_j, n) (+) ideal (+) free part.

    exponents lists the r cyclic ramification exponents; unit_rank is
    the rank of the full lattice, so unit_rank - r free copies are
    appended.
    """
    exponents = tuple(int(x) for x in exponents)
    if r < 0 or len(exponents) != r:
        raise PreconditionViolated("need exactly r exponents")
    if any(x < 1 for x in exponents):
        raise PreconditionViolated("exponents must be at least 1")
    if unit_rank < r:
        raise PreconditionViolated("the free part would have negative rank")
    parts = [j_module(cfg, min(x, cfg.n)) for x in exponents]
    parts.append(augmentation_ideal(cfg))
    if unit_rank > r:
        parts.append(free_module(cfg, unit_rank - r))
    return direct_sum(*parts).module


@dataclass(frozen=True)
class Theorem1Input:
    """A torsion-free module with the witnesses the pipeline consumes.

    free_witness lists rank elements that must generate a free direct
    factor; ideal_witness is the distinguished element x_0 whose class
    in module/(free part) has annihilator Zp N_G and finite-index span.
    """

    module: PresentedModule
    free_witness: tuple
    ideal_witness: ElementVector
    rank: int


@dataclass(frozen=True)
class Lemma2Result:
    """Output of the kernel-of-projection pipeline.

    kernel is the finite module A inside b; pi is the projection of b
    onto the augmentation ideal; witnesses[(degree, level)] is the
    verified isomorphism from the degree cohomology of the input module
    to that of b, assembled from the three induced maps (to_c1 into the
    free quotient, into_c2 into the padded sum, onto_b from it).
    """

    kernel: Submodule
    b: PresentedModule
    pi: ModuleHom
    c1: PresentedModule
    c2: PresentedModule
    iota: ModuleHom
    to_c1: ModuleHom
    into_c2: ModuleHom
    onto_b: ModuleHom
    witnesses: dict


def lemma2_pipeline(data: Theorem1Input) -> Lemma2Result:
    """Build B = (C/F (+) Zp[G]) / iota(Zp[G]) and identify cohomology.

    With x the class of the ideal witness in C1 = C/F, iota sends alpha
    to (alpha x, alpha N_G); validity of the witnesses makes iota
    injective with torsion-free-rank count rank(B) = p^n - 1, and the
    composite of induced maps

        H(C) -> H(C1) -> H(C1 (+) Zp[G]) -> H(B)

    is an isomorphism in both parities at every level (each leg sits in
    a sequence whose third term is free).  All of this is verified;
    witness failures raise WitnessInvalid.

    The projection pi: B -> ideal descends from (c, beta) |-> (sigma-1)
    beta, and its kernel A is finite with |A| = index of Lambda x in
    C1.
    """
    c = data.module
    cfg = c.cfg
    d = cfg.order
    if not c.is_torsion_free():
        raise WitnessInvalid("pipeline input must be torsion-free")
    if len(data.free_witness) != data.rank:
        raise WitnessInvalid(
            f"rank says {data.rank} free generators, got {len(data.free_witness)}"
        )
    for w in data.free_witness:
        if w.module is not c:
            raise WitnessInvalid("free witness elements must lie in the module")
    if data.ideal_witness.module is not c:
        raise WitnessInvalid("ideal witness must lie in the module")
    if c.zp_rank() != data.rank * d + d - 1:
        raise WitnessInvalid(
            f"module rank {c.zp_rank()} does not match the witnessed shape "
            f"{data.rank} * {d} + {d - 1}"
        )
    if data.rank:
        # c is torsion-free: the image has rank rank * d iff the kernel is zero
        free_hom = ModuleHom.from_generator_images(
            free_module(cfg, data.rank), c, data.free_witness
        )
        if not is_injective(free_hom):
            raise WitnessInvalid(
                "free witness does not generate a free module of the stated rank"
            )
        quot = quotient_by_image(free_hom)
        c1 = quot.module
        x0 = quot.projection.apply(data.ideal_witness)
        to_c1 = quot.projection
    else:
        c1 = c
        x0 = data.ideal_witness
        to_c1 = identity_hom(c)

    lam_probe = free_module(cfg, 1, names=["s"])
    x0_hom = ModuleHom.from_generator_images(lam_probe, c1, [x0])
    ng_hom = scalar_action_hom(lam_probe, norm_element(cfg))
    if not is_exact(ng_hom, x0_hom):
        raise WitnessInvalid("annihilator of the distinguished class is not Zp N_G")
    if len(_span_dvals(c1, x0_hom.matrix)) != c1.model_dim:
        raise WitnessInvalid(
            "the distinguished class does not span the free quotient up to finite index"
        )

    lam_pad = free_module(cfg, 1, names=["y"])
    ds = direct_sum(c1, lam_pad)
    c2 = ds.module
    lam_src = free_module(cfg, 1, names=["z"])
    iota_img = ds.injections[0].apply(x0) + ds.injections[1].apply(
        lam_pad.element([norm_element(cfg)])
    )
    iota = ModuleHom.from_generator_images(lam_src, c2, [iota_img])
    if not is_injective(iota):
        raise WitnessInvalid("iota failed injectivity; witness data is inconsistent")
    qb = quotient_by_image(iota)
    b = qb.module

    ideal = augmentation_ideal(cfg)
    to_ideal = ModuleHom.from_generator_images(
        lam_pad, ideal, [ideal.generator(0)]
    )
    pre_pi = to_ideal.compose(ds.projections[1])
    pi = descend_to_quotient(qb, pre_pi)
    if not is_surjective(pi):
        raise CyclomodError("projection onto the ideal failed surjectivity")
    a_sub = kernel_of(pi)
    if a_sub.module.zp_rank() != 0:
        raise CyclomodError("kernel of the projection came out infinite")
    if b.zp_rank() != d - 1:
        raise CyclomodError(f"rank of B is {b.zp_rank()}, expected {d - 1}")

    into_c2 = ds.injections[0]
    onto_b = qb.projection
    witnesses = {}
    for level in range(1, cfg.n + 1):
        for degree in (0, 1):
            wq = induced_map(to_c1, degree, level)
            w1 = induced_map(into_c2, degree, level)
            w2 = induced_map(onto_b, degree, level)
            for leg, where in ((wq, "free quotient"), (w1, "padded sum"), (w2, "onto B")):
                if not leg.is_isomorphism():
                    raise CyclomodError(
                        f"induced map into the {where} is not an isomorphism "
                        f"(degree {degree}, level {level})"
                    )
            witnesses[(degree, level)] = w2.compose(w1).compose(wq)
    for degree in (0, 1):
        for level in range(1, cfg.n):
            cor_c = corestriction(c, degree, level, level + 1)
            cor_b = corestriction(b, degree, level, level + 1)
            if witnesses[(degree, level + 1)].compose(cor_c) != cor_b.compose(
                witnesses[(degree, level)]
            ):
                raise CyclomodError(
                    f"witness isomorphisms do not commute with corestriction "
                    f"(degree {degree}, levels {level} -> {level + 1})"
                )
            res_c = restriction(c, degree, level + 1, level)
            res_b = restriction(b, degree, level + 1, level)
            if witnesses[(degree, level)].compose(res_c) != res_b.compose(
                witnesses[(degree, level + 1)]
            ):
                raise CyclomodError(
                    f"witness isomorphisms do not commute with restriction "
                    f"(degree {degree}, levels {level + 1} -> {level})"
                )
    return Lemma2Result(
        kernel=a_sub,
        b=b,
        pi=pi,
        c1=c1,
        c2=c2,
        iota=iota,
        to_c1=to_c1,
        into_c2=into_c2,
        onto_b=onto_b,
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class Theorem1Report:
    """What the end-to-end comparison found.

    passed is True when the level diagram matches, top-level even
    cohomology matches, and the second syzygy of the splitting module
    is stably isomorphic to the input; undecided is True when no check
    failed outright but a search gave up.
    """

    pipeline: Lemma2Result
    extension: ExtensionData
    split: SplittingModule
    diagram_verdict: object
    h2_match: bool
    h2_invariants: tuple
    syzygy: PresentedModule
    stripped_free_rank: int
    stable_verdict: object

    @property
    def passed(self) -> bool:
        return bool(self.diagram_verdict) and self.h2_match and bool(self.stable_verdict)

    @property
    def undecided(self) -> bool:
        if self.passed:
            return False
        return isinstance(self.diagram_verdict, Undecided) or isinstance(
            self.stable_verdict, Undecided
        )


def theorem1_verify(data: Theorem1Input, search: IsoSearchConfig | None = None) -> Theorem1Report:
    """Run the pipeline end to end and compare against the input module.

    Pipeline -> extension class -> splitting module M; then three
    comparisons: the level diagram of M against that of the input, the
    even top-level cohomology, and the second syzygy of M (minimal free
    covers twice, free summands stripped) against the input module up
    to free padding.
    """
    if search is None:
        search = IsoSearchConfig()
    res = lemma2_pipeline(data)
    ext = cocycle_from_section(res.pi, res.kernel)
    split = splitting_module(ext)
    m = split.module
    c = data.module
    cfg = c.cfg

    diagram_verdict = diagrams_isomorphic(delta(m), delta(c), search)
    t_m = tate(m, 0, cfg.n)
    t_c = tate(c, 0, cfg.n)
    h2_invariants = (t_m.invariants, t_c.invariants)
    h2_match = sorted(t_m.invariants) == sorted(t_c.invariants)

    _, cover1 = free_cover(m)
    omega1 = kernel_of(cover1).module
    _, cover2 = free_cover(omega1)
    omega2 = kernel_of(cover2).module
    if not omega2.is_torsion_free():
        raise CyclomodError("second syzygy unexpectedly has torsion")
    note = krull_schmidt_note(omega2)
    stable_verdict = stably_isomorphic(note.complement, c, search)
    return Theorem1Report(
        pipeline=res,
        extension=ext,
        split=split,
        diagram_verdict=diagram_verdict,
        h2_match=h2_match,
        h2_invariants=h2_invariants,
        syzygy=omega2,
        stripped_free_rank=note.free_rank,
        stable_verdict=stable_verdict,
    )
