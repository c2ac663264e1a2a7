"""Verification batteries with deterministic, serializable reports.

Each suite_* function runs a fixed battery of checks and returns a
SuiteReport.  Reports carry no timing and no machine state, only check
names, statuses and value summaries, so two runs with the same knobs
produce identical dictionaries.  The intended consumers are the command
line front end (exit code from SuiteReport.status) and the test suite
(frozen expected values).

A check built from a search verdict has one status rule: pass when the
verdict's truth value is the one the check expects, undecided when the
search gave up (Undecided), fail otherwise.  So a battery whose searches
run out of budget reports undecided, never fail, for those checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .config import GroupConfig, IsoSearchConfig
from .cohomology import is_cohomologically_trivial, tate
from .constructions import (
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
from .errors import CyclomodError, NotACocycle, PreconditionViolated, WitnessInvalid
from .modules import (
    PresentedModule,
    Submodule,
    augmentation_ideal,
    direct_sum,
    fixed_points,
    free_module,
    quotient_group_module,
    trivial_module,
    zp_trivial,
)
from .oracle import StableIso, krull_schmidt_note, modules_isomorphic, stably_isomorphic
from .verdicts import NotIsomorphic, NotStablyIsomorphic, Undecided
from .yakovlev import DiagramIso, check_axioms, delta, diagrams_isomorphic

PASS = "pass"
FAIL = "fail"
UNDECIDED = "undecided"

# Desk-scale configurations: precision chosen so p^N stays within the
# fast integer dtype while leaving headroom above n + guard + 1.
CONFIG_31 = GroupConfig(3, 1, 11)
CONFIG_32 = GroupConfig(3, 2, 12)
CONFIG_51 = GroupConfig(5, 1, 10)
CONFIG_52 = GroupConfig(5, 2, 10)

DEFAULT_CONFIGS = (CONFIG_31, CONFIG_32, CONFIG_51)


@dataclass(frozen=True)
class CheckResult:
    """A single named check outcome."""

    name: str
    status: str
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one battery: knob echo plus per-check results."""

    suite: str
    knobs: dict = field(compare=False)
    checks: tuple = ()

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        if FAIL in statuses:
            return FAIL
        if UNDECIDED in statuses:
            return UNDECIDED
        return PASS

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, UNDECIDED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "knobs": dict(self.knobs),
            "status": self.status,
            "counts": self.counts,
            "checks": [c.to_dict() for c in self.checks],
        }

    def failures(self) -> list:
        return [c for c in self.checks if c.status == FAIL]


class _Collector:
    def __init__(self):
        self.checks = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, PASS if ok else FAIL, detail))

    def add_verdict(self, name: str, verdict, expect: bool, detail: str | None = None) -> None:
        """Record a search verdict: pass when its truth value is expect,
        undecided when the search gave up, else fail.  Iso, StableIso and
        DiagramIso are true, every other verdict false.  The detail is
        _verdict_detail(verdict) unless a pass is given one."""
        if isinstance(verdict, Undecided):
            status = UNDECIDED
        else:
            status = PASS if bool(verdict) == expect else FAIL
        if status != PASS or detail is None:
            detail = _verdict_detail(verdict)
        self.checks.append(CheckResult(name, status, detail))

    def guarded(self, name: str, fn):
        """Run fn and return its value; pass unless it raises CyclomodError."""
        try:
            value = fn()
        except CyclomodError as exc:
            self.add(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.add(name, True)
        return value


def _verdict_detail(verdict) -> str:
    if isinstance(verdict, (NotIsomorphic, NotStablyIsomorphic)):
        return f"{type(verdict).__name__}: {verdict.reason}"
    if isinstance(verdict, Undecided):
        return f"Undecided: {verdict.reason}"
    return type(verdict).__name__


def random_presented_module(cfg: GroupConfig, rng: random.Random) -> PresentedModule:
    """A small seeded presentation: 1-3 generators, 0-3 relations.

    Coefficient values stay within a couple of p-multiples of zero so
    the relation lattice never approaches the working precision.
    """
    k = rng.randint(1, 3)
    n_rel = rng.randint(0, 3)
    d = cfg.order
    rows = []
    for _ in range(n_rel):
        row = []
        for _ in range(k):
            coeffs = []
            for _ in range(d):
                v = rng.randint(-2, 2)
                if rng.random() < 0.3:
                    v *= cfg.p
                coeffs.append(v)
            row.append(tuple(coeffs))
        rows.append(tuple(row))
    return PresentedModule(cfg, [f"g{i}" for i in range(k)], rows)


# -- battery 1: the J-family ---------------------------------------------


def suite_lemma3(
    configs=None, search: IsoSearchConfig | None = None, e_max: int | None = None
) -> SuiteReport:
    """J-family battery: cohomology values, resolutions, identifications.

    For every config and every e in 0..n+1 (capped by e_max): both
    parities of every subgroup level of J_e match Z/p^min(e, level);
    the four-term resolution through two free covers verifies exact;
    the explicit two-variable isomorphism onto J_e exists for e >= n.
    Then the J_0..J_n are pairwise non-isomorphic and J_(n+1) is
    identified with Zp (+) I by the oracle.
    """
    if configs is None:
        configs = DEFAULT_CONFIGS + (CONFIG_52,)
    if search is None:
        search = IsoSearchConfig()
    col = _Collector()
    for cfg in configs:
        tag = f"p{cfg.p}n{cfg.n}"
        top_e = cfg.n + 1 if e_max is None else max(0, min(cfg.n + 1, e_max))
        for e in range(top_e + 1):
            jm = col.guarded(f"{tag}.J{e}.build", lambda e=e, cfg=cfg: j_module(cfg, e))
            if jm is None:
                continue
            for level in range(1, cfg.n + 1):
                for degree in (0, 1):
                    expect = min(e, level)
                    got = tate(jm, degree, level).invariants
                    want = (expect,) if expect else ()
                    col.add(
                        f"{tag}.J{e}.tate.deg{degree}.lvl{level}",
                        got == want,
                        f"invariants {got}, expected {want}",
                    )
            col.guarded(
                f"{tag}.J{e}.resolution",
                lambda e=e, cfg=cfg: lemma3_resolution(cfg, e),
            )
            if e >= cfg.n:
                col.guarded(
                    f"{tag}.J{e}.h_isomorphism",
                    lambda e=e, cfg=cfg: h_isomorphism(cfg, e),
                )
        js = [j_module(cfg, e) for e in range(top_e + 1)]
        pair_top = min(cfg.n, top_e)
        for a in range(pair_top + 1):
            for b in range(a + 1, pair_top + 1):
                verdict = modules_isomorphic(js[a], js[b], search)
                col.add_verdict(f"{tag}.J{a}.vs.J{b}", verdict, False)
        if top_e == cfg.n + 1:
            top = direct_sum(zp_trivial(cfg), augmentation_ideal(cfg)).module
            verdict = modules_isomorphic(js[cfg.n + 1], top, search)
            col.add_verdict(f"{tag}.J{cfg.n + 1}.is.Zp+ideal", verdict, True)
    knobs = {
        "configs": [cfg.describe() for cfg in configs],
        "seed": search.seed,
        "e_max": e_max,
    }
    return SuiteReport("lemma3", knobs, tuple(col.checks))


# -- battery 2: diagram axioms -------------------------------------------


def suite_axioms(seed: int = 0, configs=None, count: int = 25) -> SuiteReport:
    """Level diagrams of seeded random modules satisfy the category laws."""
    if configs is None:
        configs = DEFAULT_CONFIGS
    col = _Collector()
    for cfg in configs:
        rng = random.Random((seed, cfg.p, cfg.n).__repr__())
        for i in range(count):
            mod = random_presented_module(cfg, rng)
            name = f"p{cfg.p}n{cfg.n}.module{i}"
            try:
                problems = check_axioms(delta(mod))
            except CyclomodError as exc:
                col.add(name, False, f"{type(exc).__name__}: {exc}")
                continue
            col.add(name, not problems, "; ".join(problems))
    knobs = {
        "configs": [cfg.describe() for cfg in configs],
        "seed": seed,
        "count": count,
    }
    return SuiteReport("axioms", knobs, tuple(col.checks))


# -- battery 3: splitting modules ----------------------------------------


def _splitting_instances():
    """Ten extension-data instances spanning split and nonsplit classes."""
    out = []
    k31 = trivial_module(CONFIG_31, 1)
    out.append(("split.trivial.p3", zero_extension(k31)))
    out.append(("nonsplit.carry.p3", carry_cocycle(k31)))
    k31b = trivial_module(CONFIG_31, 2)
    out.append(("split.trivial.p3e2", zero_extension(k31b)))
    out.append(("nonsplit.carry.p3e2", carry_cocycle(k31b)))
    ring31 = PresentedModule(CONFIG_31, ["x"], [((3, 0, 0),)])
    out.append(("split.ringaction.p3", zero_extension(ring31)))
    # carry table valued in the fixed line of the ring-action kernel;
    # its class is trivial, so this is a nonzero table of the split class
    fixed = ring31.element([(1, 1, 1)])
    out.append(("splitclass.carrytable.p3", carry_cocycle(ring31, fixed)))
    k32 = trivial_module(CONFIG_32, 2)
    out.append(("split.trivial.p3n2", zero_extension(k32)))
    out.append(("nonsplit.carry.p3n2", carry_cocycle(trivial_module(CONFIG_32, 1))))
    k51 = trivial_module(CONFIG_51, 1)
    out.append(("split.trivial.p5", zero_extension(k51)))
    out.append(("nonsplit.carry.p5", carry_cocycle(k51)))
    return out


def _random_cochain(kernel: PresentedModule, rng: random.Random) -> list:
    gens = kernel.generator_elements()
    d = kernel.cfg.order
    out = []
    for _ in range(d):
        elt = kernel.zero()
        for g in gens:
            elt = elt + rng.randint(0, kernel.cfg.p**2 - 1) * g
        out.append(elt)
    return out


def suite_splitting(seed: int = 0, search: IsoSearchConfig | None = None) -> SuiteReport:
    """Splitting-module battery: exactness, class independence, round trip."""
    if search is None:
        search = IsoSearchConfig(seed=seed)
    rng = random.Random(seed)
    col = _Collector()
    for name, ext in _splitting_instances():
        sm = col.guarded(f"{name}.exact", lambda ext=ext: splitting_module(ext))
        if sm is None:
            continue
        shifted = coboundary_shift(ext, _random_cochain(ext.kernel, rng))
        sm2 = col.guarded(
            f"{name}.shifted.exact", lambda shifted=shifted: splitting_module(shifted)
        )
        if sm2 is not None:
            verdict = modules_isomorphic(sm.module, sm2.module, search)
            col.add_verdict(f"{name}.class_independence", verdict, True)
        def _round_trip(sm=sm):
            ext2 = cocycle_from_section(
                sm.projection, Submodule(sm.kernel_hom.source, sm.kernel_hom)
            )
            return splitting_module(ext2)
        sm3 = col.guarded(f"{name}.reextract", _round_trip)
        if sm3 is not None:
            verdict = modules_isomorphic(sm.module, sm3.module, search)
            col.add_verdict(f"{name}.round_trip", verdict, True)
    # frozen spot values for the first nonsplit instance: the middle
    # module has vanishing even cohomology, Z/p odd cohomology, and is
    # not the direct sum of its ends
    m = splitting_module(carry_cocycle(trivial_module(CONFIG_31, 1))).module
    col.add("carry.p3.even", tate(m, 0, 1).invariants == (), str(tate(m, 0, 1).invariants))
    col.add("carry.p3.odd", tate(m, 1, 1).invariants == (1,), str(tate(m, 1, 1).invariants))
    col.add("carry.p3.not_cohomologically_trivial", not is_cohomologically_trivial(m))
    ends = direct_sum(trivial_module(CONFIG_31, 1), augmentation_ideal(CONFIG_31)).module
    col.add_verdict("carry.p3.not_split_sum", modules_isomorphic(m, ends, search), False, "")
    split_m = splitting_module(zero_extension(trivial_module(CONFIG_31, 1))).module
    col.add_verdict("split.p3.is_split_sum", modules_isomorphic(split_m, ends, search), True, "")
    zero_kernel = trivial_module(CONFIG_31, 0)
    m_ideal = splitting_module(zero_extension(zero_kernel)).module
    ideal_verdict = modules_isomorphic(m_ideal, augmentation_ideal(CONFIG_31), search)
    col.add_verdict("zerokernel.p3.is_ideal", ideal_verdict, True, "")
    knobs = {"seed": seed, "instances": [n for n, _ in _splitting_instances()]}
    return SuiteReport("splitting", knobs, tuple(col.checks))


# -- battery 4: the kernel-of-projection pipeline -------------------------


def _pipeline_input(shape: str, cfg: GroupConfig) -> Theorem1Input:
    """The pipeline input of a shape: ideal, ideal+free, J1+ideal or J1+ideal+free.

    The parts are J_1, then the augmentation ideal, then Lambda named f.
    The free witnesses are generator 0 of every part but the ideal
    (generator 0 of J_1 is p * 1, which spans a free finite-index
    sublattice of the J-summand); the ideal witness is the ideal's
    generator 0.
    """
    parts = [j_module(cfg, 1)] if shape.startswith("J1+") else []
    at, ideal = len(parts), augmentation_ideal(cfg)
    if shape == "ideal":
        return Theorem1Input(module=ideal, free_witness=(), ideal_witness=ideal.generator(0), rank=0)
    parts.append(ideal)
    if shape.endswith("+free"):
        parts.append(free_module(cfg, 1, names=["f"]))
    ds = direct_sum(*parts)
    free = tuple(ds.injections[i].apply(m.generator(0)) for i, m in enumerate(parts) if i != at)
    return Theorem1Input(
        module=ds.module,
        free_witness=free,
        ideal_witness=ds.injections[at].apply(ideal.generator(0)),
        rank=len(free),
    )


def _pipeline_battery():
    """Named Theorem1Input instances with their hand-verified kernel invariants."""
    return [
        ("ideal.p3n1", _pipeline_input("ideal", CONFIG_31), (1,)),
        ("ideal.p3n2", _pipeline_input("ideal", CONFIG_32), (2,)),
        ("ideal.p5n1", _pipeline_input("ideal", CONFIG_51), (1,)),
        ("ideal+free.p3n1", _pipeline_input("ideal+free", CONFIG_31), (1,)),
        ("J1+ideal.p3n1", _pipeline_input("J1+ideal", CONFIG_31), (1, 1)),
        ("J1+ideal.p5n1", _pipeline_input("J1+ideal", CONFIG_51), (1, 1)),
    ]


def suite_lemma2(search: IsoSearchConfig | None = None) -> SuiteReport:
    """Pipeline battery: finite kernel sizes, rank law, verified shifts.

    The pipeline itself verifies the degree-shift isomorphisms and
    their commutation with restriction and corestriction as matrix
    identities; a battery entry passing means all of that held.  On top
    the suite pins the exact kernel invariants and the rank law
    rank B = p^n - 1 + p^n * (free rank of B), the last term vanishing
    because the free witness is quotiented out before B is formed.
    """
    if search is None:
        search = IsoSearchConfig()
    col = _Collector()
    battery = _pipeline_battery()
    for name, data, expect_kernel in battery:
        res = col.guarded(f"{name}.pipeline", lambda data=data: lemma2_pipeline(data))
        if res is None:
            continue
        a = res.kernel.module
        col.add(
            f"{name}.kernel_invariants",
            a.torsion_invariants() == expect_kernel and a.zp_rank() == 0,
            f"invariants {a.torsion_invariants()}, order p^{sum(a.torsion_invariants())}",
        )
        cfg = data.module.cfg
        free_rank_b = krull_schmidt_note(res.b).free_rank
        want = cfg.order - 1 + cfg.order * free_rank_b
        col.add(
            f"{name}.rank_law",
            res.b.zp_rank() == want and free_rank_b == 0,
            f"rank {res.b.zp_rank()}, free summands {free_rank_b}",
        )
    knobs = {"battery": [name for name, _, _ in battery], "seed": search.seed}
    return SuiteReport("lemma2", knobs, tuple(col.checks))


# -- battery 5: invariants under subgroups --------------------------------


def suite_prop4(search: IsoSearchConfig | None = None) -> SuiteReport:
    """Fixed points of the big-group augmentation ideal, read over the quotient.

    For the order-9 group with order-3 subgroup: the subgroup-fixed
    points of the augmentation ideal, viewed as a module for the
    quotient group, are oracle-isomorphic to the quotient group's own
    augmentation ideal.
    """
    if search is None:
        search = IsoSearchConfig()
    col = _Collector()
    big = CONFIG_32
    fp = fixed_points(augmentation_ideal(big), level=1)
    qm = quotient_group_module(fp.module, 1)
    small_ideal = augmentation_ideal(big.quotient(1))
    col.add(
        "fixed_points.rank",
        qm.invariant_summary() == (big.p - 1, ()),
        f"summary {qm.invariant_summary()}",
    )
    verdict = modules_isomorphic(qm, small_ideal, search)
    col.add_verdict("fixed_points.is_quotient_ideal", verdict, True)
    knobs = {"config": big.describe(), "seed": search.seed}
    return SuiteReport("prop4", knobs, tuple(col.checks))


PROP5_INSTANCES = (
    (1, (1,), 1),
    (1, (2,), 1),
    (1, (1,), 2),
    (2, (1, 2), 2),
)


def suite_prop5(instances=None, search: IsoSearchConfig | None = None) -> SuiteReport:
    """Predicted-structure comparisons at the level-diagram layer.

    For each (r, exponents, n): the diagram of (+) Z/p^e_j (trivial
    action) (+) ideal matches the diagram of (+) J_min(e_j, n) (+)
    ideal, and the top-level even cohomology invariants agree.  n is 1
    (CONFIG_31) or 2 (CONFIG_32); another n raises PreconditionViolated.
    """
    if instances is None:
        instances = PROP5_INSTANCES
    for _, _, n in instances:
        if n not in (1, 2):
            raise PreconditionViolated(f"prop5 runs at n = 1 or 2, not n = {n}")
    if search is None:
        search = IsoSearchConfig()
    col = _Collector()
    for r, exps, n in instances:
        cfg = CONFIG_32 if n == 2 else CONFIG_31
        name = f"r{r}.e{''.join(map(str, exps))}.n{n}"
        parts = [trivial_module(cfg, e) for e in exps]
        parts.append(augmentation_ideal(cfg))
        lhs = direct_sum(*parts).module
        rhs = predicted_unit_structure(cfg, r, exps, unit_rank=r)
        verdict = diagrams_isomorphic(delta(lhs), delta(rhs), search)
        col.add_verdict(f"{name}.diagram", verdict, True)
        h_l = tate(lhs, 0, cfg.n).invariants
        h_r = tate(rhs, 0, cfg.n).invariants
        col.add(
            f"{name}.h2",
            sorted(h_l) == sorted(h_r),
            f"{h_l} vs {h_r}",
        )
    knobs = {
        "instances": [f"r={r} exps={list(e)} n={n}" for r, e, n in instances],
        "seed": search.seed,
    }
    return SuiteReport("prop5", knobs, tuple(col.checks))


# -- battery 6: the full verification chain --------------------------------


def suite_theorem1(search: IsoSearchConfig | None = None) -> SuiteReport:
    """End-to-end chain on six pipeline inputs, two with a free summand.

    Each case must produce a matching level diagram, matching top-level
    even cohomology, and a stable isomorphism between the double-syzygy
    complement and the input: an isomorphism up to free summands.
    """
    if search is None:
        search = IsoSearchConfig()
    col = _Collector()
    cases = [
        ("ideal.p3n1", _pipeline_input("ideal", CONFIG_31)),
        ("ideal+free.p3n1", _pipeline_input("ideal+free", CONFIG_31)),
        ("J1+ideal.p3n1", _pipeline_input("J1+ideal", CONFIG_31)),
        ("J1+ideal+free.p3n1", _pipeline_input("J1+ideal+free", CONFIG_31)),
        ("ideal.p5n1", _pipeline_input("ideal", CONFIG_51)),
        ("ideal.p3n2", _pipeline_input("ideal", CONFIG_32)),
    ]
    for name, data in cases:
        report = col.guarded(f"{name}.chain", lambda data=data: theorem1_verify(data, search))
        if report is None:
            continue
        col.add_verdict(f"{name}.diagram", report.diagram_verdict, True)
        col.add(
            f"{name}.h2",
            report.h2_match,
            f"{report.h2_invariants[0]} vs {report.h2_invariants[1]}",
        )
        sv = report.stable_verdict
        detail = f"pads {(sv.pad_first, sv.pad_second)}" if isinstance(sv, StableIso) else None
        col.add_verdict(f"{name}.stable", sv, True, detail)
    knobs = {"cases": [n for n, _ in cases], "seed": search.seed}
    return SuiteReport("theorem1", knobs, tuple(col.checks))


# -- battery 6b: soundness cross-check -------------------------------------


def _yakovlev_pool():
    pools = []
    for cfg in (CONFIG_31, CONFIG_32):
        tag = f"p{cfg.p}n{cfg.n}"
        ideal = augmentation_ideal(cfg)
        pool = [
            (f"{tag}.ideal", ideal),
            (f"{tag}.ring", free_module(cfg, 1)),
            (f"{tag}.zp", zp_trivial(cfg)),
            (f"{tag}.zp+ideal", direct_sum(zp_trivial(cfg), ideal).module),
        ]
        for e in range(1, cfg.n + 2):
            pool.append((f"{tag}.J{e}", j_module(cfg, e)))
        pools.append((cfg, pool))
    return pools


def suite_yakovlev(search: IsoSearchConfig | None = None) -> SuiteReport:
    """Diagram-plus-H2 equivalence never contradicts the stable oracle.

    Over a pool of torsion-free modules: whenever the level diagrams
    are isomorphic and the top even cohomology matches, the stable
    oracle must not refute (it may leave the pair undecided); whenever
    the oracle finds a stable isomorphism, the diagrams and cohomology
    must have matched.
    """
    if search is None:
        search = IsoSearchConfig()
    col = _Collector()
    for cfg, pool in _yakovlev_pool():
        deltas = {name: delta(mod) for name, mod in pool}
        h2s = {name: tuple(sorted(tate(mod, 0, cfg.n).invariants)) for name, mod in pool}
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                n1, m1 = pool[i]
                n2, m2 = pool[j]
                dv = diagrams_isomorphic(deltas[n1], deltas[n2], search)
                agree = isinstance(dv, DiagramIso) and h2s[n1] == h2s[n2]
                sv = stably_isomorphic(m1, m2, search)
                name = f"{n1}.vs.{n2}"
                if agree:
                    col.add_verdict(name, sv, True, "agree, stable iso found")
                else:
                    col.add(
                        name,
                        not isinstance(sv, StableIso),
                        "invariants differ, oracle consistent"
                        if not isinstance(sv, StableIso)
                        else "stable iso found despite differing invariants",
                    )
    knobs = {"seed": search.seed}
    return SuiteReport("yakovlev", knobs, tuple(col.checks))


# -- battery 7: negative controls ------------------------------------------


def suite_negative(search: IsoSearchConfig | None = None) -> SuiteReport:
    """Controls that must be rejected, each by the advertised error."""
    if search is None:
        search = IsoSearchConfig()
    col = _Collector()

    dv = diagrams_isomorphic(
        delta(j_module(CONFIG_32, 1)), delta(j_module(CONFIG_32, 2)), search
    )
    col.add_verdict("J1.vs.J2.diagrams", dv, False)

    sv = stably_isomorphic(augmentation_ideal(CONFIG_31), zp_trivial(CONFIG_31), search)
    col.add_verdict("ideal.vs.zp.stable", sv, False)

    kernel = trivial_module(CONFIG_31, 1)
    good = carry_cocycle(kernel)
    table = good.cocycle.copy()
    table[1, 1] += kernel.generator(0).coords
    try:
        ExtensionData(kernel, table)
        col.add("corrupted.cocycle", False, "corrupted table accepted")
    except NotACocycle as exc:
        col.add("corrupted.cocycle", True, str(exc))

    torsioned = direct_sum(
        trivial_module(CONFIG_31, 1), augmentation_ideal(CONFIG_31)
    ).module
    data = Theorem1Input(
        module=torsioned,
        free_witness=(),
        ideal_witness=torsioned.generator(1),
        rank=0,
    )
    try:
        theorem1_verify(data, search)
        col.add("torsion.input", False, "torsion module accepted")
    except WitnessInvalid as exc:
        col.add("torsion.input", True, str(exc))

    knobs = {"seed": search.seed}
    return SuiteReport("negative", knobs, tuple(col.checks))


ALL_SUITES = {
    "lemma3": suite_lemma3,
    "axioms": suite_axioms,
    "splitting": suite_splitting,
    "lemma2": suite_lemma2,
    "prop4": suite_prop4,
    "prop5": suite_prop5,
    "theorem1": suite_theorem1,
    "yakovlev": suite_yakovlev,
    "negative": suite_negative,
}
