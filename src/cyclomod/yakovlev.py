"""Level diagrams of odd-degree Tate groups and their isomorphism.

For a module M and each subgroup level i = 1 .. n the diagram records
the finite group H_i = Tate cohomology in degree -1 of the level-i
subgroup, the action of the generator sigma on it, and the two
connecting families

  alpha_i : H_i -> H_(i+1)   (corestriction)
  beta_i  : H_(i+1) -> H_i   (restriction)

subject to the composition laws alpha.beta = p and beta.alpha = action
of the coset sum, plus sigma-equivariance.  For torsion-free modules
this diagram is a complete isomorphism invariant of the stable module
class, which is why the package treats it as the primary fingerprint.

A diagram can exist detached from any module (e.g. loaded from a file);
check_axioms validates the abstract data.  diagrams_isomorphic looks for
level matrices X_i : H_i -> H'_i, invertible mod p, with X_t A = A' X_s
for every arrow: _arrows lists the maps of a diagram as (source level,
target level, matrix), sigma_1 .. sigma_n and then alpha_i, beta_i.
Writing X_i = G_i * Y_i entrywise, G_i[r, c] = p^max(0, f'_r - f_c), makes
every X_i well defined, and an arrow pair becomes one block of linear
congruences in the row-major entries of the Y_i (row r holds mod p^(f'_r)
and is scaled to the common working modulus).  The kernel of the stacked
blocks is searched for an invertible family with the search
linalg.search_invertible shares with the module oracle, and each
candidate is checked again square by square.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .arith import sigma_power
from .cohomology import CohomMap, canon_map_matrix, corestriction, restriction, tate
from .config import IsoSearchConfig
from .errors import AxiomViolation, ParseError
from .modules import PresentedModule
from .verdicts import NotIsomorphic, Undecided

__all__ = [
    "YakovlevDiagram",
    "DiagramIso",
    "delta",
    "check_axioms",
    "diagrams_isomorphic",
]


@dataclass(eq=False)
class YakovlevDiagram:
    """Abstract level diagram; matrices are plain integer lists of lists.

    invariants[i-1] lists the cyclic summand exponents of H_i, largest
    first.  sigma[i-1] is the generator action on H_i coordinates.
    alpha[i-1] maps level i to level i+1, beta[i-1] the other way.
    groups keeps the originating Tate groups when the diagram was built
    from a module, so classes can still be reduced; it is not part of
    the abstract data and is ignored by comparisons and serialization.
    """

    p: int
    n: int
    invariants: tuple
    sigma: tuple
    alpha: tuple
    beta: tuple
    groups: tuple | None = field(default=None, compare=False, repr=False)

    def __eq__(self, other) -> bool:
        # numpy matrix fields make the generated comparison ambiguous,
        # so compare the normalized abstract data instead
        if not isinstance(other, YakovlevDiagram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        return {
            "kind": "diagram",
            "p": self.p,
            "n": self.n,
            "levels": [
                {
                    "invariants": list(self.invariants[i]),
                    "sigma": _tolist(self.sigma[i]),
                }
                for i in range(self.n)
            ],
            "alpha": [_tolist(a) for a in self.alpha],
            "beta": [_tolist(b) for b in self.beta],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "YakovlevDiagram":
        try:
            if data.get("kind") != "diagram":
                raise ParseError("expected a diagram record")
            p = int(data["p"])
            n = int(data["n"])
            levels = data["levels"]
            if len(levels) != n:
                raise ParseError(f"expected {n} levels, found {len(levels)}")
            invariants = tuple(tuple(int(x) for x in lv["invariants"]) for lv in levels)
            if any(e < 0 for inv in invariants for e in inv):
                raise ParseError("negative exponent in the level invariants")
            sizes = [len(inv) for inv in invariants]
            sigma = tuple(
                _toarray(lv["sigma"], p, invariants[i], sizes[i])
                for i, lv in enumerate(levels)
            )
            if len(data["alpha"]) != max(n - 1, 0) or len(data["beta"]) != max(n - 1, 0):
                raise ParseError("wrong number of connecting maps")
            alpha = tuple(
                _toarray(data["alpha"][i], p, invariants[i + 1], sizes[i])
                for i in range(n - 1)
            )
            beta = tuple(
                _toarray(data["beta"][i], p, invariants[i], sizes[i + 1])
                for i in range(n - 1)
            )
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed diagram record: {exc}") from exc
        return cls(p=p, n=n, invariants=invariants, sigma=sigma, alpha=alpha, beta=beta)


def _tolist(mat) -> list:
    a = np.asarray(mat)
    return [[int(x) for x in row] for row in a]


def _toarray(rows, p: int, exps, cols: int) -> np.ndarray:
    """A map matrix with row r reduced mod p^exps[r] in Python integers,
    so that no entry is cast to int64 before it is reduced."""
    shape = (len(exps), cols)
    a = np.array(rows, dtype=object) if len(rows) else np.zeros(shape, dtype=object)
    if a.shape != shape:
        raise ParseError(f"matrix has shape {a.shape}, expected {shape}")
    reduced = [[int(x) % p**f for x in row] for row, f in zip(a, exps)]
    try:
        return np.array(reduced, dtype=np.int64).reshape(shape)
    except OverflowError as exc:
        raise ParseError(f"matrix entry out of range after reduction: {exc}") from exc


@dataclass(frozen=True)
class DiagramIso:
    """A verified family of level isomorphisms between two diagrams."""

    level_matrices: tuple

    def __bool__(self) -> bool:
        return True


def delta(module: PresentedModule) -> YakovlevDiagram:
    """The level diagram of a module, built from degree -1 Tate groups."""
    cfg = module.cfg
    groups = [tate(module, -1, i) for i in range(1, cfg.n + 1)]
    sig = sigma_power(cfg, 1)
    sigma_mats = []
    for g in groups:
        m = CohomMap.from_representative_matrix(g, g, module.act_matrix(sig))
        sigma_mats.append(m.matrix)
    alpha = []
    beta = []
    for i in range(1, cfg.n):
        alpha.append(corestriction(module, -1, i, i + 1).matrix)
        beta.append(restriction(module, -1, i + 1, i).matrix)
    diagram = YakovlevDiagram(
        p=cfg.p,
        n=cfg.n,
        invariants=tuple(g.invariants for g in groups),
        sigma=tuple(sigma_mats),
        alpha=tuple(alpha),
        beta=tuple(beta),
        groups=tuple(groups),
    )
    problems = check_axioms(diagram)
    if problems:
        raise AxiomViolation(
            "computed diagram violates its own axioms: " + "; ".join(problems)
        )
    return diagram


def _gap_matrix(p: int, src_exps, tgt_exps) -> np.ndarray:
    """G[r, c] = p^max(0, f_r - f_c): entries of a map into a larger
    summand must carry the exponent gap."""
    gaps = [[p ** max(0, fr - fc) for fc in src_exps] for fr in tgt_exps]
    return np.array(gaps, dtype=object).reshape(len(tgt_exps), len(src_exps))


def _hom_shape_ok(mat, src_exps, tgt_exps) -> bool:
    return np.asarray(mat).shape == (len(tgt_exps), len(src_exps))


def _hom_divisibility(mat, p, src_exps, tgt_exps) -> bool:
    residues = np.asarray(mat).astype(object) % _gap_matrix(p, src_exps, tgt_exps)
    return not residues.any()


def _product(x, y, p: int, exps) -> np.ndarray:
    """x y mod p^max(exps) by linalg.matmul, row r then reduced mod p^exps[r]."""
    ctx = linalg.Context(p, max(exps, default=0), 0)
    return canon_map_matrix(linalg.matmul(ctx, linalg.mat(ctx, x), linalg.mat(ctx, y)), p, exps)


def _mat_pow_mod(mat: np.ndarray, e: int, p: int, exps) -> np.ndarray:
    size = len(exps)
    out = np.eye(size, dtype=np.int64)
    for _ in range(e):
        out = _product(out, mat, p, exps)
    return out


def check_axioms(diagram: YakovlevDiagram) -> list:
    """Validate the abstract diagram laws; returns a list of violations."""
    p, n = diagram.p, diagram.n
    problems = []
    if len(diagram.invariants) != n or len(diagram.sigma) != n:
        return [f"expected {n} levels of data"]
    if len(diagram.alpha) != max(n - 1, 0) or len(diagram.beta) != max(n - 1, 0):
        return ["wrong number of connecting maps"]
    # Levels whose moduli p^e are meaningless (negative e) or need not fit
    # int64 (e past the level): no map touching them is reduced.
    outside = set()
    for i in range(1, n + 1):
        exps = diagram.invariants[i - 1]
        sig = diagram.sigma[i - 1]
        if list(exps) != sorted(exps, reverse=True):
            problems.append(f"level {i}: invariants are not sorted")
        if any(not 0 < e <= i for e in exps):
            problems.append(
                f"level {i}: exponent outside (0, {i}] "
                f"(the group is killed by its subgroup order)"
            )
            outside.add(i)
        if not _hom_shape_ok(sig, exps, exps):
            problems.append(f"level {i}: sigma matrix has wrong shape")
            continue
        if i in outside:
            continue
        if not _hom_divisibility(sig, p, exps, exps):
            problems.append(f"level {i}: sigma is not a well-defined endomorphism")
        order = p ** (n - i)
        if not np.array_equal(
            _mat_pow_mod(canon_map_matrix(sig, p, exps), order, p, exps),
            canon_map_matrix(np.eye(len(exps), dtype=np.int64), p, exps),
        ):
            problems.append(f"level {i}: sigma^(p^{n - i}) is not the identity")
    for i in range(1, n):
        lo = diagram.invariants[i - 1]
        hi = diagram.invariants[i]
        a = diagram.alpha[i - 1]
        b = diagram.beta[i - 1]
        if not _hom_shape_ok(a, lo, hi) or not _hom_shape_ok(b, hi, lo):
            problems.append(f"levels {i}->{i + 1}: connecting map shape mismatch")
            continue
        if i in outside or i + 1 in outside:
            continue
        sig_lo = canon_map_matrix(diagram.sigma[i - 1], p, lo)
        sig_hi = canon_map_matrix(diagram.sigma[i], p, hi)
        pair = (("alpha", a, lo, hi, sig_lo, sig_hi), ("beta", b, hi, lo, sig_hi, sig_lo))
        for name, m, src, tgt, _, _ in pair:
            if not _hom_divisibility(m, p, src, tgt):
                problems.append(f"{name}_{i} is not a well-defined homomorphism")
        for name, m, src, tgt, sig_src, sig_tgt in pair:
            if not np.array_equal(_product(m, sig_src, p, tgt), _product(sig_tgt, m, p, tgt)):
                problems.append(f"{name}_{i} does not commute with sigma")
        ab = _product(a, b, p, hi)
        if not np.array_equal(ab, canon_map_matrix(p * np.eye(len(hi), dtype=np.int64), p, hi)):
            problems.append(f"alpha_{i} beta_{i} is not multiplication by {p}")
        coset = np.zeros((len(lo), len(lo)), dtype=np.int64)
        step = p ** (n - i - 1)
        for t in range(p):
            coset = canon_map_matrix(coset + _mat_pow_mod(sig_lo, t * step, p, lo), p, lo)
        if not np.array_equal(_product(b, a, p, lo), coset):
            problems.append(f"beta_{i} alpha_{i} is not the coset-sum action")
    return problems


# -- isomorphism search ------------------------------------------------


def _arrows(diagram: YakovlevDiagram) -> list:
    """Every map of the diagram as (source level, target level, matrix),
    levels counted from 0: sigma_1 .. sigma_n, then alpha_i and beta_i."""
    arrows = [(i, i, sig) for i, sig in enumerate(diagram.sigma)]
    for i in range(diagram.n - 1):
        arrows += [(i, i + 1, diagram.alpha[i]), (i + 1, i, diagram.beta[i])]
    return arrows


def _constraint_matrix(d1, d2, gaps, work_prec) -> np.ndarray:
    """X_t A1 = A2 X_s for every arrow pair, as rows in the unknowns Y_i.

    With each Y_i flattened row-major and X_i = G_i * Y_i entrywise,
    vec(X_t A1) = (I kron A1^T) diag(vec G_t) vec(Y_t) and
    vec(A2 X_s) = (A2 kron I) diag(vec G_s) vec(Y_s).  Row r of a block
    holds mod p^f (f the exponent of summand r of level t in d2) and is
    scaled by p^(work_prec - f), so that all rows live mod p^work_prec.
    Entries are exact Python integers.
    """
    p = d1.p
    offsets = np.cumsum([0] + [g.size for g in gaps])
    blocks = []
    for (s, t, a1), (_, _, a2) in zip(_arrows(d1), _arrows(d2)):
        exps, cols = d2.invariants[t], len(d1.invariants[s])
        block = np.zeros((len(exps) * cols, offsets[-1]), dtype=object)
        left = np.kron(np.eye(len(exps), dtype=object), np.asarray(a1).T.astype(object))
        right = np.kron(np.asarray(a2).astype(object), np.eye(cols, dtype=object))
        block[:, offsets[t] : offsets[t + 1]] += left * gaps[t].ravel()
        block[:, offsets[s] : offsets[s + 1]] -= right * gaps[s].ravel()
        scale = np.array([p ** (work_prec - f) for f in exps for _ in range(cols)], dtype=object)
        blocks.append(block * scale.reshape(-1, 1))
    return np.vstack(blocks)


def _verify_candidate(xs, d1, d2) -> bool:
    """Honest re-check: well-defined, invertible mod p, every square commutes."""
    p = d1.p
    for x, src, tgt in zip(xs, d1.invariants, d2.invariants):
        if sorted(src) != sorted(tgt):
            return False
        if not _hom_divisibility(x, p, src, tgt):
            return False
        if len(tgt) and linalg.rank_mod_p(p, x) != len(tgt):
            return False
    for (s, t, a1), (_, _, a2) in zip(_arrows(d1), _arrows(d2)):
        exps = d2.invariants[t]
        if not np.array_equal(_product(xs[t], a1, p, exps), _product(a2, xs[s], p, exps)):
            return False
    return True


def diagrams_isomorphic(
    d1: YakovlevDiagram,
    d2: YakovlevDiagram,
    search: IsoSearchConfig | None = None,
):
    """Decide whether two diagrams are isomorphic.

    Returns DiagramIso (with verified level matrices), NotIsomorphic, or
    Undecided when the solution space is too large to enumerate and
    sampling found nothing.
    """
    if search is None:
        search = IsoSearchConfig()
    if (d1.p, d1.n) != (d2.p, d2.n):
        return NotIsomorphic(
            f"ambient data differs: ({d1.p}, {d1.n}) vs ({d2.p}, {d2.n})"
        )
    p, n = d1.p, d1.n
    for i in range(n):
        if tuple(d1.invariants[i]) != tuple(d2.invariants[i]):
            return NotIsomorphic(
                f"level {i + 1} groups differ: {tuple(d1.invariants[i])} vs "
                f"{tuple(d2.invariants[i])}"
            )
    if n == 0 or all(len(inv) == 0 for inv in d1.invariants):
        return DiagramIso(tuple(np.zeros((0, 0), dtype=np.int64) for _ in range(n)))
    gaps = [_gap_matrix(p, src, tgt) for src, tgt in zip(d1.invariants, d2.invariants)]
    ends = np.cumsum([g.size for g in gaps])
    work_prec = max(max((max(inv) for inv in d1.invariants if inv), default=1), 1) + 2
    # The system is exact (finite groups), so no guard band is needed.
    ctx = linalg.Context(p, work_prec, 0)
    system = _constraint_matrix(d1, d2, gaps, work_prec)
    if len(system):
        mat = linalg.mat(ctx, system % ctx.modulus)
    else:
        mat = linalg.zeros(ctx, 1, ends[-1])
    basis = linalg.kernel_cols(ctx, mat)

    def candidate_from(y_vec):
        ys = np.split(np.asarray(y_vec).astype(object), ends[:-1])
        xs = [
            canon_map_matrix(g * y.reshape(g.shape), p, tgt)
            for g, y, tgt in zip(gaps, ys, d2.invariants)
        ]
        return xs if _verify_candidate(xs, d1, d2) else None

    ident_y = np.concatenate([np.eye(*g.shape, dtype=np.int64).ravel() for g in gaps])
    found = linalg.search_invertible(
        list(basis.T), p**work_prec, p, candidate_from, search, first=(ident_y,)
    )
    if not isinstance(found, linalg.SearchMiss):
        return DiagramIso(tuple(found))
    if found.enumerated:
        return NotIsomorphic(
            "every equivariant family in the solution space is singular mod p"
        )
    return Undecided(
        f"solution space has mod-p dimension {found.rank}; "
        f"{search.max_samples} samples found no invertible family"
    )
