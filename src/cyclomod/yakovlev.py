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
check_axioms validates the abstract data, and diagrams_isomorphic
decides equivalence by solving the equivariance constraints and then
searching the solution space for a family invertible mod p, with the
search linalg.search_invertible shares with the module oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .arith import sigma_power
from .cohomology import CohomMap, corestriction, restriction, tate
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
            sizes = [len(inv) for inv in invariants]
            sigma = tuple(
                _toarray(lv["sigma"], (sizes[i], sizes[i]))
                for i, lv in enumerate(levels)
            )
            if len(data["alpha"]) != max(n - 1, 0) or len(data["beta"]) != max(n - 1, 0):
                raise ParseError("wrong number of connecting maps")
            alpha = tuple(
                _toarray(data["alpha"][i], (sizes[i + 1], sizes[i]))
                for i in range(n - 1)
            )
            beta = tuple(
                _toarray(data["beta"][i], (sizes[i], sizes[i + 1]))
                for i in range(n - 1)
            )
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed diagram record: {exc}") from exc
        return cls(p=p, n=n, invariants=invariants, sigma=sigma, alpha=alpha, beta=beta)


def _tolist(mat) -> list:
    a = np.asarray(mat)
    return [[int(x) for x in row] for row in a]


def _toarray(rows, shape) -> np.ndarray:
    if not len(rows):
        a = np.zeros(shape, dtype=np.int64)
    else:
        a = np.array(rows, dtype=np.int64)
    if a.shape != shape:
        raise ParseError(f"matrix has shape {a.shape}, expected {shape}")
    return a


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


def _row_mod(mat: np.ndarray, p: int, exps) -> np.ndarray:
    out = np.array(mat, dtype=np.int64).copy()
    for r, f in enumerate(exps):
        out[r, :] %= p**f
    return out


def _hom_shape_ok(mat, src_exps, tgt_exps) -> bool:
    return np.asarray(mat).shape == (len(tgt_exps), len(src_exps))


def _hom_divisibility(mat, p, src_exps, tgt_exps) -> bool:
    """Entries into a larger summand must carry the exponent gap."""
    for r, fr in enumerate(tgt_exps):
        for c, fc in enumerate(src_exps):
            gap = max(0, fr - fc)
            if int(mat[r, c]) % (p**gap):
                return False
    return True


def _mat_pow_mod(mat: np.ndarray, e: int, p: int, exps) -> np.ndarray:
    size = len(exps)
    out = np.eye(size, dtype=np.int64)
    for _ in range(e):
        out = _row_mod(out @ mat, p, exps)
    return out


def check_axioms(diagram: YakovlevDiagram) -> list:
    """Validate the abstract diagram laws; returns a list of violations."""
    p, n = diagram.p, diagram.n
    problems = []
    if len(diagram.invariants) != n or len(diagram.sigma) != n:
        return [f"expected {n} levels of data"]
    if len(diagram.alpha) != max(n - 1, 0) or len(diagram.beta) != max(n - 1, 0):
        return ["wrong number of connecting maps"]
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
        if not _hom_shape_ok(sig, exps, exps):
            problems.append(f"level {i}: sigma matrix has wrong shape")
            continue
        if not _hom_divisibility(sig, p, exps, exps):
            problems.append(f"level {i}: sigma is not a well-defined endomorphism")
        order = p ** (n - i)
        if not np.array_equal(
            _mat_pow_mod(_row_mod(sig, p, exps), order, p, exps),
            _row_mod(np.eye(len(exps), dtype=np.int64), p, exps),
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
        if not _hom_divisibility(a, p, lo, hi):
            problems.append(f"alpha_{i} is not a well-defined homomorphism")
        if not _hom_divisibility(b, p, hi, lo):
            problems.append(f"beta_{i} is not a well-defined homomorphism")
        sig_lo = _row_mod(diagram.sigma[i - 1], p, lo)
        sig_hi = _row_mod(diagram.sigma[i], p, hi)
        if not np.array_equal(_row_mod(a @ sig_lo, p, hi), _row_mod(sig_hi @ a, p, hi)):
            problems.append(f"alpha_{i} does not commute with sigma")
        if not np.array_equal(_row_mod(b @ sig_hi, p, lo), _row_mod(sig_lo @ b, p, lo)):
            problems.append(f"beta_{i} does not commute with sigma")
        ab = _row_mod(a @ b, p, hi)
        if not np.array_equal(ab, _row_mod(p * np.eye(len(hi), dtype=np.int64), p, hi)):
            problems.append(f"alpha_{i} beta_{i} is not multiplication by {p}")
        coset = np.zeros((len(lo), len(lo)), dtype=np.int64)
        step = p ** (n - i - 1)
        for t in range(p):
            coset = _row_mod(coset + _mat_pow_mod(sig_lo, t * step, p, lo), p, lo)
        if not np.array_equal(_row_mod(b @ a, p, lo), coset):
            problems.append(f"beta_{i} alpha_{i} is not the coset-sum action")
    return problems


# -- isomorphism search ------------------------------------------------


def _unknown_layout(d1: YakovlevDiagram, d2: YakovlevDiagram):
    """Offsets of the per-level matrix unknowns in one flat vector."""
    offsets = []
    total = 0
    for i in range(d1.n):
        rows = len(d2.invariants[i])
        cols = len(d1.invariants[i])
        offsets.append((total, rows, cols))
        total += rows * cols
    return offsets, total


def _assemble(level, y_vec, offsets, d1, d2, p) -> np.ndarray:
    """Level matrix from the unknown vector: X[r,c] = p^gap * Y[r,c]."""
    off, rows, cols = offsets[level]
    tgt = d2.invariants[level]
    src = d1.invariants[level]
    x = np.zeros((rows, cols), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            gap = max(0, tgt[r] - src[c])
            x[r, c] = (p**gap) * int(y_vec[off + r * cols + c])
    return _row_mod(x, p, tgt)


def _constraint_rows(d1, d2, offsets, total, work_prec):
    """Homogeneous congruence rows in the flattened unknowns.

    Every constraint "(combination) = 0 mod p^f" is scaled by
    p^(work_prec - f) so that all rows live mod p^work_prec.
    """
    p = d1.p
    rows = []

    def x_entry_coeff(level, r, c):
        off, _, cols = offsets[level]
        gap = max(0, d2.invariants[level][r] - d1.invariants[level][c])
        return off + r * cols + c, p**gap

    def add_equation(level_tgt, terms, modulus_exp):
        scale = p ** (work_prec - modulus_exp)
        row = [0] * total
        for idx, coeff in terms:
            row[idx] += coeff * scale
        rows.append(row)

    for i in range(d1.n):
        tgt = d2.invariants[i]
        src = d1.invariants[i]
        s1 = d1.sigma[i]
        s2 = d2.sigma[i]
        # X sigma1 = sigma2 X, row r column c, mod p^tgt[r]
        for r in range(len(tgt)):
            for c in range(len(src)):
                terms = []
                for k in range(len(src)):
                    idx, base = x_entry_coeff(i, r, k)
                    terms.append((idx, base * int(s1[k, c])))
                for k in range(len(tgt)):
                    idx, base = x_entry_coeff(i, k, c)
                    terms.append((idx, -int(s2[r, k]) * base))
                add_equation(i, terms, tgt[r])
    for i in range(d1.n - 1):
        lo1, hi1 = d1.invariants[i], d1.invariants[i + 1]
        lo2, hi2 = d2.invariants[i], d2.invariants[i + 1]
        a1, a2 = d1.alpha[i], d2.alpha[i]
        b1, b2 = d1.beta[i], d2.beta[i]
        # X_(i+1) alpha1 = alpha2 X_i  mod p^hi2[r]
        for r in range(len(hi2)):
            for c in range(len(lo1)):
                terms = []
                for k in range(len(hi1)):
                    idx, base = x_entry_coeff(i + 1, r, k)
                    terms.append((idx, base * int(a1[k, c])))
                for k in range(len(lo2)):
                    idx, base = x_entry_coeff(i, k, c)
                    terms.append((idx, -int(a2[r, k]) * base))
                add_equation(i + 1, terms, hi2[r])
        # X_i beta1 = beta2 X_(i+1)  mod p^lo2[r]
        for r in range(len(lo2)):
            for c in range(len(hi1)):
                terms = []
                for k in range(len(lo1)):
                    idx, base = x_entry_coeff(i, r, k)
                    terms.append((idx, base * int(b1[k, c])))
                for k in range(len(hi2)):
                    idx, base = x_entry_coeff(i + 1, k, c)
                    terms.append((idx, -int(b2[r, k]) * base))
                add_equation(i, terms, lo2[r])
    return rows


def _verify_candidate(xs, d1, d2) -> bool:
    """Honest re-check: well-defined, equivariant, invertible mod p."""
    p = d1.p
    for i in range(d1.n):
        x = xs[i]
        src, tgt = d1.invariants[i], d2.invariants[i]
        if sorted(src) != sorted(tgt):
            return False
        if not _hom_divisibility(x, p, src, tgt):
            return False
        if len(tgt) and linalg.rank_mod_p(p, x) != len(tgt):
            return False
        s1 = _row_mod(d1.sigma[i], p, src)
        s2 = _row_mod(d2.sigma[i], p, tgt)
        if not np.array_equal(_row_mod(x @ s1, p, tgt), _row_mod(s2 @ x, p, tgt)):
            return False
    for i in range(d1.n - 1):
        hi2 = d2.invariants[i + 1]
        lo2 = d2.invariants[i]
        lhs = _row_mod(xs[i + 1] @ d1.alpha[i], p, hi2)
        rhs = _row_mod(d2.alpha[i] @ xs[i], p, hi2)
        if not np.array_equal(lhs, rhs):
            return False
        lhs = _row_mod(xs[i] @ d1.beta[i], p, lo2)
        rhs = _row_mod(d2.beta[i] @ xs[i + 1], p, lo2)
        if not np.array_equal(lhs, rhs):
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
    offsets, total = _unknown_layout(d1, d2)
    work_prec = max(max((max(inv) for inv in d1.invariants if inv), default=1), 1) + 2
    rows = _constraint_rows(d1, d2, offsets, total, work_prec)
    # The system is exact (finite groups), so no guard band is needed.
    ctx = linalg.Context(p, work_prec, 0)
    if rows:
        mat = linalg.mat(ctx, rows)
    else:
        mat = linalg.zeros(ctx, 1, total)
    basis = linalg.kernel_cols(ctx, mat)

    def candidate_from(y_vec):
        xs = [_assemble(i, y_vec, offsets, d1, d2, p) for i in range(n)]
        return xs if _verify_candidate(xs, d1, d2) else None

    ident_y = np.zeros(total, dtype=np.int64)
    for i in range(n):
        off, rcount, ccount = offsets[i]
        for r in range(min(rcount, ccount)):
            ident_y[off + r * ccount + r] = 1
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
