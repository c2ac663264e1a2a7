"""Independent reference computations used to pin expected test values.

The routines are slow, brute-force, and written from first principles on
plain Python integers without the package under test, so agreement with
the fast implementation is meaningful evidence rather than a tautology.
The exceptions are frozen copies of rewritten kernels, kept so the
current code can be compared with them bit for bit: smith_full_width,
the elimination as it stood before it updated only the live block, and
kernel_cols_by_column and orbits_by_column, the congruence kernel and
the orbit expansion as they looped over columns (these two call the
package's smith, zeros and matmul), pivot_cols_by_column, the mod-p
pivot columns as they were found by a full reduction, column by column,
act_matrix_by_powers, the group-ring action as it formed one sigma-power
after another for each element, and solve_by_entry, the solvability test
as it ran entry by entry (these two call the package's linear algebra),
synthesized_relations, the relation array of a derived module as it
was built eagerly with the module, and tate_core_by_relations, a Tate
group's eliminations and reduce() as they ran on the relation system of
numerator against denominator generators, map_by_generators,
connecting_map_by_generators and reduce_by_element, the maps between
Tate groups as they were built one generator at a time, each image made
a module element and reduced by itself (these read a group's core), and
search_invertible_in_full,
the search as it tried every nonzero mod-p combination of an enumerated
span (this one calls the package's pivot_cols_mod_p), and
submodule_by_probe, a submodule as it was built by a probe elimination
and a second one at the raised precision, even where that precision
was N itself, and free_summands_by_hom_scan and
stably_isomorphic_by_padding, the free summands as a scan of
Hom(M, Lambda) found them and the stable comparison as it searched the
padded modules (these two call the package's hom spaces, kernels and
isomorphism search), and injective_by_kernel, surjective_by_quotient,
finite_index_by_quotient and exact_by_kernel, the exactness checks of
the constructions as they built a kernel or quotient module to read one
bit of it (these call the package's kernel_of and quotient_by_image),
with images_agree, the image comparison exact_by_kernel reads, as it
stood in the package.  herbrand_log
predicts the ratio of Tate group orders from ranks alone, and
diagonal_matrix writes out the diagonal a Smith form stands for.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import gcd
from types import SimpleNamespace

import numpy as np

from cyclomod import linalg
from cyclomod.arith import sigma_power, subgroup_norm
from cyclomod.cohomology import canon_map_matrix, tate
from cyclomod.errors import CyclomodError, PrecisionExhausted, PreconditionViolated
from cyclomod.config import GroupConfig, IsoSearchConfig
from cyclomod.oracle import (
    FreeSummandReport,
    Iso,
    StableIso,
    _search_iso,
    _tate_mismatch,
    hom_space_basis,
)
from cyclomod.verdicts import NotIsomorphic, NotStablyIsomorphic, Undecided
from cyclomod.modules import (
    ModuleHom,
    direct_sum,
    free_module,
    kernel_of,
    quotient_by_image,
    PresentedModule,
    Submodule,
    _canon_rows,
    _centered_object,
    _coerce_ring,
    _divide_rows,
    _is_module,
    _Model,
    _orbits,
    _quotient_model,
    _span_dvals,
    _torsion_columns,
)


def det_int(rows) -> int:
    """Determinant by cofactor expansion.  Fine for size <= 6."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_int(minor)
    return total


def snf_invariants_over_Z(rows) -> list:
    """Nonzero invariant factors d_1 | d_2 | ... via gcds of k x k minors.

    Definitionally correct (d_k = g_k / g_{k-1} with g_k the gcd of all
    k x k minors), hence a trustworthy oracle for small matrices.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det_int(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def padic_valuation(p: int, x: int) -> int:
    if x == 0:
        raise ValueError("valuation of 0 is undefined here")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def cokernel_valuations_mod_pN(p: int, precision: int, rows) -> list:
    """Sorted exponents e with coker(A mod p^N) = sum of Z/p^e summands.

    Computed as the integer Smith form of [A | p^N I], which presents the
    same quotient of Z^m.  Zero exponents are dropped.
    """
    m = len(rows)
    big = p**precision
    aug = [list(r) + [big if i == j else 0 for j in range(m)] for i, r in enumerate(rows)]
    invs = snf_invariants_over_Z(aug)
    vals = [padic_valuation(p, d) for d in invs if d != 0]
    vals += [precision] * (m - len(invs))
    return sorted(v for v in vals if v > 0)


def expanded_relation_lattice(order: int, k: int, rows) -> list:
    """The relation lattice of a presentation on k generators, as k*d rows.

    rows holds one entry per relation, each a list of k integer
    coefficient lists (the coefficient of sigma^t at index t).  Relation
    r contributes the columns r*d + t, its shifts sigma^t times r, with
    the cyclic convolution written out by hand; nothing is reduced.
    """
    d = order
    cols = []
    for row in rows:
        for t in range(d):
            col = [0] * (k * d)
            for g, coeffs in enumerate(row):
                for s, coeff in enumerate(coeffs):
                    col[g * d + (s + t) % d] += coeff
            cols.append(col)
    return [[col[i] for col in cols] for i in range(k * d)]


class FiniteModule:
    """A finite abelian p-group with an automorphism, enumerated outright."""

    def __init__(self, moduli, action):
        self.moduli = list(moduli)
        self.action = [list(r) for r in action]
        self.rank = len(moduli)

    def elements(self):
        return product(*(range(m) for m in self.moduli))

    def apply(self, mat, x):
        return tuple(
            sum(mat[i][j] * x[j] for j in range(self.rank)) % self.moduli[i]
            for i in range(self.rank)
        )

    def mat_pow(self, e):
        out = [[1 if i == j else 0 for j in range(self.rank)] for i in range(self.rank)]
        base = self.action
        for _ in range(e):
            out = [
                [
                    sum(out[i][k] * base[k][j] for k in range(self.rank))
                    for j in range(self.rank)
                ]
                for i in range(self.rank)
            ]
        return out

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def scale(self, c, x):
        return tuple((c * a) % m for a, m in zip(x, self.moduli))


def brute_tate_invariants(p, group_order, module: FiniteModule, degree, subgroup_order=None):
    """Invariant factors of a Tate cohomology group, by full enumeration.

    The acting group is cyclic of order ``group_order`` via
    ``module.action``; ``subgroup_order`` restricts to the subgroup of
    that order.  Returns exponents sorted descending, e.g. [2, 1] for
    Z/p^2 + Z/p.  Only usable when the module is small enough to list.
    """
    if subgroup_order is None:
        subgroup_order = group_order
    step = group_order // subgroup_order
    t_mat = module.mat_pow(step)
    norm = [[0] * module.rank for _ in range(module.rank)]
    power = [[1 if i == j else 0 for j in range(module.rank)] for i in range(module.rank)]
    for _ in range(subgroup_order):
        for i in range(module.rank):
            for j in range(module.rank):
                norm[i][j] += power[i][j]
        power = [
            [
                sum(power[i][k] * t_mat[k][j] for k in range(module.rank))
                for j in range(module.rank)
            ]
            for i in range(module.rank)
        ]
    ident = [[1 if i == j else 0 for j in range(module.rank)] for i in range(module.rank)]
    t_minus_1 = [[t_mat[i][j] - ident[i][j] for j in range(module.rank)] for i in range(module.rank)]
    if degree % 2 == 0:
        ker_mat, im_mat = t_minus_1, norm
    else:
        ker_mat, im_mat = norm, t_minus_1
    kernel = [x for x in module.elements() if all(v == 0 for v in module.apply(ker_mat, x))]
    image = {module.apply(im_mat, x) for x in module.elements()}
    quotient_order = len(kernel) // len(image)
    # Invariants from the p^k-torsion filtration of the quotient.
    torsion_sizes = []
    k = 1
    while True:
        tk = sum(1 for x in kernel if module.scale(p**k, x) in image) // len(image)
        torsion_sizes.append(tk)
        if tk == quotient_order:
            break
        k += 1
        if k > 60:
            raise RuntimeError("runaway torsion filtration")
    counts = []
    prev = 1
    for tk in torsion_sizes:
        counts.append(padic_valuation(p, tk // prev) if tk != prev else 0)
        prev = tk
    # counts[k-1] = number of invariant factors with exponent >= k
    invariants = []
    for exp in range(len(counts), 0, -1):
        have = counts[exp - 1]
        need = have - len(invariants)
        invariants.extend([exp] * need)
    return sorted(invariants, reverse=True)


def fixed_space_rank(modulus: int, action, order: int) -> int:
    """Rational rank of ker(A - 1) for a matrix A with A^order = 1.

    ``action`` is A mod ``modulus``, as integer rows.  The rank is the
    average of the traces of A^0 .. A^(order-1), the character formula
    for the dimension of the fixed space.  Each trace is a sum of roots
    of unity that is rational, hence an integer of absolute value at
    most the size, so its residue recovers it once the modulus exceeds
    twice the size.
    """
    size = len(action)
    if size == 0:
        return 0
    if modulus <= 2 * size:
        raise ValueError("modulus too small to recover the traces")
    power = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    total = 0
    for _ in range(order):
        t = sum(power[i][i] for i in range(size)) % modulus
        total += t - modulus if t > modulus // 2 else t
        power = [
            [sum(power[i][k] * action[k][j] for k in range(size)) % modulus for j in range(size)]
            for i in range(size)
        ]
    if total % order:
        raise RuntimeError("trace average is not an integer")
    return total // order


def hom_space_entrywise(p, precision, sigma1, moduli1, sigma2, moduli2, kernel) -> list:
    """Matrices spanning Hom(M1, M2) mod p^N, solved entry by entry.

    M_i is Z^m_i modulo p^N and the diagonal lattice of moduli_i (None
    for a free coordinate), with sigma_i an integer matrix.  Entry (r, c)
    of a hom matrix is a multiple of p^max(0, e_r - f_c), with f and e
    the coordinate annihilator exponents of M1 and M2; substituting that
    scaling leaves the sigma-equivariance equations on all m1 m2 entries,
    row r scaled by p^(N - e_r).  kernel(rows) returns generators
    (lists) of the congruence kernel mod p^N of that system, the one
    routine borrowed from the caller.  The matrices come back as row
    lists mod p^N, not reduced by the target moduli.
    """
    modulus = p**precision
    m1, m2 = len(moduli1), len(moduli2)

    def exponents(moduli):
        return [precision if q is None else padic_valuation(p, q) for q in moduli]

    f, e = exponents(moduli1), exponents(moduli2)
    gap = [[max(0, e[r] - f[c]) for c in range(m1)] for r in range(m2)]
    unknowns = m1 * m2
    rows = []
    for r in range(m2):
        scale = p ** (precision - e[r])
        for c in range(m1):
            row = [0] * unknowns
            for k in range(m1):
                row[r * m1 + k] += p ** gap[r][k] * sigma1[k][c]
            for k in range(m2):
                row[k * m1 + c] -= p ** gap[k][c] * sigma2[r][k]
            rows.append([(v * scale) % modulus for v in row])
    basis = []
    for col in kernel(rows or [[0] * unknowns]):
        x = [[p ** gap[r][c] * col[r * m1 + c] % modulus for c in range(m1)] for r in range(m2)]
        if any(any(row) for row in x):
            basis.append(x)
    return basis


class GuardBand(Exception):
    """smith_full_width met a pivot inside the guard band."""


def smith_full_width(p, precision, guard, a, rows=True, cols=True, ceiling=None):
    """(left, left_inv, right, dvals) of minimal-valuation Smith elimination.

    Every pivot updates whole rows and columns of the working matrix
    and of each transform; an unwanted transform is tracked as an empty
    slice and comes back as None.  Arrays are int64 when p^N <= 2^31 and
    Python-integer object arrays otherwise, as in the package; the one
    matrix product is formed in Python integers, as it may pass 2^63.
    """
    mod = p**precision
    dtype = np.int64 if mod <= 1 << 31 else object

    def eye(size):
        out = np.zeros((size, size), dtype=dtype)
        for i in range(size):
            out[i, i] = 1
        return out

    a = np.array(a, dtype=dtype) % mod
    m, n = a.shape
    u, uinv = (eye(m), eye(m)) if rows else (np.zeros((m, 0), dtype), np.zeros((0, m), dtype))
    v_ = eye(n) if cols else np.zeros((0, n), dtype)
    top = precision if ceiling is None else ceiling
    dvals = []
    k = pv = 0
    while k < min(m, n):
        sub = a[k:, k:]
        loc = None
        while pv < top:
            nz = (sub % (p ** (pv + 1))) != 0
            if nz.any():
                loc = divmod(int(np.argmax(nz)), sub.shape[1])
                break
            pv += 1
        if loc is None:
            break
        if pv >= precision - guard:
            raise GuardBand(pv)
        i, j = loc[0] + k, loc[1] + k
        if i != k:
            a[[k, i], :] = a[[i, k], :]
            u[[k, i], :] = u[[i, k], :]
            uinv[:, [k, i]] = uinv[:, [i, k]]
        if j != k:
            a[:, [k, j]] = a[:, [j, k]]
            v_[:, [k, j]] = v_[:, [j, k]]
        pk = p**pv
        unit = int(a[k, k]) // pk
        if unit != 1:
            w = pow(unit, -1, mod)
            a[k, :] = (a[k, :] * w) % mod
            u[k, :] = (u[k, :] * w) % mod
            uinv[:, k] = (uinv[:, k] * unit) % mod
        col = a[k + 1 :, k]
        if col.size and (col != 0).any():
            q = col // pk
            a[k + 1 :, :] = (a[k + 1 :, :] - q[:, None] * a[k, :]) % mod
            u[k + 1 :, :] = (u[k + 1 :, :] - q[:, None] * u[k, :]) % mod
            moved = (uinv[:, k + 1 :].astype(object) @ q.reshape(-1, 1).astype(object)) % mod
            uinv[:, k] = (uinv[:, k] + moved.ravel().astype(dtype)) % mod
        row = a[k, k + 1 :]
        if row.size and (row != 0).any():
            q = row // pk
            a[:, k + 1 :] = (a[:, k + 1 :] - a[:, k : k + 1] * q[None, :]) % mod
            v_[:, k + 1 :] = (v_[:, k + 1 :] - v_[:, k : k + 1] * q[None, :]) % mod
        dvals.append(pv)
        k += 1
    return (u if rows else None), (uinv if rows else None), (v_ if cols else None), dvals


def cocycle_first_failure(modulus: int, sigma, moduli, table):
    """First (a, b, c) where a two-variable table fails the cocycle identity.

        sigma^a f(b, c) - f(a+b, c) + f(a, b+c) - f(a, b) = 0

    is tested on every index triple in (a, b, c) order, as the class
    check scanned before it read only a in {0, 1}: sigma is the kernel's
    action matrix, moduli its finite coordinate moduli, table[a][b] the
    coordinates of f(sigma^a, sigma^b).  Returns None if every triple holds.
    """
    d, m = len(table), len(moduli)
    powers = [[[int(i == j) for j in range(m)] for i in range(m)]]
    for _ in range(1, d):
        prev = powers[-1]
        powers.append(
            [
                [sum(sigma[i][k] * prev[k][j] for k in range(m)) % modulus for j in range(m)]
                for i in range(m)
            ]
        )
    for a in range(d):
        for b in range(d):
            for c in range(d):
                moved = [sum(row[k] * table[b][c][k] for k in range(m)) for row in powers[a]]
                lhs = [
                    moved[i]
                    - table[(a + b) % d][c][i]
                    + table[a][(b + c) % d][i]
                    - table[a][b][i]
                    for i in range(m)
                ]
                if any(x % modulus % q for x, q in zip(lhs, moduli)):
                    return (a, b, c)
    return None


def diagonal_matrix(ctx, sm):
    """The diagonal matrix left @ A @ right of a Smith form: p^dvals on
    the diagonal, then zeros."""
    d = linalg.zeros(ctx, *sm.shape)
    for i, v in enumerate(sm.dvals):
        d[i, i] = ctx.p**v
    return d


def kernel_cols_by_column(ctx, a, sm=None):
    """Generators of the congruence kernel {x : A x = 0 mod p^N}, one
    column of the Smith transform at a time."""
    if sm is None:
        sm = linalg.smith(ctx, a, rows=False)
    n = sm.shape[1]
    cols = []
    for j in range(n):
        d = sm.dvals[j] if j < len(sm.dvals) else ctx.precision
        if d == 0:
            continue
        cols.append((sm.right[:, j] * (ctx.p ** (ctx.precision - d))) % ctx.modulus)
    if not cols:
        return linalg.zeros(ctx, n, 0)
    return np.stack(cols, axis=1)


def orbits_by_column(ctx, sigma, columns, d):
    """The columns x, sigma x, ..., sigma^(d-1) x for each x in turn, by
    one matrix-vector product per orbit member."""
    out = linalg.zeros(ctx, sigma.shape[0], len(columns) * d)
    for j, col in enumerate(columns):
        for t in range(d):
            out[:, j * d + t] = col.ravel()
            col = linalg.matmul(ctx, sigma, col)
    return out


def pivot_cols_by_column(p, a):
    """Pivot columns, left to right, of the reduced row echelon form of
    A mod p, one column at a time."""
    b = (np.array(a, dtype=object) % p).astype(np.int64)
    m, n = b.shape
    pivots: list = []
    for col in range(n):
        rank = len(pivots)
        if rank == m:
            break
        nz = np.flatnonzero(b[rank:, col])
        if not nz.size:
            continue
        piv = rank + int(nz[0])
        b[[rank, piv], :] = b[[piv, rank], :]
        inv = pow(int(b[rank, col]), -1, p)
        b[rank, :] = (b[rank, :] * inv) % p
        mask = b[:, col] != 0
        mask[rank] = False
        if mask.any():
            b[mask, :] = (b[mask, :] - np.outer(b[mask, col], b[rank, :])) % p
        pivots.append(col)
    return pivots


def act_matrix_by_powers(module, elt):
    """Matrix of multiplication by a group-ring element on the model,
    summing c_t sigma^t over the powers sigma^0..sigma^(d-1), formed one
    product after another."""
    ctx, m = module.ctx, module.model_dim
    out = linalg.zeros(ctx, m, m)
    power = linalg.eye(ctx, m)
    for c in _coerce_ring(module.cfg, elt).values:
        if c:
            out = (out + c * power) % ctx.modulus
        power = linalg.matmul(ctx, module.sigma_matrix, power)
    return _canon_rows(ctx, out, module.moduli)


def solve_by_entry(ctx, a, b, sm=None):
    """One solution X of A X = B mod p^N, or None, testing the entries
    of left B against the pivots one at a time in row-major order."""
    if sm is None:
        sm = linalg.smith(ctx, a)
    b = linalg.mat(ctx, b)
    m, n = sm.shape
    y = linalg.matmul(ctx, sm.left, b)
    z = linalg.zeros(ctx, n, b.shape[1])
    r = len(sm.dvals)
    for i in range(m):
        d = sm.dvals[i] if i < r else ctx.precision
        pd = ctx.p**d
        for c in range(b.shape[1]):
            e = int(y[i, c])
            if e % pd == 0:
                if i < r:
                    z[i, c] = e // pd
            else:
                if linalg.valuation_int(ctx, e) >= ctx.guard_floor:
                    raise PrecisionExhausted(f"guard-band valuation at diagonal slot {i}")
                return None
    return linalg.matmul(ctx, sm.right, z)


def synthesized_relations(cfg, k: int, model, proj, lift) -> np.ndarray:
    """The (r, k, d) relation array on k generators y_j that presents a
    model, given proj from the free module on the y_j onto the model and
    its right inverse lift.

    Read lift column i as k group-ring elements g_i.  The rows say that
    y_j = sum_i proj[i, j p^n] g_i, that sigma g_i = sum_l sigma[l, i] g_l
    and that p^e g_i = 0 for each torsion coordinate.  Rows that vanish
    identically are dropped.
    """
    ctx = linalg.context_of(cfg)
    d = cfg.order
    m = model.dim
    own = linalg.zeros(ctx, k * d, k)
    for j in range(k):
        own[j * d, j] = 1
    spell = own - linalg.matmul(ctx, lift, proj[:, ::d])
    shifted = np.roll(lift.reshape(k, d, m), 1, axis=1).reshape(k * d, m)
    act = shifted - linalg.matmul(ctx, lift, model.sigma)
    tors = [lift[:, i] * q for i, q in enumerate(model.moduli) if q is not None]
    cols = np.concatenate([spell, act, *(t.reshape(-1, 1) for t in tors)], axis=1) % ctx.modulus
    rows = cols[:, (cols != 0).any(axis=0)].T
    return rows.reshape(len(rows), k, d)


def tate_core_by_relations(module, degree, level):
    """A Tate group by the relation system [nu | -de] of numerator
    generators nu = [ker | T | B] against denominator generators
    de = [B | T | p^floor I]: an object with invariants, generator_coords
    (model coordinates), floor, ker, and reduce(column), the summand
    coordinates of a model column, or None outside the numerator."""
    cfg = module.cfg
    ctx = linalg.Context(cfg.p, cfg.precision, 0)
    m = module.model_dim
    step = cfg.p ** (cfg.n - level)
    tau_1 = (module.act_matrix(sigma_power(cfg, step)) - linalg.eye(ctx, m)) % ctx.modulus
    nm = module.act_matrix(subgroup_norm(cfg, level))
    a_mat, b_mat = (tau_1, nm) if degree % 2 == 0 else (nm, tau_1)
    tc = module.torsion_column_matrix()
    ksys = linalg.hstack(ctx, [a_mat, (-tc) % ctx.modulus])
    ksm = linalg.smith(ctx, ksys, rows=False)
    floor = cfg.precision - max(ksm.dvals, default=0)
    if floor < level:
        raise PrecisionExhausted(f"noise floor {floor} below level {level}")
    ker = linalg.kernel_cols(ctx, ksys, sm=ksm)[:m, :]
    noise = linalg.eye(ctx, m) * (cfg.p**floor)
    nu = linalg.hstack(ctx, [ker, tc, b_mat])
    de = linalg.hstack(ctx, [b_mat, tc, noise])
    q = nu.shape[1]
    system = linalg.hstack(ctx, [nu, (-de) % ctx.modulus])
    ssm = linalg.smith(ctx, system)
    rel = linalg.kernel_cols(ctx, system, sm=ssm)[:q, :]
    sm = linalg.smith(ctx, rel, cols=False)
    if len(sm.dvals) < q:
        raise CyclomodError("cohomology subquotient came out infinite")
    slots = [(k, v) for k, v in enumerate(sm.dvals) if v > 0]
    if any(v > level for _, v in slots):
        raise CyclomodError("cohomology invariant exceeds the subgroup order")
    slots.sort(key=lambda kv: -kv[1])

    def reduce(column):
        sol = linalg.solve(ctx, system, column, sm=ssm)
        if sol is None:
            return None
        y = linalg.matmul(ctx, sm.left, sol[:q, :])
        return tuple(int(y[k, 0]) % cfg.p**v for k, v in slots)

    return SimpleNamespace(
        invariants=tuple(v for _, v in slots),
        generator_coords=[
            linalg.matmul(ctx, nu, sm.left_inv[:, k : k + 1]).ravel() for k, _ in slots
        ],
        floor=floor,
        ker=ker,
        reduce=reduce,
    )


def reduce_by_element(group, elt) -> tuple:
    """The summand coordinates of one numerator element of a Tate group."""
    if group.level == 0:
        return ()
    if elt.module is not group.module:
        raise ValueError("element belongs to a different module")
    core = group._core
    z = core.coords(elt.column())
    if z is None:
        raise PreconditionViolated("element is not in the numerator of this cohomology group")
    y = linalg.matmul(core.ctx, core.rows, z)
    p = group.module.cfg.p
    return tuple(int(v) % p**f for v, f in zip(y[:, 0], group.invariants))


def _by_generators(source, target, image):
    """The map matrix whose column j is the reduced image of generator j."""
    mat = np.zeros((len(target.invariants), len(source.invariants)), dtype=np.int64)
    for j, gen in enumerate(source.generators):
        mat[:, j] = reduce_by_element(target, image(gen))
    return canon_map_matrix(mat, target.module.cfg.p, target.invariants)


def map_by_generators(source, target, rep_matrix):
    """The matrix of the map rep_matrix induces from source to target."""
    ctx = target.module.ctx

    def image(gen):
        col = linalg.matmul(ctx, rep_matrix, gen.column())
        return target.module.element_from_model_coords(col.ravel())

    return _by_generators(source, target, image)


def connecting_map_by_generators(inc, proj, degree, level):
    """The matrix of connecting_iso(inc, proj, degree, level), without its
    checks of the sequence and of the headroom."""
    mid, a_mod, c_mod = proj.source, inc.source, proj.target
    cfg, ctx = mid.cfg, mid.ctx
    if degree % 2 == 0:
        step = sigma_power(cfg, cfg.p ** (cfg.n - level))
        op = (mid.act_matrix(step) - linalg.eye(ctx, mid.model_dim)) % ctx.modulus
    else:
        op = mid.act_matrix(subgroup_norm(cfg, level))
    lift_sys = linalg.hstack(ctx, [proj.matrix, c_mod.torsion_column_matrix()])
    pull_sys = linalg.hstack(ctx, [inc.matrix, mid.torsion_column_matrix()])
    sm_lift, sm_pull = linalg.smith(ctx, lift_sys), linalg.smith(ctx, pull_sys)

    def image(gen):
        lifted = linalg.solve(ctx, lift_sys, gen.column(), sm=sm_lift)
        if lifted is None:
            raise PreconditionViolated("proj misses a cohomology representative")
        moved = linalg.matmul(ctx, op, lifted[: mid.model_dim, :])
        pulled = linalg.solve(ctx, pull_sys, moved, sm=sm_pull)
        if pulled is None:
            raise PreconditionViolated(
                "boundary of a lifted representative escapes the image of inc"
            )
        return a_mod.element_from_model_coords(pulled[: a_mod.model_dim, :].ravel())

    return _by_generators(tate(c_mod, degree, level), tate(a_mod, degree + 1, level), image)


def herbrand_log(module, level):
    """log_p of |H^0| / |H^1| (Tate) for the subgroup of order p^level.

    The Herbrand quotient of a Zp-lattice depends only on M (x) Qp and
    is 1 on finite modules, so it is read off the free block F of the
    model (sigma modulo torsion): with tau the subgroup's generator and
    r_j the Qp-rank of ker(tau^(p^j) - 1) on F, a_0 = r_0 and
    a_j = (r_j - r_(j-1)) / phi(p^j) count the summands Qp(zeta_(p^j)),
    and the result is level a_0 - sum_(j >= 1) a_j.  Each rank comes
    from one Smith elimination without transforms; a pivot in the guard
    band raises PrecisionExhausted.  This checks the orders only: the
    group structure of H^0 and H^1 is not seen.
    """
    cfg, ctx = module.cfg, module.ctx
    free = [i for i, q in enumerate(module.moduli) if q is None]
    f = linalg.mat(ctx, module.sigma_matrix[np.ix_(free, free)])

    def fixed_rank(e):
        """Qp-rank of ker(F^e - 1)."""
        power = linalg.eye(ctx, len(free))
        for _ in range(e):
            power = linalg.matmul(ctx, power, f)
        diff = (power - linalg.eye(ctx, len(free))) % ctx.modulus
        return len(free) - len(linalg.smith(ctx, diff, rows=False, cols=False).dvals)

    p, step = cfg.p, cfg.p ** (cfg.n - level)
    r = [fixed_rank(step * p**j) for j in range(level + 1)]
    phi = [None] + [p ** (j - 1) * (p - 1) for j in range(1, level + 1)]
    return level * r[0] - sum((r[j] - r[j - 1]) // phi[j] for j in range(1, level + 1))


def search_invertible_in_full(members, modulus: int, p: int, verify, search, first=()):
    """linalg.search_invertible as it enumerated every nonzero combination
    of the members independent mod p, tried after first and each member."""
    members = [x for x in members if (x % p).any()]
    for x in (*first, *members):
        found = verify(x)
        if found is not None:
            return found
    pivots = []
    if members:
        pivots = linalg.pivot_cols_mod_p(p, np.stack([np.ravel(x) for x in members], axis=1))
    enumerated = len(pivots) <= search.enumeration_bound
    if enumerated:
        span = [members[j] for j in pivots]
        combos = (c for c in product(range(p), repeat=len(span)) if any(c))
    else:
        span = members
        rng = random.Random(search.seed)
        combos = ([rng.randrange(modulus) for _ in span] for _ in range(search.max_samples))
    for coeffs in combos:
        x = 0
        for c, member in zip(coeffs, span):
            x = (x + c * member) % modulus
        found = verify(x)
        if found is not None:
            return found
    return linalg.SearchMiss(len(pivots), enumerated)


def submodule_by_probe(ambient, elements, names=None):
    """modules.submodule_from_elements as it always eliminated [ev | T]
    twice, a probe at N and then the lattice at N' = N + g + e on a
    model lifted to N', expanding the orbits once at each precision,
    and formed the inclusion with every row of lift (this one calls the
    package's linear algebra and model helpers)."""
    cfg, ctx, d = ambient.cfg, ambient.ctx, ambient.cfg.order
    elements = list(elements)
    k = len(elements)
    if names is None:
        names = [f"y{j}" for j in range(k)]
    ev = _orbits(ctx, ambient.sigma_matrix, [e.column() for e in elements], d)
    stacked = linalg.hstack(ctx, [ev, ambient.torsion_column_matrix()])
    g = max(linalg.smith(ctx, stacked, rows=False, cols=False).dvals, default=0)
    e_max = max(ambient.torsion_invariants(), default=0)
    # The ambient's model at N' (centered, or normalized again there).
    precision = cfg.precision + g + e_max
    src = linalg.Context(cfg.p, precision, 0)
    sigma_src = linalg.mat(src, _centered_object(ambient.sigma_matrix, cfg.modulus))
    moduli = ambient.moduli
    cols = [linalg.mat(src, _centered_object(e.coords, cfg.modulus)) for e in elements]
    if not _is_module(src, sigma_src, moduli, d):
        fine = GroupConfig(cfg.p, cfg.n, precision + cfg.guard, cfg.guard)
        rows = _centered_object(ambient.relations, cfg.modulus)
        lifted = PresentedModule(fine, ambient.gen_names, rows)
        src, sigma_src, moduli, cols = lifted.ctx, lifted.sigma_matrix, lifted.moduli, []
        for e in elements:
            amb = linalg.matmul(ambient.ctx, ambient._lift, e.column()).ravel()
            amb = _centered_object(amb, cfg.modulus).tolist()
            coeffs = [amb[i : i + d] for i in range(0, len(amb), d)]
            cols.append(lifted.element(coeffs).column())
    orbits = _orbits(src, sigma_src, cols, d)
    lattice = linalg.hstack(src, [orbits, _torsion_columns(src, moduli)])
    hi = linalg.Context(cfg.p, src.precision, src.precision - cfg.precision + cfg.guard)
    sm = linalg.smith(hi, lattice, cols=False, ceiling=cfg.precision)
    s = len(sm.dvals)
    left = sm.left[:s, :]
    basis = sm.left_inv[:, :s] * np.array([cfg.p**v for v in sm.dvals], dtype=hi.dtype)
    mid = linalg.Context(cfg.p, cfg.precision + e_max, cfg.guard + e_max)
    image = linalg.matmul(hi, left, linalg.matmul(hi, sigma_src, basis % hi.modulus))
    sigma_b = _divide_rows(hi, image, sm.dvals, mid)
    coords = _divide_rows(hi, linalg.matmul(hi, left, lattice), sm.dvals, mid)
    inner, proj2, _ = _quotient_model(mid, coords[:, k * d :], sigma_b, ceiling=e_max + 1)
    sigma = linalg.mat(ctx, inner.sigma % ctx.modulus)
    model = _Model(inner.moduli, _canon_rows(ctx, sigma, inner.moduli))
    if not _is_module(ctx, model.sigma, model.moduli, d):
        raise PrecisionExhausted("submodule does not close up as a module")
    proj = linalg.matmul(mid, proj2, coords[:, : k * d]) % ctx.modulus
    proj = _canon_rows(ctx, linalg.mat(ctx, proj), model.moduli)
    lift = linalg.zeros(ctx, k * d, model.dim)
    if model.dim:
        piv = linalg.pivot_cols_mod_p(cfg.p, proj)
        lift[piv, :] = linalg.invert(ctx, proj[:, piv])
    sub = PresentedModule._derived(cfg, names, model, proj, lift)
    return Submodule(sub, ModuleHom(sub, ambient, linalg.matmul(ctx, ev, lift), check=False))


def free_summands_by_hom_scan(module):
    """oracle.krull_schmidt_note as it found each free summand: the first
    member of a spanning set of Hom(M, Lambda) whose augmentation is
    nonzero mod p is onto, and its kernel is the next complement."""
    cfg = module.cfg
    lam = free_module(cfg, 1, names=["f"])
    free_rank, current = 0, module
    while True:
        basis = hom_space_basis(current, lam)
        hits = np.flatnonzero((np.sum(basis, axis=1) % cfg.p).any(axis=1)) if basis else ()
        if not len(hits):
            return FreeSummandReport(free_rank, current)
        current = kernel_of(ModuleHom(current, lam, basis[hits[0]])).module
        free_rank += 1


def stably_isomorphic_by_padding(m1, m2, search=None, max_pad=3):
    """oracle.stably_isomorphic as it searched the padded modules M + Lambda^a
    and N + Lambda^b, for each compatible (a, b) up to max_pad, the budget
    it had, in order of a + b, until a definitive answer."""
    search = search or IsoSearchConfig()
    d = m1.cfg.order
    r1, r2 = m1.zp_rank(), m2.zp_rank()
    if (r1 - r2) % d != 0:
        return NotStablyIsomorphic("rank difference")
    if _tate_mismatch(m1, m2):
        return NotStablyIsomorphic("cohomology")
    bound = range(max_pad + 1)
    pads = sorted(
        ((a, b) for a in bound for b in bound if r1 + a * d == r2 + b * d),
        key=lambda ab: (ab[0] + ab[1], ab[0]),
    )

    def padded(module, copies):
        return direct_sum(module, free_module(module.cfg, copies)).module if copies else module

    for a, b in pads:
        res = _search_iso(padded(m1, a), padded(m2, b), search)
        if isinstance(res, Iso):
            return StableIso(a, b, res)
        if isinstance(res, NotIsomorphic):
            return NotStablyIsomorphic(res.reason)
    return Undecided("padding budget")


def injective_by_kernel(hom):
    """Injectivity as the constructions read it off the kernel module."""
    return kernel_of(hom).module.is_zero()


def surjective_by_quotient(hom):
    """Surjectivity as the constructions read it off the cokernel module."""
    return quotient_by_image(hom).module.is_zero()


def finite_index_by_quotient(hom):
    """Finite index of the image, as lemma2_pipeline read it off the cokernel."""
    return quotient_by_image(hom).module.zp_rank() == 0


def images_agree(h1, h2):
    """Whether two homs into the same module have the same image.

    Decided on lattices: with T the target's torsion lattice, the image
    lattice of each hom (plus T) is compared against the joint span.
    Matching Smith invariants force equality for a sublattice of its
    own saturation, so agreement in both directions is conclusive.
    """
    if h1.target is not h2.target:
        raise ValueError("images live in different modules")
    t, a, b = h1.target, h1.matrix, h2.matrix
    d1, d2, d12 = _span_dvals(t, a), _span_dvals(t, b), _span_dvals(t, a, b)
    return d1 == d12 and d2 == d12


def exact_by_kernel(inner, outer):
    """im(inner) = ker(outer), the kernel built as a submodule first."""
    return images_agree(kernel_of(outer).inclusion, inner)
