"""Independent reference computations used to pin expected test values.

The routines are slow, brute-force, and written from first principles on
plain Python integers without the package under test, so agreement with
the fast implementation is meaningful evidence rather than a tautology.
The exceptions are frozen copies of rewritten kernels, kept so the
current code can be compared with them bit for bit: smith_full_width,
the elimination as it stood before it updated only the live block, and
kernel_cols_by_column and orbits_by_column, the congruence kernel and
the orbit expansion as they looped over columns (these two call the
package's smith, zeros and matmul), and pivot_cols_by_column, the mod-p
pivot columns as they were found by a full reduction, column by column.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd

import numpy as np

from cyclomod import linalg


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
